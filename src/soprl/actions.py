"""Transforms between raw policy outputs and environment actions.

Covers output normalization (with its backward pass, since it sits inside
the policy's computation graph), tanh squashing, the inverting-gradients
transform, clipping, and the saturation / entropy diagnostics.  The two
action heads bundle these into the two routes an agent can take from raw
output to action: normalize -> tanh, or clip + inverting gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ActionBounds:
    """Per-dimension action box, held as read-only float64 copies.

    ``low``/``high`` feed the inverting-gradients path and clipping; the
    half range feeds tanh squashing.  A box is a value: it compares and
    hashes by the floats of ``low`` and ``high``.
    """

    low: np.ndarray = field(compare=False)
    high: np.ndarray = field(compare=False)
    center: np.ndarray = field(init=False, repr=False, compare=False)
    half_range: np.ndarray = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        low = np.atleast_1d(np.array(self.low, dtype=np.float64))  # a copy
        high = np.atleast_1d(np.array(self.high, dtype=np.float64))
        if low.shape != high.shape:
            raise ValueError("low/high shape mismatch")
        if not np.all(low < high):
            raise ValueError("require low < high component-wise")
        m = (high - low) / 2.0
        center = (high + low) / 2.0
        for name, value in (("low", low), ("high", high), ("center", center), ("half_range", m)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", (tuple(low.tolist()), tuple(high.tolist())))

    @classmethod
    def symmetric(cls, scale: float | np.ndarray, dim: int) -> "ActionBounds":
        m = np.broadcast_to(np.asarray(scale, dtype=np.float64), (dim,)).copy()
        if not np.all(m > 0):
            raise ValueError("scale must be positive")
        return cls(low=-m, high=m)


def _mean_abs(x: np.ndarray) -> np.ndarray:
    """Mean of |x| over the last axis, kept; bitwise ``np.mean``, which also
    divides the ``np.add.reduce`` sum by the count, without its wrapper."""
    return np.add.reduce(np.abs(x), axis=-1, keepdims=True) / x.shape[-1]


def normalize_output(mu: np.ndarray) -> np.ndarray:
    """Rescale a raw policy output when its mean magnitude exceeds one.

    With G the mean of |mu_k|: if G > 1 return mu / G, otherwise mu
    unchanged.  After the G > 1 branch the mean magnitude is nudged back
    below one if float rounding pushed it a few ulp over, so the
    "mean |mu_k| <= 1" postcondition holds exactly.  Works on a single
    vector or a batch (last axis is the action dimension).
    """
    return _normalize(mu)[0]


def _normalize(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``normalize_output(mu)``, with the G and the mask G > 1 it used."""
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape[-1] == 0:
        raise ValueError("empty action vector")
    g = _mean_abs(mu)
    over = g > 1.0
    if not over.any():
        return mu.copy(), g, over
    out = np.where(over, mu / np.where(over, g, 1.0), mu)
    # ulp guard: division can round the mean magnitude to just above 1
    for _ in range(4):
        m = _mean_abs(out)
        bad = over & (m > 1.0)
        if not bad.any():
            break
        out = np.where(bad, out / np.where(bad, m, 1.0), out)
    return out, g, over


def _normalize_vjp(mu: np.ndarray, v: np.ndarray, g: np.ndarray,
                   over: np.ndarray) -> np.ndarray:
    """Backward pass of ``normalize_output`` at primal ``mu`` for cotangent
    ``v``, given G = mean|mu_k| and the mask G > 1.

    On the G > 1 branch, n_i = mu_i / G gives
    dL/dmu_j = v_j / G - (v . mu) sign(mu_j) / (K G^2); the subgradient of
    |.| at zero is taken as 0.  On the other branch the map is identity.
    """
    g_safe = np.where(over, g, 1.0)
    sign = np.sign(mu)
    vdotmu = np.add.reduce(v * mu, axis=-1, keepdims=True)
    scaled = v / g_safe - vdotmu * sign / (mu.shape[-1] * g_safe * g_safe)
    return np.where(over, scaled, v)


def squash(mu: np.ndarray, noise: np.ndarray, bounds: ActionBounds) -> np.ndarray:
    """a = M * tanh(mu + noise) on a symmetric box; evaluation mode passes zero noise."""
    mu = np.asarray(mu, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if mu.shape != noise.shape:
        raise ValueError(f"mu shape {mu.shape} != noise shape {noise.shape}")
    return bounds.half_range * np.tanh(mu + noise)


def squash_grad(u: np.ndarray, bounds: ActionBounds) -> np.ndarray:
    """d(M tanh u)/du, used to chain the policy objective through squash."""
    t = np.tanh(np.asarray(u, dtype=np.float64))
    return bounds.half_range * (1.0 - t * t)


def invert_gradients(grad_p: np.ndarray, p: np.ndarray,
                     bounds: ActionBounds) -> np.ndarray:
    """Scale an ascent gradient on raw outputs by distance to the bounds.

    Components whose gradient points up are scaled by (high - p) / range,
    the rest by (p - low) / range.  For p inside the box both factors lie in
    [0, 1] and hit 0 exactly at the relevant boundary; callers clip p first,
    but out-of-box values produce a negative factor, i.e. the gradient
    inverts.
    """
    grad_p = np.asarray(grad_p, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    span = bounds.high - bounds.low
    factor = np.where(grad_p > 0, (bounds.high - p) / span, (p - bounds.low) / span)
    return grad_p * factor


def clip_action(a: np.ndarray, bounds: ActionBounds) -> np.ndarray:
    return np.clip(np.asarray(a, dtype=np.float64), bounds.low, bounds.high)


def saturation_fraction(actions: np.ndarray, bounds: ActionBounds) -> float:
    """Fraction of action components at least 0.99 of the half range away
    from the box center, per dimension."""
    actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    if actions.size == 0:
        raise ValueError("empty action batch")
    return float(np.mean(np.abs(actions - bounds.center) >= 0.99 * bounds.half_range))


def _log_sech2(u: np.ndarray) -> np.ndarray:
    # log(1 - tanh^2 u) in a form stable for large |u|
    au = np.abs(u)
    return 2.0 * (np.log(2.0) - au - np.log1p(np.exp(-2.0 * au)))


def squashed_policy_entropy(mu: np.ndarray, sigma: float, bounds: ActionBounds,
                            n_samples: int, seed: int) -> float:
    """Monte-Carlo differential entropy of a = M tanh(u), u ~ N(mu, sigma^2 I).

    Change of variables gives H(a) = H(u) + E[sum_k log(M_k (1 - tanh^2 u_k))]
    with H(u) known in closed form; only the correction term is sampled.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    k = mu.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    u = mu + sigma * rng.standard_normal((n_samples, k))
    h_u = 0.5 * k * np.log(2.0 * np.pi * np.e * sigma * sigma)
    correction = np.sum(np.log(bounds.half_range)) + np.sum(_log_sech2(u), axis=1)
    return float(h_u + np.mean(correction))


class TanhHead:
    """Normalize (optionally) -> a = M tanh(h + noise), on a box symmetric about 0.

    Noise is added in the tanh input's own units, so its unit is 1.
    """

    noise_unit = 1.0

    def __init__(self, bounds: ActionBounds, normalize: bool):
        if np.any(np.abs(bounds.center) > 1e-12 * np.maximum(bounds.half_range, 1.0)):
            raise ValueError("tanh squashing requires symmetric bounds")
        self.bounds = bounds
        self.normalize = normalize

    def center(self, mu: np.ndarray) -> np.ndarray:
        """The noise-free tanh input for raw policy output ``mu``."""
        return normalize_output(mu) if self.normalize else mu

    def action(self, h: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return squash(h, noise, self.bounds)

    def forward_vjp(self, mu: np.ndarray):
        """The action Q1 sees in the policy objective, and its VJP back to mu.

        The normalization's mean magnitude G and mask G > 1 are worked out
        once and serve both passes.  The forward's bits are those of
        ``normalize_output``; the VJP is
        v_j / G - (v . mu) sign(mu_j) / (K G^2) where G > 1, else v.
        """
        if self.normalize:
            mu = np.asarray(mu, dtype=np.float64)
            h, g, over = _normalize(mu)
        else:
            h = mu

        def vjp(a_grad: np.ndarray) -> np.ndarray:
            h_grad = a_grad * squash_grad(h, self.bounds)
            return _normalize_vjp(mu, h_grad, g, over) if self.normalize else h_grad

        return self.action(h, np.zeros_like(h)), vjp

    def entropy(self, centers: np.ndarray, sigma: float, seeds: list[int]) -> float:
        """Mean squashed-policy entropy over a few reference centers."""
        return float(np.mean([squashed_policy_entropy(h, sigma, self.bounds, 256, seed)
                              for h, seed in zip(centers, seeds)]))


class InvertingGradientsHead:
    """a = clip(mu + noise); the policy ascends Q1 at the raw output with its
    gradient rescaled by the distance to the bound it pushes toward.

    Noise is given in units of the half range, matching the tanh head's scale.
    """

    def __init__(self, bounds: ActionBounds):
        self.bounds = bounds
        self.noise_unit = bounds.half_range

    def center(self, mu: np.ndarray) -> np.ndarray:
        return mu

    def action(self, h: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return clip_action(h + noise, self.bounds)

    def forward_vjp(self, mu: np.ndarray):
        """Q1 sees the unclipped output; the factors use it clipped into the box."""
        return mu, lambda a_grad: invert_gradients(a_grad, clip_action(mu, self.bounds),
                                                   self.bounds)

    def entropy(self, centers: np.ndarray, sigma: float, seeds: list[int]) -> float:
        """Closed-form entropy of the Gaussian exploration noise before clipping."""
        scale = sigma * self.noise_unit
        return float(np.sum(0.5 * np.log(2.0 * np.pi * np.e * scale ** 2)))
