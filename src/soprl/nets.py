"""Small feed-forward networks with explicit parameters and exact backprop.

The policy and both Q functions are two-hidden-layer ReLU MLPs with a
linear output.  Parameters live in plain float64 numpy arrays so that the
backward pass can be written out exactly and checked against central
finite differences.  The Adam optimizer keeps its moments in the same
layout as the parameters.

Inputs may be a single vector ``(d,)`` or a batch ``(B, d)``; outputs match
the input rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MlpParams:
    """Per-layer weights and biases.

    ``weights[i]`` has shape (fan_in, fan_out); hidden layers use ReLU, the
    final layer is linear.  The same container is reused for gradients and
    Adam moments, which makes shape congruence automatic.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.weights) + (self.weights[-1].shape[1],)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def named_tensors(self):
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            yield f"W{i}", w
            yield f"b{i}", b

    def check_finite(self, what: str = "parameter") -> None:
        for name, arr in self.named_tensors():
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError(f"non-finite {what} in tensor {name}")


def init_mlp(input_dim: int, hidden_dim: int, output_dim: int,
             rng: np.random.Generator) -> MlpParams:
    """Two hidden ReLU layers, linear output.

    Weights are uniform in +-1/sqrt(fan_in); biases start at zero.
    """
    sizes = (input_dim, hidden_dim, hidden_dim, output_dim)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def zeros_like_params(params: MlpParams) -> MlpParams:
    return MlpParams([np.zeros_like(w) for w in params.weights],
                     [np.zeros_like(b) for b in params.biases])


def _as_batch(x: np.ndarray, expected_dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != expected_dim:
        raise ValueError(f"{what} has shape {x.shape}, expected (*, {expected_dim})")
    return x, squeeze


@dataclass
class ForwardCache:
    """Activations saved by a forward pass, consumed by the backward pass."""

    x: np.ndarray
    pre_activations: list[np.ndarray] = field(default_factory=list)
    hidden: list[np.ndarray] = field(default_factory=list)
    output: np.ndarray | None = None


def mlp_forward_cached(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    x2d, _ = _as_batch(x, params.sizes[0], "input")
    cache = ForwardCache(x=x2d)
    h = x2d
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        if i < last:
            cache.pre_activations.append(z)
            h = np.maximum(z, 0.0)
            cache.hidden.append(h)
        else:
            cache.output = z
    return cache.output, cache


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; deterministic, float64."""
    x2d, squeeze = _as_batch(x, params.sizes[0], "input")
    y, _ = mlp_forward_cached(params, x2d)
    return y[0] if squeeze else y


def mlp_backward_cached(params: MlpParams, cache: ForwardCache,
                        output_grad: np.ndarray) -> tuple[MlpParams, np.ndarray]:
    """Exact gradients of <output, output_grad> w.r.t. parameters and input."""
    g, _ = _as_batch(output_grad, params.sizes[-1], "output_grad")
    if g.shape[0] != cache.x.shape[0]:
        raise ValueError("output_grad batch size does not match forward input")
    grads = zeros_like_params(params)
    last = params.n_layers - 1
    upstream = g
    for i in range(last, -1, -1):
        inp = cache.x if i == 0 else cache.hidden[i - 1]
        grads.weights[i][...] = inp.T @ upstream
        grads.biases[i][...] = upstream.sum(axis=0)
        upstream = upstream @ params.weights[i].T
        if i > 0:
            upstream = upstream * (cache.pre_activations[i - 1] > 0.0)
    return grads, upstream


def mlp_input_grad(params: MlpParams, cache: ForwardCache,
                   output_grad: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the input only; skips the parameter gradients."""
    upstream = output_grad
    for i in range(params.n_layers - 1, -1, -1):
        upstream = upstream @ params.weights[i].T
        if i > 0:
            upstream = upstream * (cache.pre_activations[i - 1] > 0.0)
    return upstream


@dataclass
class AdamState:
    """First/second moment estimates plus the update counter."""

    m: MlpParams
    v: MlpParams
    t: int = 0

    @classmethod
    def for_params(cls, params: MlpParams) -> "AdamState":
        return cls(m=zeros_like_params(params), v=zeros_like_params(params), t=0)


def adam_step(state: AdamState, params: MlpParams, grads: MlpParams,
              lr: float) -> tuple[MlpParams, AdamState]:
    """One Adam update, in place; returns the (mutated) params and state."""
    grads.check_finite("gradient")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for tensors in ("weights", "biases"):
        for p, g, m, v in zip(getattr(params, tensors), getattr(grads, tensors),
                              getattr(state.m, tensors), getattr(state.v, tensors)):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * np.square(g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


def _kink_safe_units(params: MlpParams, cache: ForwardCache,
                     probe_step: float) -> list[np.ndarray]:
    """Per-layer boolean mask over output units: safe to probe their coords.

    A probe of size h may flip a ReLU unit whose pre-activation magnitude is
    below 10*h, which invalidates the central-difference estimate.  A
    coordinate of layer i feeds unit j of that layer directly and every
    pre-activation further downstream, so it is safe when |z_i[:, j]| and all
    deeper pre-activations clear the margin.  The output layer has no
    downstream kinks and is always safe.
    """
    margin = 10.0 * probe_step
    unit_min = [np.min(np.abs(z), axis=0) for z in cache.pre_activations]
    layer_min = [float(np.min(m)) for m in unit_min]
    masks = []
    for i in range(params.n_layers):
        width = params.weights[i].shape[1]
        if i >= len(unit_min):
            masks.append(np.ones(width, dtype=bool))
            continue
        deeper_ok = all(m >= margin for m in layer_min[i + 1:])
        masks.append((unit_min[i] >= margin) & deeper_ok)
    return masks


def finite_diff_check(params: MlpParams, x: np.ndarray, probe_step: float,
                      output_grad: np.ndarray | None = None,
                      analytic: MlpParams | None = None,
                      max_coords: int | None = None,
                      rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    The objective is <output, output_grad> (cotangent defaults to ones).
    Coordinates whose probe could cross a ReLU kink are skipped.  When
    ``analytic`` is given it is compared instead of a fresh backward pass,
    which lets tests inject corrupted gradients.  ``max_coords`` limits the
    probes per tensor (random subset) for large nets.
    """
    if probe_step <= 0:
        raise ValueError("probe_step must be positive")
    x2d, _ = _as_batch(x, params.sizes[0], "input")
    if output_grad is None:
        output_grad = np.ones((x2d.shape[0], params.sizes[-1]))
    _, cache = mlp_forward_cached(params, x2d)
    if analytic is None:
        analytic, _ = mlp_backward_cached(params, cache, output_grad)
    safe_units = _kink_safe_units(params, cache, probe_step)

    def objective() -> float:
        y, _ = mlp_forward_cached(params, x2d)
        return float(np.sum(y * output_grad))

    worst = 0.0
    for tensors in ("weights", "biases"):
        for layer, (p, a) in enumerate(zip(getattr(params, tensors),
                                           getattr(analytic, tensors))):
            width = params.weights[layer].shape[1]
            flat_p = p.reshape(-1)
            flat_a = a.reshape(-1)
            coords = np.arange(flat_p.size)
            unit_of = coords % width if tensors == "weights" else coords
            coords = coords[safe_units[layer][unit_of]]
            if max_coords is not None and coords.size > max_coords:
                if rng is None:
                    rng = np.random.default_rng(0)
                coords = rng.choice(coords, size=max_coords, replace=False)
            for idx in coords:
                orig = flat_p[idx]
                flat_p[idx] = orig + probe_step
                f_plus = objective()
                flat_p[idx] = orig - probe_step
                f_minus = objective()
                flat_p[idx] = orig
                numeric = (f_plus - f_minus) / (2.0 * probe_step)
                denom = max(abs(flat_a[idx]), abs(numeric), 1e-12)
                worst = max(worst, abs(flat_a[idx] - numeric) / denom)
    return worst

