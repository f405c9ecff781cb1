"""Reference oracles that the tests check the engine against.

None of these runs in a training or analysis command: each is a slower,
independent statement of a quantity the engine computes, or a helper only a
check needs.  They use the engine's public names only, plus an environment's
``_transition`` for the lure task's per-step rewards.  Pytest does not
collect this module; tests import it by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from soprl.analysis import SamplingScenario
from soprl.envs import EnvSpec, make_env
from soprl.nets import MlpParams, mlp_backward_cached, mlp_forward, mlp_forward_cached
from soprl.replay import SumTree


# -- the exact optimum of the toy tasks ---------------------------------------

@dataclass
class DpResult:
    """Backward-induction solution: optimal undiscounted return per start state."""

    state_grid: np.ndarray
    v0: np.ndarray
    mean_return: float

    def value_at(self, x: np.ndarray | float) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if self.state_grid.ndim == 1 and x.size == 1:
            return float(np.interp(x[0], self.state_grid, self.v0))
        # independent axes: total value is the sum of per-axis values
        return float(sum(np.interp(xi, self.state_grid, self.v0) for xi in x))


def _dp_pointmass_axis(spec: EnvSpec, state_res: int,
                       action_res: int) -> tuple[np.ndarray, np.ndarray]:
    """One axis of a point-mass task, whose reward is that axis's share of
    the mean over ``spec.state_dim`` axes."""
    grid = np.linspace(-1.0, 1.0, state_res)
    acts = np.linspace(spec.bounds.low[0], spec.bounds.high[0], action_res)
    reward_scale = 1.0 / spec.state_dim
    v = np.zeros(state_res)
    for _ in range(spec.horizon):
        nxt = np.clip(grid[:, None] + acts[None, :], -1.0, 1.0)
        reward = -reward_scale * nxt ** 2
        future = np.interp(nxt.ravel(), grid, v).reshape(nxt.shape)
        v = np.max(reward + future, axis=1)
    return grid, v


def dp_oracle(name: str, state_res: int = 513, action_res: int = 129) -> DpResult:
    """Finite-horizon optimal return (gamma = 1) on a discretized grid.

    The mean return averages the start-state value over the environment's
    initial distribution (uniform on the state box for the point-mass
    tasks, the fixed start for the lure task).  Odd resolutions put the
    origin and the zero action exactly on the grids.  Horizons, bounds and
    reward scales come from the environment's spec.
    """
    if state_res < 32 or action_res < 32:
        raise ValueError("grid resolutions must be at least 32")
    env = make_env(name)
    spec = env.spec
    if spec.name in ("pointmass1d", "pointmass2d"):
        grid, v = _dp_pointmass_axis(spec, state_res, action_res)
        return DpResult(grid, v, float(spec.state_dim * np.trapezoid(v, grid) / 2.0))
    if spec.name == "boundarylure":
        acts = np.linspace(spec.bounds.low[0], spec.bounds.high[0], action_res)
        total = 0.0
        for t in range(spec.horizon):
            rewards = [env._transition(np.array([t / spec.horizon]), np.array([a]), t)[1]
                       for a in acts]
            total += max(rewards)
        grid = np.array([0.0, 1.0])
        return DpResult(grid, np.array([total, total]), total)
    raise ValueError(f"no oracle for env '{spec.name}'")


# -- central differences through the MLPs -------------------------------------

def _kink_safe_units(params: MlpParams, x2d: np.ndarray,
                     probe_step: float) -> list[np.ndarray]:
    """Per-layer boolean mask over output units: safe to probe their coords.

    A probe of size h may flip a ReLU unit whose pre-activation magnitude is
    below 10*h, which invalidates the central-difference estimate.  A
    coordinate of layer i feeds unit j of that layer directly and every
    pre-activation further downstream, so it is safe when |z_i[:, j]| and all
    deeper pre-activations clear the margin.  The output layer has no
    downstream kinks and is always safe.  The forward pass keeps no
    pre-activations, so they are recomputed here.
    """
    margin = 10.0 * probe_step
    pre_activations, h = [], x2d
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        pre_activations.append(h @ w + b)
        h = np.maximum(pre_activations[-1], 0.0)
    unit_min = [np.min(np.abs(z), axis=0) for z in pre_activations]
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
    x2d = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if output_grad is None:
        output_grad = np.ones((x2d.shape[0], params.sizes[-1]))
    if analytic is None:
        _, cache = mlp_forward_cached(params, x2d)
        analytic = mlp_backward_cached(params, cache, output_grad)
    safe_units = _kink_safe_units(params, x2d, probe_step)

    def objective() -> float:
        return float(np.sum(mlp_forward(params, x2d) * output_grad))

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


# -- the output normalization's backward pass ---------------------------------

def normalize_output_vjp(mu: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Backward pass of ``normalize_output`` at primal ``mu``.

    On the G > 1 branch, n_i = mu_i / G with G = mean|mu_k| gives
    dL/dmu_j = v_j / G - (v . mu) sign(mu_j) / (K G^2); the subgradient of
    |.| at zero is taken as 0.  On the other branch the map is identity.
    """
    mu = np.asarray(mu, dtype=np.float64)
    v = np.asarray(grad_out, dtype=np.float64)
    g = np.mean(np.abs(mu), axis=-1, keepdims=True)
    over = g > 1.0
    g = np.where(over, g, 1.0)
    vdotmu = np.sum(v * mu, axis=-1, keepdims=True)
    return np.where(over, v / g - vdotmu * np.sign(mu) / (mu.shape[-1] * g * g), v)


# -- replay and count bookkeeping ---------------------------------------------

def probabilities(tree: SumTree) -> np.ndarray:
    """Each slot's draw probability: its stored leaf value over the total."""
    return tree.leaf_values() / tree.total


def retained_slice(scn: SamplingScenario) -> slice:
    """Positions still in the buffer after the last update."""
    if scn.start == "full" and scn.updates >= scn.buffer:
        return slice(scn.updates, scn.n_positions)
    if scn.start == "full":
        return slice(scn.n_positions - scn.buffer, scn.n_positions)
    return slice(max(0, scn.updates - scn.buffer), scn.updates)
