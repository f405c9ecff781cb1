"""Toy continuous-control environments.

All environments are deterministic given the reset seed, clip incoming
actions to their bounds internally, and terminate only at the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import ActionBounds


@dataclass(frozen=True)
class EnvSpec:
    name: str
    state_dim: int
    action_dim: int
    bounds: ActionBounds
    horizon: int
    reward_desc: str

    def describe(self) -> str:
        return (f"{self.name}: state_dim={self.state_dim} action_dim={self.action_dim} "
                f"bounds=[{self.bounds.low.tolist()}, {self.bounds.high.tolist()}] "
                f"horizon={self.horizon} reward={self.reward_desc}")


class ToyEnv:
    """Shared reset/step plumbing; subclasses define dynamics and reward, and
    declare their ``spec`` as a class constant, shared by every instance."""

    spec: EnvSpec

    def __init__(self):
        self._state: np.ndarray | None = None
        self._t = 0
        self._done = True

    def reset(self, seed: int) -> np.ndarray:
        rng = np.random.Generator(np.random.PCG64(seed))
        self._state = self._initial_state(rng)
        self._t = 0
        self._done = False
        return self._state.copy()

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float, bool]:
        if self._done:
            raise RuntimeError("step() called on a terminal episode; reset first")
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (self.spec.action_dim,):
            raise ValueError(f"action shape {action.shape}, expected ({self.spec.action_dim},)")
        clipped = np.clip(action, self.spec.bounds.low, self.spec.bounds.high)
        next_state, reward = self._transition(self._state, clipped, self._t)
        self._t += 1
        self._done = self._t >= self.spec.horizon
        self._state = next_state
        return next_state.copy(), float(reward), self._done

    def clone(self) -> "ToyEnv":
        return type(self)()

    def _initial_state(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _transition(self, state, action, t) -> tuple[np.ndarray, float]:
        raise NotImplementedError


class PointMass1D(ToyEnv):
    """Position on [-1, 1], step of at most 0.1, reward -x'^2, horizon 50."""

    spec = EnvSpec("pointmass1d", 1, 1, ActionBounds.symmetric(0.1, 1),
                   50, "-x'^2 after x' = clamp(x + a, -1, 1)")

    def _initial_state(self, rng):
        return rng.uniform(-1.0, 1.0, size=1)

    def _transition(self, state, action, t):
        x = np.clip(state + action, -1.0, 1.0)
        return x, -float(x[0] ** 2)


class PointMass2D(ToyEnv):
    """Two independent axes; reward is the mean of the per-axis -x'^2."""

    spec = EnvSpec("pointmass2d", 2, 2, ActionBounds.symmetric(0.1, 2),
                   100, "-(x1'^2 + x2'^2)/2")

    def _initial_state(self, rng):
        return rng.uniform(-1.0, 1.0, size=2)

    def _transition(self, state, action, t):
        x = np.clip(state + action, -1.0, 1.0)
        return x, -float(np.mean(x ** 2))


class BoundaryLure(ToyEnv):
    """Bandit-like task whose early steps pay a bonus for near-bound actions.

    State is normalized time.  The quadratic term peaks at the interior
    point 0.3*M, but during the first 20% of the episode actions with
    |a| >= 0.9*M collect an extra 0.05, which makes the bound the better
    choice early on and pulls raw policy outputs outward.  ``M`` is a
    Python float, so the reward is worked out in Python floats.
    """

    M = 0.1
    BONUS = 0.05
    TARGET_FRACTION = 0.3
    LURE_EDGE = 0.9
    spec = EnvSpec("boundarylure", 1, 1, ActionBounds.symmetric(M, 1),
                   50, "-(a - 0.3M)^2 + 0.05*[|a| >= 0.9M] on early steps")
    WINDOW = spec.horizon // 5  # the lure's steps: the first 20% of the episode

    def _initial_state(self, rng):
        return np.zeros(1)

    def _transition(self, state, action, t):
        a = float(action[0])
        r = -((a - self.TARGET_FRACTION * self.M) ** 2)
        if t < self.WINDOW and abs(a) >= self.LURE_EDGE * self.M:
            r += self.BONUS
        return np.array([(t + 1) / self.spec.horizon]), r


_REGISTRY = {cls.spec.name: cls for cls in (PointMass1D, PointMass2D, BoundaryLure)}


def make_env(name: str) -> ToyEnv:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown env '{name}'; choose from {sorted(_REGISTRY)}") from None


def env_names() -> list[str]:
    return sorted(_REGISTRY)

