"""Experience replay: FIFO ring buffer plus the sampling schemes.

Four ways to draw a training batch: uniform over the whole buffer, uniform
over a shrinking most-recent window (ERE), proportional to TD-error
priorities via a sum tree (PER), and recency-weighted exponential sampling
approximated over fixed-size segments.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

EXP_SEGMENT = 100  # items per recency segment of the exponential sampler


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    done: bool


@dataclass(frozen=True)
class EreConfig:
    """Schedule parameters for the shrinking sampling window.

    ``c_min`` defaults to max(batch, capacity // 200): 5000 for the reference
    buffer size of one million, unless the batch is larger.
    """

    eta0: float = 0.995
    c_min: int | None = None
    phase_norm: ClassVar[int] = 1000

    def __post_init__(self):
        if not 0.0 < self.eta0 <= 1.0:
            raise ValueError("eta0: must be in (0, 1]")
        if self.c_min is not None and self.c_min < 1:
            raise ValueError("c_min: must be >= 1")

    def resolved_c_min(self, capacity: int, batch: int = 1) -> int:
        if self.c_min is not None:
            return self.c_min
        return max(batch, capacity // 200)


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions with exact recency indexing."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.states = np.zeros((capacity, state_dim))
        self.actions = np.zeros((capacity, action_dim))
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, state_dim))
        self.dones = np.zeros(capacity, dtype=bool)
        self.cursor = 0
        self.size = 0

    def push(self, t: Transition) -> int:
        """Insert one transition, evicting the oldest when full; returns the slot."""
        s = np.asarray(t.state, dtype=np.float64)
        a = np.asarray(t.action, dtype=np.float64)
        s2 = np.asarray(t.next_state, dtype=np.float64)
        if s.shape != (self.state_dim,) or s2.shape != (self.state_dim,):
            raise ValueError(f"state dims {s.shape}/{s2.shape}, expected ({self.state_dim},)")
        if a.shape != (self.action_dim,):
            raise ValueError(f"action dim {a.shape}, expected ({self.action_dim},)")
        slot = self.cursor
        self.states[slot] = s
        self.actions[slot] = a
        self.rewards[slot] = float(t.reward)
        self.next_states[slot] = s2
        self.dones[slot] = bool(t.done)
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        return slot

    def recent_slot(self, recency: np.ndarray | int) -> np.ndarray | int:
        """Map most-recent-first index (0 = newest) to a physical slot."""
        return (self.cursor - 1 - recency) % self.capacity

    def gather(self, slots: np.ndarray) -> dict[str, np.ndarray]:
        return {
            "states": self.states[slots],
            "actions": self.actions[slots],
            "rewards": self.rewards[slots],
            "next_states": self.next_states[slots],
            "dones": self.dones[slots],
        }


def _require_nonempty(buffer: ReplayBuffer) -> None:
    if buffer.size == 0:
        raise ValueError("cannot sample from an empty buffer")


def sample_uniform(buffer: ReplayBuffer, batch: int,
                   rng: np.random.Generator) -> np.ndarray:
    """I.i.d. uniform slots over current contents, with replacement."""
    _require_nonempty(buffer)
    recency = rng.integers(0, buffer.size, size=batch)
    return buffer.recent_slot(recency)


def ere_range(k: int, k_upd: int, capacity: int, cfg: EreConfig, eta: float,
              batch: int = 1) -> int:
    """Window size for the k-th update of a phase with k_upd updates.

    c_k = capacity * eta^(k * 1000 / k_upd), floored at c_min.  An exponent
    of zero (k = 0) spans the entire buffer; callers additionally cap the
    window at the current buffer size when sampling.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    exponent = k * cfg.phase_norm / k_upd
    c = int(round(capacity * eta ** exponent))
    return max(cfg.resolved_c_min(capacity, batch), c)


def sample_ere(buffer: ReplayBuffer, k: int, k_upd: int, cfg: EreConfig,
               eta: float, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform with replacement over the most recent c_k transitions."""
    _require_nonempty(buffer)
    window = min(ere_range(k, k_upd, buffer.capacity, cfg, eta, batch), buffer.size)
    recency = rng.integers(0, window, size=batch)
    return buffer.recent_slot(recency)


class SumTree:
    """Complete binary tree of priority partial sums over buffer slots.

    Leaves are padded to a power of two; leaf i mirrors buffer slot i.
    Written priorities are (|td| + floor)^beta1, so sampling proportional to
    the stored leaf values realizes the priority exponent with a single
    O(log n) descent.  Parents are always recomputed as left+right (never
    incremental deltas), which keeps every internal node exactly equal to
    the sum of its children; a full rebuild additionally runs every
    ``rebuild_every`` writes.

    A write touches only the ancestors of the written leaves.  One slot
    walks its path with integer steps.  A batch sorts its leaves once; at
    each level it shifts them to their parents and drops each parent equal
    to its left neighbour (ancestors of sorted leaves stay sorted).  Once a
    level holds fewer than twice as many nodes as are touched, every
    remaining level is recomputed whole from two strided slices.  The
    result is bitwise that of recomputing the parents of the touched set
    level by level: each node written is still left + right, and a node
    under no written leaf is already the sum of its children, so writing
    it again stores the value it has.
    """

    def __init__(self, capacity: int, beta1: float = 0.4, beta2: float = 0.4,
                 priority_floor: float = 1e-6, rebuild_every: int = 100_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.beta1 = beta1
        self.beta2 = beta2
        self.priority_floor = priority_floor
        self.rebuild_every = rebuild_every
        self.n_leaves = 1 << (capacity - 1).bit_length()
        self.nodes = np.zeros(2 * self.n_leaves - 1)
        self.max_raw_priority = 1.0
        self.writes = 0

    @property
    def total(self) -> float:
        return float(self.nodes[0])

    def leaf_values(self) -> np.ndarray:
        return self.nodes[self.n_leaves - 1:self.n_leaves - 1 + self.capacity]

    def set_raw(self, slots: np.ndarray, raw_priorities: np.ndarray) -> None:
        """Write raw priorities p (already including the floor); stores p^beta1.

        A single priority is written to every slot given.  Within one call
        the last write to a repeated slot wins.  Every check runs before
        anything is changed.
        """
        slots = np.atleast_1d(np.asarray(slots, dtype=np.int64)).ravel()
        raw = np.atleast_1d(np.asarray(raw_priorities, dtype=np.float64)).ravel()
        if slots.size and (slots.min() < 0 or slots.max() >= self.capacity):
            raise IndexError("slot out of range")
        if raw.size != 1 and raw.size != slots.size:
            raise ValueError(f"{raw.size} priorities for {slots.size} slots")
        if raw.size:
            low, high = float(raw.min()), float(raw.max())  # NaN reaches both
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValueError("priority not finite")
            if low < self.priority_floor:
                raise ValueError("priority below floor")
        if not slots.size:
            return
        self.max_raw_priority = max(self.max_raw_priority, high)
        idx = slots + self.n_leaves - 1
        self.nodes[idx] = raw ** self.beta1
        self.writes += slots.size
        if self.writes >= self.rebuild_every:
            self.rebuild()
        elif idx.size == 1:
            nodes, i = self.nodes, int(idx[0])
            while i:
                i = (i - 1) >> 1
                nodes[i] = nodes[2 * i + 1] + nodes[2 * i + 2]
        else:
            self._write_ancestors(np.sort(idx))

    def _write_ancestors(self, touched: np.ndarray) -> None:
        """Recompute the ancestors of the sorted leaf indices ``touched``."""
        nodes = self.nodes
        lo = self.n_leaves - 1  # first index of the level holding ``touched``
        while lo > 0:
            parent_lo = lo // 2
            touched = (touched - 1) >> 1
            keep = np.empty(touched.size, dtype=bool)
            keep[0] = True
            np.not_equal(touched[1:], touched[:-1], out=keep[1:])
            touched = touched[keep]
            if 2 * touched.size > lo - parent_lo:
                self._sum_levels(lo)
                return
            nodes[touched] = nodes[2 * touched + 1] + nodes[2 * touched + 2]
            lo = parent_lo

    def _sum_levels(self, lo: int) -> None:
        """Recompute every level above the one starting at node ``lo``."""
        level = self.nodes[lo:2 * lo + 1]
        while lo > 0:
            parent_lo = lo // 2
            self.nodes[parent_lo:lo] = level[0::2] + level[1::2]
            level = self.nodes[parent_lo:lo]
            lo = parent_lo

    def rebuild(self) -> None:
        """Recompute all internal nodes bottom-up from the leaves."""
        self._sum_levels(self.n_leaves - 1)
        self.writes = 0

    def sample_slots(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        """Draw slots with probability proportional to stored leaf values."""
        if self.total <= 0:
            raise ValueError("cannot sample from an all-zero tree")
        targets = rng.random(batch) * self.total
        idx = np.zeros(batch, dtype=np.int64)
        while idx[0] < self.n_leaves - 1:
            left = 2 * idx + 1
            left_sum = self.nodes[left]
            go_left = targets < left_sum
            targets = np.where(go_left, targets, targets - left_sum)
            idx = np.where(go_left, left, left + 1)
        return idx - (self.n_leaves - 1)

    def probabilities(self) -> np.ndarray:
        return self.leaf_values() / self.total


def per_update_priorities(tree: SumTree, slots: np.ndarray,
                          td_errors: np.ndarray) -> None:
    """Refresh leaf priorities to (|td| + floor) for the given slots."""
    raw = np.abs(np.asarray(td_errors, dtype=np.float64)) + tree.priority_floor
    tree.set_raw(slots, raw)


def per_sample(tree: SumTree, buffer: ReplayBuffer, batch: int,
               rng: np.random.Generator,
               normalize_weights: bool = True) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Priority-proportional batch with importance-sampling weights.

    w_i = (1 / (size * P(i)))^beta2, optionally normalized by the batch max.
    """
    _require_nonempty(buffer)
    slots = tree.sample_slots(batch, rng)
    leaf = tree.leaf_values()[slots]
    p = leaf / tree.total
    weights = (1.0 / (buffer.size * p)) ** tree.beta2
    if normalize_weights:
        weights = weights / np.max(weights)
    return buffer.gather(slots), slots, weights


def exponential_segment_masses(size: int, lam: float, segment: int) -> np.ndarray:
    """Exact mass of lam*exp(-lam*x) over each recency segment, unnormalized.

    Written as exp(-lam*start) * (1 - exp(-lam*len)) via expm1; the naive
    difference of exponentials loses all precision once lam*len ~ 1e-10.
    """
    n_seg = (size + segment - 1) // segment
    starts = np.arange(n_seg) * segment
    lengths = np.minimum(starts + segment, size) - starts
    return np.exp(-lam * starts) * -np.expm1(-lam * lengths)


@functools.lru_cache(maxsize=8)
def _segment_cdf(size: int, lam: float) -> np.ndarray:
    """Normalized cumulative segment masses, built as Generator.choice builds
    them from ``p``, so a search of this CDF draws the same segments."""
    masses = exponential_segment_masses(size, lam, EXP_SEGMENT)
    probs = masses / masses.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def sample_exponential(buffer: ReplayBuffer, lam: float, batch: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Recency-weighted sampling: pick a segment of EXP_SEGMENT items by its
    exact exponential mass, then uniformly within it (index 0 = most recent).

    The segment draw is ``rng.choice(n_segments, batch, p=masses / sum)``
    done by hand: one uniform per draw, searched in the cached CDF.  Slots
    and generator state are the same as that call's.
    """
    _require_nonempty(buffer)
    if not 0 < lam < np.inf:
        raise ValueError("lambda must be positive and finite")
    seg = _segment_cdf(buffer.size, lam).searchsorted(rng.random(batch), side="right")
    starts = seg * EXP_SEGMENT
    lengths = np.minimum(starts + EXP_SEGMENT, buffer.size) - starts
    recency = starts + rng.integers(0, lengths)
    return buffer.recent_slot(recency)


@dataclass
class PerfTracker:
    """Episode-return history for the adaptive-eta rule.

    Recent improvement compares the latest training return with the return
    recorded closest to half a buffer-capacity of environment steps earlier;
    before that much history exists it stays undefined.

    The history keeps only the entries from the one last compared onwards.
    With the same capacity on every call the target only moves forward, so
    no later comparison could pick an entry dropped before it.
    """

    timesteps: list[int] = field(default_factory=list)
    returns: list[float] = field(default_factory=list)
    i_recent: float | None = None
    i_max: float = 0.0
    _first_timestep: int | None = field(default=None, init=False, repr=False)

    def update(self, timestep: int, episode_return: float, capacity: int) -> None:
        if self.timesteps and timestep < self.timesteps[-1]:
            raise ValueError("timesteps must be monotone")
        self.timesteps.append(int(timestep))
        self.returns.append(float(episode_return))
        if self._first_timestep is None:
            self._first_timestep = self.timesteps[0]
        target = timestep - capacity // 2
        if target < self._first_timestep:
            self.i_recent = None
            return
        pos = bisect.bisect_left(self.timesteps, target)
        if pos > 0 and (pos == len(self.timesteps)
                        or target - self.timesteps[pos - 1] <= self.timesteps[pos] - target):
            pos -= 1
        self.i_recent = episode_return - self.returns[pos]
        self.i_max = max(self.i_max, self.i_recent)
        del self.timesteps[:pos], self.returns[:pos]


def adapt_eta(cfg: EreConfig, tracker: PerfTracker) -> float:
    """eta = eta0 * r + (1 - r) with r = clamp(I_recent / I_max, 0, 1).

    Falls back to eta0 while the improvement window has not filled or while
    no positive improvement has been seen.
    """
    if tracker.i_recent is None or tracker.i_max <= 0.0:
        return cfg.eta0
    r = min(max(tracker.i_recent / tracker.i_max, 0.0), 1.0)
    return cfg.eta0 * r + (1.0 - r)
