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
    """Fixed-capacity FIFO ring of transitions with exact recency indexing.

    Each transition is one float64 row of ``_rows``: state | action | reward
    | next state; ``dones`` is its own bool array.  ``gather`` takes whole
    rows with one ``take`` and returns each field as a C-contiguous copy of
    its columns, so a batch has the dtypes, shapes, layout and bits of
    indexing the five fields one by one.  At a buffer of 1e6 each drawn
    slot then misses cache once, in its row, instead of once in each of
    five arrays.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self._rows = np.zeros((capacity, 2 * state_dim + action_dim + 1))
        self.dones = np.zeros(capacity, dtype=bool)
        self.cursor = 0
        self.size = 0

    def push(self, t: Transition) -> int:
        """Insert one transition, evicting the oldest when full; returns the slot.

        A transition with a NaN or infinite value is refused before anything
        is written."""
        s = np.asarray(t.state, dtype=np.float64)
        a = np.asarray(t.action, dtype=np.float64)
        s2 = np.asarray(t.next_state, dtype=np.float64)
        if s.shape != (self.state_dim,) or s2.shape != (self.state_dim,):
            raise ValueError(f"state dims {s.shape}/{s2.shape}, expected ({self.state_dim},)")
        if a.shape != (self.action_dim,):
            raise ValueError(f"action dim {a.shape}, expected ({self.action_dim},)")
        row = [*s.tolist(), *a.tolist(), float(t.reward), *s2.tolist()]
        # a finite sum needs finite terms; a sum that overflows gets the exact test
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise ValueError(f"transition not finite: state {s.tolist()}, action "
                             f"{a.tolist()}, reward {t.reward}, next state {s2.tolist()}")
        slot = self.cursor  # written only now: when full it holds the oldest transition
        self._rows[slot] = row
        self.dones[slot] = bool(t.done)
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        return slot

    def recent_slot(self, recency: np.ndarray | int) -> np.ndarray | int:
        """Map most-recent-first index (0 = newest) to a physical slot."""
        return (self.cursor - 1 - recency) % self.capacity

    def gather(self, slots: np.ndarray) -> dict[str, np.ndarray]:
        """The transitions at the integer ``slots``, one array per field."""
        rows = self._rows.take(slots, axis=0)
        # the first action column and the reward column
        a0, r = self.state_dim, self.state_dim + self.action_dim
        return {
            "states": rows[:, :a0].copy(),
            "actions": rows[:, a0:r].copy(),
            "rewards": rows[:, r].copy(),
            "next_states": rows[:, r + 1:].copy(),
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

    The nodes form a 1-based heap: node j has children 2j and 2j + 1, and
    leaf i is node ``n_leaves + i``.  ``nodes`` is a view of it in the
    0-based layout, root at 0.  A one-slot write checks and walks its
    ancestors with Python scalars, each parent the running sum plus the
    sibling (IEEE addition commutes, so that is left + right).  A batch
    write shifts its nodes to their parents level by level and writes each
    as left + right, with no sort or dedup: a parent shared by several nodes
    is written again with the same bits.  Once the next level holds fewer
    than eight times the batch, it and every level above are recomputed
    whole from strided slices.  Either way each node written is left + right
    of its children, so the nodes are bitwise those of a level-by-level walk
    over the touched set.

    The descent subtracts ``left_sum * right``, with ``right`` a bool mask,
    instead of branching, and steps to the right child by adding the mask.
    Both are same-kind numpy calls, which cost far less than the casts of a
    mixed-dtype one.  The product is exact for a finite left_sum >= 0, so a
    tree whose total is not finite cannot be sampled.
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
        self._heap = np.zeros(2 * self.n_leaves)  # _heap[0] is unused
        self.max_raw_priority = 1.0
        self.writes = 0

    @property
    def nodes(self) -> np.ndarray:
        return self._heap[1:]

    @property
    def total(self) -> float:
        return float(self._heap[1])

    def leaf_values(self) -> np.ndarray:
        return self._heap[self.n_leaves:self.n_leaves + self.capacity]

    def set_raw(self, slots: np.ndarray, raw_priorities: np.ndarray) -> None:
        """Write raw priorities p (already including the floor); stores p^beta1.

        A single priority is written to every slot given.  Within one call
        the last write to a repeated slot wins.  Every check runs before
        anything is changed.
        """
        slots = np.asarray(slots, dtype=np.int64)
        raw = np.asarray(raw_priorities, dtype=np.float64)
        # a one-slot write, a per-step insert made by hand, runs on Python scalars
        one = slots.size == raw.size == 1 and self.writes + 1 < self.rebuild_every
        if one:
            first = last = slots.item()
            low = high = raw.item()
        else:
            slots, raw = np.atleast_1d(slots).ravel(), np.atleast_1d(raw).ravel()
            first, last = (slots.min(), slots.max()) if slots.size else (0, 0)
        if first < 0 or last >= self.capacity:
            raise IndexError("slot out of range")
        if raw.size != 1 and raw.size != slots.size:
            raise ValueError(f"{raw.size} priorities for {slots.size} slots")
        if not raw.size:
            return  # past the count check, no slot either
        if not one:
            low, high = float(raw.min()), float(raw.max())  # NaN reaches both
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("priority not finite")
        if low < self.priority_floor:
            raise ValueError("priority below floor")
        stored = raw ** self.beta1  # numpy's power on both paths
        top = stored.item() if one else stored.max()
        if not math.isfinite(top):
            raise ValueError("priority ** beta1 not finite")
        if not slots.size:
            return
        self.max_raw_priority = max(self.max_raw_priority, high)
        if one:
            heap = memoryview(self._heap)  # indexes to and from Python floats
            i = self.n_leaves + first
            heap[i] = top
            self.writes += 1
            while i > 1:
                top += heap[i ^ 1]
                i >>= 1
                heap[i] = top
            return
        heap = self._heap
        j = slots + self.n_leaves
        heap[j] = stored
        del stored  # not held while the ancestors are summed: the peak of a full write
        self.writes += slots.size
        if self.writes >= self.rebuild_every:
            self.rebuild()
        else:
            lo = self.n_leaves  # first node of the level holding ``j``
            while 16 * j.size <= lo:
                j >>= 1
                left = j + j
                heap[j] = heap[left] + heap[1:][left]  # heap[1:][left] is heap[left + 1]
                lo >>= 1
            self._sum_levels(lo)

    def _sum_levels(self, lo: int) -> None:
        """Recompute every level above the one starting at node ``lo``."""
        heap = self._heap
        while lo > 1:
            heap[lo >> 1:lo] = heap[lo:2 * lo:2] + heap[lo + 1:2 * lo:2]
            lo >>= 1

    def rebuild(self) -> None:
        """Recompute all internal nodes bottom-up from the leaves."""
        self._sum_levels(self.n_leaves)
        self.writes = 0

    def sample_slots(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        """Draw slots with probability proportional to stored leaf values."""
        total = self.total
        if not 0.0 < total < math.inf:  # NaN fails both
            raise ValueError(f"cannot sample from a tree whose total is {total}")
        heap = self._heap
        targets = rng.random(batch) * total
        j = np.ones(batch, dtype=np.int64)
        right = np.empty(batch, dtype=bool)
        for _ in range(self.n_leaves.bit_length() - 1):
            j += j
            left_sum = heap[j]
            np.greater_equal(targets, left_sum, out=right)
            left_sum *= right
            targets -= left_sum
            j += right
        slots = j - self.n_leaves
        # rounding can carry a target past the last positive leaf onto an
        # empty one: that draw takes the nearest positive leaf before it
        for k in np.flatnonzero(heap[j] == 0.0):
            slots[k] = np.flatnonzero(self.leaf_values()[:slots[k]] > 0.0)[-1]
        return slots


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
    A batch whose largest weight is not finite is refused.
    """
    _require_nonempty(buffer)
    slots = tree.sample_slots(batch, rng)
    leaf = tree.leaf_values()[slots]
    p = leaf / tree.total
    with np.errstate(over="ignore", divide="ignore"):  # refused below instead
        weights = (1.0 / (buffer.size * p)) ** tree.beta2
    largest = np.max(weights)
    if not math.isfinite(largest):
        raise ValueError(f"beta2: importance weights overflow at beta2={tree.beta2}")
    if normalize_weights:
        weights = weights / largest
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


@functools.lru_cache(maxsize=2)  # a growing buffer needs one entry per size, in turn
def _segment_cdf(size: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized cumulative segment masses, built as Generator.choice builds
    them from ``p``, so a search of this CDF draws the same segments; and a
    guide table for that search (Chen & Asau).

    Bucket b of the table's G covers [b/G, (b+1)/G) and holds #{cdf <= b/G},
    the answer for the bucket's lowest key and a lower bound for the rest.
    G is a power of two, so u * G and cdf * G are exact: a CDF value is at
    most b/G exactly when its scaled ceiling is at most b.  G lies in
    (8, 16] times the segment count, a table of 1 MB at 10,000 segments.
    """
    masses = exponential_segment_masses(size, lam, EXP_SEGMENT)
    probs = masses / masses.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    buckets = 1 << (8 * cdf.size).bit_length()
    guide = np.bincount(np.ceil(cdf * buckets).astype(np.intp), minlength=buckets + 1)
    guide.cumsum(out=guide)  # in place: one table's memory at the peak
    guide = guide[:buckets]
    cdf.flags.writeable = guide.flags.writeable = False
    return cdf, guide


def sample_exponential(buffer: ReplayBuffer, lam: float, batch: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Recency-weighted sampling: pick a segment of EXP_SEGMENT items by its
    exact exponential mass, then uniformly within it (index 0 = most recent).

    The segment draw is ``rng.choice(n_segments, batch, p=masses / sum)``
    done by hand: one uniform u per draw, and its segment #{cdf <= u}, the
    ``searchsorted(u, side="right")`` of the cached CDF.  The guide table
    gives that count for most draws with two gathers; a draw whose bucket
    holds a CDF value at or below u is searched.  Slots and generator state
    are the same as that call's.
    """
    _require_nonempty(buffer)
    if not 0 < lam < np.inf:
        raise ValueError("lambda must be positive and finite")
    cdf, guide = _segment_cdf(buffer.size, lam)
    u = rng.random(batch)
    seg = guide.take((u * guide.size).astype(np.intp))
    past = cdf.take(seg) <= u
    if past.any():
        seg[past] = cdf.searchsorted(u[past], side="right")
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


class Sampler:
    """Uniform replay, and the hooks ``train()`` calls on every scheme.  Each
    hook calls its scheme's functions by their names in this module, so
    patching one of them here reaches ``train()``."""

    eta: float | None = None  # ERE's current eta, for the learning record

    def __init__(self, cfg, buffer: ReplayBuffer):
        self.cfg = cfg
        self.buffer = buffer
        self.tracker = PerfTracker()

    def episode_done(self, env_steps: int, ep_return: float) -> None:
        self.tracker.update(env_steps, ep_return, self.cfg.buffer_capacity)

    def draw(self, k: int, ep_len: int, rng: np.random.Generator) -> tuple:
        slots = self._slots(k, ep_len, rng)
        return self.buffer.gather(slots), slots, None

    def _slots(self, k: int, ep_len: int, rng: np.random.Generator) -> np.ndarray:
        return sample_uniform(self.buffer, self.cfg.batch_size, rng)

    def learned(self, slots: np.ndarray, td: np.ndarray) -> None:
        pass


class EreSampler(Sampler):
    def __init__(self, cfg, buffer: ReplayBuffer):
        super().__init__(cfg, buffer)
        self.ere = cfg.ere_config()
        self.eta = self.ere.eta0

    def episode_done(self, env_steps: int, ep_return: float) -> None:
        super().episode_done(env_steps, ep_return)
        self.eta = adapt_eta(self.ere, self.tracker)

    def _slots(self, k: int, ep_len: int, rng: np.random.Generator) -> np.ndarray:
        return sample_ere(self.buffer, k, ep_len, self.ere, self.eta, self.cfg.batch_size, rng)


class ExpSampler(Sampler):
    def _slots(self, k: int, ep_len: int, rng: np.random.Generator) -> np.ndarray:
        return sample_exponential(self.buffer, self.cfg.exp_lambda, self.cfg.batch_size, rng)


class PerSampler(Sampler):
    def __init__(self, cfg, buffer: ReplayBuffer):
        super().__init__(cfg, buffer)
        self.tree = SumTree(buffer.capacity, beta1=cfg.per_beta1, beta2=cfg.per_beta2,
                            priority_floor=cfg.per_priority_floor)
        self._env_steps = 0  # at the previous episode_done

    def episode_done(self, env_steps: int, ep_return: float) -> None:
        """Give the episode's new slots the largest priority yet, in one write.

        Nothing draws during an episode and only ``learned`` raises the
        maximum, so these are the leaves one write per step would leave."""
        new = min(env_steps - self._env_steps, self.buffer.capacity)
        self._env_steps = env_steps
        self.tree.set_raw(self.buffer.recent_slot(np.arange(new)),
                          np.array([self.tree.max_raw_priority]))
        super().episode_done(env_steps, ep_return)

    def draw(self, k: int, ep_len: int, rng: np.random.Generator) -> tuple:
        return per_sample(self.tree, self.buffer, self.cfg.batch_size, rng,
                          self.cfg.per_normalize_weights)

    def learned(self, slots: np.ndarray, td: np.ndarray) -> None:
        per_update_priorities(self.tree, slots, td)


SAMPLER_CLASSES = {"uniform": Sampler, "ere": EreSampler, "per": PerSampler, "exp": ExpSampler}
