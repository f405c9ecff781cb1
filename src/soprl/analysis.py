"""Expected-sample-count analysis for the replay sampling schemes.

The reference scenario: a FIFO buffer of capacity N, one data point
arriving per step, one size-1 uniform draw per step, over ``updates``
steps.  Two starting conditions are covered:

* ``empty`` start: the buffer begins empty and the draw happens after the
  push, so the data point of step t can be drawn from step t on.  With a
  full-buffer window this yields the harmonic-tail curve
  sum_{t'=t..updates} 1/t'.
* ``full`` start: the buffer begins full of older data and the draw
  happens before the push, so the step-t data point is drawn from step
  t+1 on and one pre-existing item is evicted per step.  With a
  full-buffer window the new-data curve is the line (updates - t)/N.

Positions index every data point involved, oldest first: a full start
contributes N pre-existing points (positions 0..N-1, N-1 being the newest)
followed by the ``updates`` new points; an empty start has only the new
points.  Counting evicted points too is what makes the total mass equal
the number of draws exactly.

Shrinking-window (recency-emphasis) curves use the same bookkeeping with
the window of update k restricted to the most recent c_k items; eta = 1
reduces to the uniform curves bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .replay import EreConfig, ere_range

STARTS = ("empty", "full")


@dataclass(frozen=True)
class SamplingScenario:
    """Configuration for one expected-count computation."""

    buffer: int
    updates: int
    eta: float = 1.0
    start: str = "empty"

    def __post_init__(self):
        if self.start not in STARTS:
            raise ValueError(f"start: must be one of {STARTS}")
        if self.buffer < 1:
            raise ValueError("buffer: must be >= 1")
        if self.updates < 1:
            raise ValueError("updates: must be >= 1")
        if self.start == "empty" and self.updates > self.buffer:
            raise ValueError("updates: an empty start needs updates <= buffer")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta: must be in (0, 1]")

    @property
    def n_positions(self) -> int:
        return self.updates + (self.buffer if self.start == "full" else 0)

    def window_sizes(self) -> np.ndarray:
        """Effective window per update: min(c_k, items present at draw time),
        with c_k floored at one item."""
        return self._window_sizes.copy()

    @cached_property
    def _window_sizes(self) -> np.ndarray:
        # worked out once per instance: one analysis call reads the windows
        # three times, and each pass asks ere_range once per update
        cfg = EreConfig(eta0=self.eta, c_min=1)
        ks = np.arange(1, self.updates + 1)
        c = np.array([ere_range(int(k), self.updates, self.buffer, cfg, self.eta)
                      for k in ks])
        if self.start == "full":
            present = np.full(self.updates, self.buffer)
        else:
            present = ks  # push happens before the draw
        return np.minimum(c, present)

    def window_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Inclusive position range [lo, hi] sampled at each update."""
        w = self.window_sizes()
        ks = np.arange(1, self.updates + 1)
        if self.start == "full":
            hi = self.buffer + ks - 2  # newest item at draw time of step k
        else:
            hi = ks - 1
        return hi - w + 1, hi


def _window_sums(scn: SamplingScenario, value_of_p) -> np.ndarray:
    """Sum, in update order, of value_of_p(1/w_k) over each window k's positions:
    bitwise the column sums of the dense (updates, n_positions) form.

    The window edges (every lo and hi + 1) cut the positions into segments
    that each window covers whole or not at all, so every position of a
    segment receives the same additions in the same order.  One running sum
    per segment, added in update order and repeated over the segment's
    length, is therefore bitwise each position's column sum.
    """
    lo, hi = scn.window_bounds()
    values = value_of_p(1.0 / (hi - lo + 1).astype(np.float64))
    edges = np.sort(np.concatenate(([0, scn.n_positions], lo, hi + 1)))
    edges = edges[np.diff(edges, prepend=-1) > 0]  # np.unique imports numpy.ma, ~20 ms
    seg = np.zeros(edges.size - 1)
    for a, b, v in zip(np.searchsorted(edges, lo).tolist(),
                       np.searchsorted(edges, hi + 1).tolist(), values.tolist()):
        seg[a:b] += v
    return np.repeat(seg, np.diff(edges))


def expected_counts(scn: SamplingScenario) -> np.ndarray:
    """Exact expected number of draws per data position."""
    return _window_sums(scn, lambda p: p)


def count_variances(scn: SamplingScenario) -> np.ndarray:
    """Exact per-position variance of the count over one scenario run."""
    return _window_sums(scn, lambda p: p * (1.0 - p))


def empirical_counts(scn: SamplingScenario, trials: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo mean counts and the exact standard error of that mean.

    Each trial replays the scenario once; draws are vectorized across
    trials per update step.
    """
    if trials < 1:
        raise ValueError("trials: must be >= 1")
    lo, hi = scn.window_bounds()
    w = hi - lo + 1
    totals = np.zeros(scn.n_positions, dtype=np.int64)
    # counted in place: a bincount per update allocates a full-length array, and
    # where malloc maps fresh pages for each one a full-start call ran ~40% slower
    for k in range(scn.updates):
        np.add.at(totals, hi[k] - rng.integers(0, w[k], size=trials), 1)
    sigma = np.sqrt(count_variances(scn) / trials)
    return totals / trials, sigma

