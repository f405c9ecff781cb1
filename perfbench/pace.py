"""A fixed kernel of the benchmark's own, timed beside the program, that takes
the machine's speed out of the timed metrics.

The baseline machine is a shared VM whose speed moves by up to ~1.7x with the
load of other tenants, in spells of seconds to tens of seconds.  A kernel
timed between the program's units of work, in the same process, slows with
the machine.  Each block of the program's windows is timed against the
median tick of the same block, and a timed metric is ``NOMINAL_S`` times the
median over blocks of the block's time over its tick (``workloads.at_pace``):
it reads as on a machine that runs the kernel in ``NOMINAL_S``.  A change to
the program moves the program's time and not the kernel's, so it shows in
full.

The kernel mirrors the network math that dominates the training workloads.
Over six runs of each training workload, the blocked ratio spread by 0.05
(desk_ere) and 0.04 (paper_per_ig) of its median, against 0.23 and 0.08
unscaled.  ``analysis_counts`` is bound by memory instead, and this kernel
did not track it; it has a kernel of its own, ``MemoryPace``.
"""

from __future__ import annotations

import numpy as np

from tracing import clock

NOMINAL_S = 0.0018  # the kernel's calm time on the baseline machine
MEMORY_NOMINAL_S = 0.045  # MemoryPace's median time on the baseline machine


class Pace:
    """The reference kernel and the durations of its ticks."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((256, 64))
        self.weights = [rng.standard_normal((64, 64)) * 0.125 for _ in range(3)]
        self.acts = [np.empty((256, 64)) for _ in self.weights]
        self.grads = [np.empty((256, 64)) for _ in range(2)]
        self.mask = np.empty((256, 64), dtype=bool)
        self.times: list[float] = []

    def tick(self) -> float:
        """Run the kernel once; returns its duration in seconds.

        The mix follows the program's: small float64 matmuls, elementwise
        numpy calls and a plain Python loop.  It writes into arrays made
        once, so that the state of the process's allocator cannot move it:
        with fresh 128 KiB temporaries, as the program makes them, the tick
        read 1.5 times slower in every desk_ere process of one half hour
        than half an hour before, and than in the paper_per_ig processes
        beside them, while desk_ere's update time rose by a tenth.
        """
        t0 = clock()
        for _ in range(4):
            h = self.x
            for w, a in zip(self.weights, self.acts):
                np.matmul(h, w, out=a)
                np.maximum(a, 0.0, out=a)
                h = a
            g = h
            for i, (w, a) in enumerate(zip(reversed(self.weights), reversed(self.acts))):
                np.greater(a, 0.0, out=self.mask)
                out = self.grads[i % 2]
                np.multiply(g, self.mask, out=out)
                g = np.matmul(out, w.T, out=self.grads[(i + 1) % 2])
        total = 0
        for i in range(3000):
            total += i * i
        dt = clock() - t0
        self.times.append(dt)
        return dt


class MemoryPace:
    """A memory-bound reference kernel, for the analysis workload.

    It does a fifth of the work of one full-start ``analyze counts`` call in
    plain numpy: a dense 200 x 21,000 float64 matrix filled row by row,
    summed by column, its variances summed, and 50 bincounts of 10,000 draws.
    Its 34 MB arrays are freed before it returns and stay below the
    program's own peak, so that it leaves ``peak_rss_mb`` alone.
    """

    def __init__(self):
        self.times: list[float] = []

    def tick(self) -> float:
        """Run the kernel once; returns its duration in seconds."""
        t0 = clock()
        p = np.zeros((200, 21_000))
        for k in range(200):
            p[k, k * 50:k * 50 + 10_000] = 1e-4
        p.sum(axis=0)
        (p * (1.0 - p)).sum(axis=0)
        del p
        rng = np.random.default_rng(0)
        totals = np.zeros(21_000, dtype=np.int64)
        for _ in range(50):
            totals += np.bincount(rng.integers(0, 21_000, 10_000), minlength=21_000)
        dt = clock() - t0
        self.times.append(dt)
        return dt
