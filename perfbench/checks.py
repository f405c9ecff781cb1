"""Correctness checks on soprl's outputs, computed independently of it.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
from pathlib import Path

import numpy as np

from tracing import Patches


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_sha256(out_dir: Path) -> str:
    """Fingerprint of every CSV a run wrote, in name order."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_training_csv(path: Path, sampler: str) -> list[str]:
    """Every value is a finite number; eta_current is filled only for ERE."""
    rows = read_csv(path)
    errors = [] if rows else [f"{path.name}: no rows"]
    for i, row in enumerate(rows):
        for key, text in row.items():
            if key == "eta_current" and sampler != "ere":
                if text != "":
                    errors.append(f"{path.name} row {i}: eta_current set for {sampler}")
                continue
            try:
                ok = math.isfinite(float(text))
            except ValueError:
                ok = False
            if not ok:
                errors.append(f"{path.name} row {i}: {key}={text!r} is not finite")
    return errors


def ere_window(k: int, k_upd: int, capacity: int, size: int, cfg, eta: float,
               batch: int) -> int:
    """c_k = N * eta^(k * 1000 / K), floored at c_min, capped at the fill."""
    c = int(round(capacity * eta ** (k * cfg.phase_norm / k_upd)))
    return min(max(cfg.resolved_c_min(capacity, batch), c), size)


def check_slots(buffer, slots: np.ndarray, window: int | None = None) -> list[str]:
    """Slots hold data, and (for ERE) lie within the most recent ``window``."""
    slots = np.asarray(slots)
    if slots.size == 0:
        return ["empty batch"]
    if slots.min() < 0 or slots.max() >= buffer.capacity:
        return [f"slot out of range [0, {buffer.capacity})"]
    recency = (buffer.cursor - 1 - slots) % buffer.capacity
    limit = buffer.size if window is None else window
    if recency.max() >= limit:
        return [f"slot with recency {int(recency.max())} outside window {limit}"]
    return []


def check_weights(weights: np.ndarray) -> list[str]:
    w = np.asarray(weights)
    if not (np.all(np.isfinite(w)) and np.all(w > 0.0) and np.all(w <= 1.0)):
        return ["PER importance weight outside (0, 1]"]
    return []


def check_tree(tree) -> list[str]:
    """Every internal sum-tree node equals exactly the sum of its children."""
    parents = np.arange(tree.n_leaves - 1)
    nodes = tree.nodes
    if not np.array_equal(nodes[parents], nodes[2 * parents + 1] + nodes[2 * parents + 2]):
        return ["sum-tree parent differs from the sum of its children"]
    return []


class _NullAgent:
    """The do-nothing policy: a zero action everywhere."""

    def __init__(self, action_dim: int):
        self.zero = np.zeros(action_dim)

    def policy_mu(self, state):
        return self.zero, self.zero

    def act(self, state, mode="explore", rng=None):
        return self.zero.copy()


class TrainingChecks:
    """Hooks for one checked training run.

    They validate every batch the samplers return, keep the PER sum tree
    for a check at the end, and score the do-nothing policy on the start
    states of every evaluation.  None of them consumes a random number or
    changes program state, so the run's CSVs must not change.
    """

    def __init__(self):
        self.errors: list[str] = []
        self.trees: list = []
        self.evals: list[tuple[float, float]] = []  # (agent mean, do-nothing mean)
        self._patches = Patches()

    def install(self) -> None:
        from soprl import agent, replay
        errors = self.errors

        def slot_check(fn, window_of=None):
            @functools.wraps(fn)
            def checked(buffer, *args, **kwargs):
                slots = fn(buffer, *args, **kwargs)
                window = window_of(buffer, *args) if window_of else None
                errors.extend(check_slots(buffer, slots, window))
                return slots
            return checked

        def ere_of(buffer, k, k_upd, cfg, eta, batch, rng):
            return ere_window(k, k_upd, buffer.capacity, buffer.size, cfg, eta, batch)

        per_sample = replay.per_sample

        @functools.wraps(per_sample)
        def per_checked(tree, buffer, *args, **kwargs):
            batch, slots, weights = per_sample(tree, buffer, *args, **kwargs)
            errors.extend(check_slots(buffer, slots))
            errors.extend(check_weights(weights))
            if not any(t is tree for t in self.trees):
                self.trees.append(tree)
            return batch, slots, weights

        evaluate = agent.evaluate_policy

        @functools.wraps(evaluate)
        def scored(ag, env, rollouts, seed):
            out = evaluate(ag, env, rollouts, seed)
            null_mean, _, _ = evaluate(_NullAgent(ag.action_dim), env, rollouts, seed)
            self.evals.append((out[0], null_mean))
            return out

        self._patches.set(replay, "sample_uniform", slot_check(replay.sample_uniform))
        self._patches.set(replay, "sample_ere", slot_check(replay.sample_ere, ere_of))
        self._patches.set(replay, "sample_exponential",
                          slot_check(replay.sample_exponential))
        self._patches.set(replay, "per_sample", per_checked)
        self._patches.set(agent, "evaluate_policy", scored)

    def uninstall(self) -> bool:
        return self._patches.undo()

    def final_errors(self, final_return: float) -> list[str]:
        errors = list(self.errors)
        for tree in self.trees:
            errors.extend(check_tree(tree))
        if not self.evals:
            return errors + ["no evaluation ran"]
        agent_mean, null_mean = self.evals[-1]
        if agent_mean != final_return:
            errors.append("final CSV return differs from the evaluation's")
        if not agent_mean > null_mean:
            errors.append(f"final return {agent_mean:.4f} does not beat the "
                          f"do-nothing policy's {null_mean:.4f}")
        return errors


COUNT_BLOCKS = 20  # blocks of positions the Monte-Carlo counts are compared on
Z_MAX = 6.0  # standard errors a block may be off by


def check_counts_csv(path: Path, updates: int) -> list[str]:
    """Analytic mass equals the number of draws; Monte-Carlo agrees with it.

    Per-position sigmas overstate the error of a block sum (within one update
    the draws on different positions are negatively correlated), so the
    root-sum-square of a block's sigmas is a conservative standard error.
    Blocks keep the normal approximation valid where single positions see
    only a handful of draws.
    """
    rows = read_csv(path)
    a = np.array([float(r["analytic"]) for r in rows])
    e = np.array([float(r["empirical_mean"]) for r in rows])
    s = np.array([float(r["empirical_sigma"]) for r in rows])
    errors = []
    if not abs(a.sum() - updates) <= 1e-9 * updates:
        errors.append(f"{path.name}: analytic mass {a.sum()!r} != {updates} draws")
    if not abs(e.sum() - updates) <= 1e-9 * updates:
        errors.append(f"{path.name}: empirical mass {e.sum()!r} != {updates} draws")
    exact = s == 0.0
    if np.any(np.abs(e[exact] - a[exact]) > 1e-9):
        errors.append(f"{path.name}: a zero-variance position disagrees")
    for idx in np.array_split(np.arange(a.size), COUNT_BLOCKS):
        se = math.sqrt(float(np.sum(s[idx] ** 2)))
        diff = abs(float(np.sum(e[idx] - a[idx])))
        if diff > Z_MAX * se + 1e-9:
            errors.append(f"{path.name}: block at {idx[0]} off by {diff:.3g} "
                          f"> {Z_MAX} x {se:.3g}")
    return errors
