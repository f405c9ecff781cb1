"""Instrumentation installed from outside soprl, and removed again.

Two layers of it:

* ``UpdateProbe`` — the only hook in an untraced run.  It time-stamps the end
  of every ``PerfTracker.update`` (an episode ended; its update phase starts)
  and the end of every ``agent.soft_update_targets`` (one update finished).
  Consecutive update stamps with no phase stamp between them bound exactly
  one update.
* ``Tracer`` — spans around every public function and public method of the
  traced soprl modules.  Each span records name, start, end and parent; spans
  stay in memory and are written out once at the end.

Both patch module and class attributes and put back the very objects they
replaced; ``uninstall`` reports whether every attribute is the original again.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("nets", "actions", "agent", "replay", "envs", "harness", "analysis", "cli")

clock = time.perf_counter
PROBE_CAPACITY = 1 << 20  # stamps of one training run
SPAN_CAPACITY = 1 << 22  # spans of one traced run


class Patches:
    """Attribute replacements that can be undone and verified.

    ``undo`` puts back the very objects that were replaced and reports
    whether every attribute is the original again.
    """

    def __init__(self):
        self._done: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, new) -> None:
        self._done.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def undo(self) -> bool:
        for owner, attr, original in reversed(self._done):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._done)
        self._done.clear()
        return restored


class UpdateProbe:
    """Phase-start and update-end timestamps of ``train()``.

    Stamps go into arrays allocated once, so that recording them adds no
    allocations to the program's heap while it runs.  With a ``Pace``, the
    probe ticks it at every phase start, keeps the tick's duration with the
    stamp, and stamps on a clock that stands still during the ticks
    (``now``), so that no window holds a tick.
    """

    PHASE, UPDATE = 0, 1

    def __init__(self, pace=None):
        self.kind = np.zeros(PROBE_CAPACITY, dtype=np.int8)
        self.time = np.zeros(PROBE_CAPACITY)
        self.tick = np.zeros(PROBE_CAPACITY)  # pace tick before a phase start
        self.count = [0]
        self.paused = [0.0]  # seconds spent in pace ticks
        self.pace = pace
        self.tracker = None  # the last PerfTracker seen, for its length
        self._patches = Patches()

    def now(self) -> float:
        return clock() - self.paused[0]

    def install(self) -> None:
        from soprl import agent, replay
        kind, stamp, ticks, count, paused, pace = (self.kind, self.time, self.tick, self.count,
                                                   self.paused, self.pace)
        polyak = agent.soft_update_targets
        tracker_update = replay.PerfTracker.update

        @functools.wraps(polyak)
        def update_end(*args, **kwargs):
            out = polyak(*args, **kwargs)
            stamp[count[0]] = clock() - paused[0]
            kind[count[0]] = self.UPDATE
            count[0] += 1
            return out

        @functools.wraps(tracker_update)
        def phase_start(tracker, *args, **kwargs):
            out = tracker_update(tracker, *args, **kwargs)
            ticks[count[0]] = 0.0 if pace is None else pace.tick()
            paused[0] += ticks[count[0]]
            stamp[count[0]] = clock() - paused[0]
            kind[count[0]] = self.PHASE
            count[0] += 1
            self.tracker = tracker
            return out

        self._patches.set(agent, "soft_update_targets", update_end)
        self._patches.set(replay.PerfTracker, "update", phase_start)

    def uninstall(self) -> bool:
        return self._patches.undo()

    def take(self) -> "ProbeLog":
        n = self.count[0]
        self.count[0] = 0
        return ProbeLog(self.kind[:n] == self.UPDATE, self.time[:n].copy(),
                        self.tick[:n].copy())


class ProbeLog:
    """The probe stamps of one training run, in order, and the pace ticks."""

    def __init__(self, is_update: np.ndarray, times: np.ndarray, ticks: np.ndarray):
        self.is_update = is_update
        self.times = times
        self.ticks = ticks

    def update_phases(self) -> list[tuple[float, list[tuple[float, float]]]]:
        """Per update phase, the pace tick before it and (start, end) of each
        update after the first.

        The first update of a phase is left out: the gap before it spans the
        episode's environment steps and any evaluation.
        """
        phases, prev, tick = [], None, 0.0
        for is_update, t, dt in zip(self.is_update.tolist(), self.times.tolist(),
                                    self.ticks.tolist()):
            if not is_update:
                prev, tick = None, dt
                continue
            if prev is None:
                phases.append((tick, []))
            else:
                phases[-1][1].append((prev, t))
            prev = t
        return [phase for phase in phases if phase[1]]

    def episode_windows(self) -> list[tuple[float, float, int, float]]:
        """(start, end, updates, tick) between consecutive phase starts that
        enclose updates, with the pace tick before the start.

        Such a window holds one episode's update phase and the next episode's
        environment steps: the steady state of training.
        """
        phase = np.flatnonzero(~self.is_update)
        counts = np.diff(phase) - 1
        return [(float(self.times[a]), float(self.times[b]), int(n), float(self.ticks[a]))
                for a, b, n in zip(phase[:-1], phase[1:], counts) if n > 0]

    def n_updates(self) -> int:
        return int(self.is_update.sum())

    def first_phase_start(self) -> float | None:
        """Stamp of the phase start that opens the first update phase."""
        opens = np.flatnonzero(~self.is_update[:-1] & self.is_update[1:])
        return float(self.times[opens[0]]) if opens.size else None


def _matmul_cost(params, rows: int, passes: int) -> tuple[int, int]:
    """Flops and operand+result bytes of ``passes`` matmuls per layer."""
    flops = nbytes = 0
    for w in params.weights:
        fan_in, fan_out = w.shape
        flops += 2 * rows * fan_in * fan_out
        nbytes += 8 * (rows * fan_in + fan_in * fan_out + rows * fan_out)
    return passes * flops, passes * nbytes


# the nets kernels whose matmul work is computed from their arguments
COSTED = ("nets.mlp_forward_cached", "nets.mlp_backward_cached", "nets.mlp_input_grad")


def _nets_cost(name: str, args) -> tuple[int, int]:
    """Computed matmul flops and bytes of one call of a COSTED kernel.

    A forward is one matmul per layer, the cached backward two (weight and
    input gradient), the input-only gradient one.
    """
    if name == "nets.mlp_forward_cached":
        x = np.asarray(args[1])
        return _matmul_cost(args[0], 1 if x.ndim == 1 else x.shape[0], 1)
    passes = 2 if name == "nets.mlp_backward_cached" else 1
    return _matmul_cost(args[0], args[1].x.shape[0], passes)


class Tracer:
    """Spans around the public functions and methods of the soprl layers.

    Span fields live in arrays allocated once (see UpdateProbe for why).
    The wrappers are made at the first ``install``, while nothing else is
    patched, and reused by every later one, so that the tracer can be put on
    and taken off between units of work.
    """

    def __init__(self):
        self.table: list[str] = []
        self.name = np.zeros(SPAN_CAPACITY, dtype=np.int32)
        self.start = np.zeros(SPAN_CAPACITY)
        self.end = np.zeros(SPAN_CAPACITY)
        self.parent = np.zeros(SPAN_CAPACITY, dtype=np.int32)
        self.flops = np.zeros(SPAN_CAPACITY, dtype=np.int64)
        self.nbytes = np.zeros(SPAN_CAPACITY, dtype=np.int64)
        self.count = [0]
        self._stack: list[int] = [-1] * 64
        self._depth = [0]
        self._plan: list[tuple[object, str, object]] | None = None
        self._patches = Patches()

    def _wrap(self, name: str, fn):
        self.table.append(name)
        name_id = len(self.table) - 1
        names, start, end, parent = self.name, self.start, self.end, self.parent
        flops, nbytes, count, stack, depth = (self.flops, self.nbytes, self.count,
                                              self._stack, self._depth)
        costed = name in COSTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = count[0]
            count[0] = idx + 1
            d = depth[0]
            names[idx] = name_id
            parent[idx] = stack[d - 1] if d else -1
            stack[d] = idx
            depth[0] = d + 1
            if costed:
                flops[idx], nbytes[idx] = _nets_cost(name, args)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[0] = d
        return traced

    def _targets(self) -> dict[int, tuple[object, str]]:
        """Every public function of the traced layers, keyed by identity."""
        found: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"soprl.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    found[id(obj)] = (obj, f"{layer}.{obj.__qualname__}")
        return found

    def _make_plan(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every binding the tracer replaces."""
        plan = []
        targets = self._targets()
        wrapped = {key: self._wrap(name, obj) for key, (obj, name) in targets.items()}
        # functions: every module-level binding, including `from .x import f` copies
        for modname, mod in list(sys.modules.items()):
            if modname != "soprl" and not modname.startswith("soprl."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and obj is targets[id(obj)][0]:
                    plan.append((mod, attr, wrapped[id(obj)]))
        # methods: patched once on the class that defines them
        for layer in LAYERS:
            mod = sys.modules[f"soprl.{layer}"]
            for cls in vars(mod).values():
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for attr, member in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{cls.__name__}.{attr}"
                    if isinstance(member, (staticmethod, classmethod)):
                        new = type(member)(self._wrap(name, member.__func__))
                    elif inspect.isfunction(member) and not inspect.isgeneratorfunction(member):
                        new = self._wrap(name, member)
                    else:
                        continue
                    plan.append((cls, attr, new))
        return plan

    def install(self) -> None:
        if self._plan is None:
            self._plan = self._make_plan()
        for owner, attr, new in self._plan:
            self._patches.set(owner, attr, new)

    def uninstall(self) -> bool:
        return self._patches.undo()

    def arrays(self) -> dict[str, np.ndarray]:
        n = self.count[0]
        parent = self.parent[:n].astype(np.int64)
        dur = self.end[:n] - self.start[:n]
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": np.array(self.table, dtype=object)[self.name[:n]],
                "start": self.start[:n], "end": self.end[:n], "parent": parent,
                "dur": dur, "self": dur - child,
                "flops": self.flops[:n], "bytes": self.nbytes[:n]}

    def write(self, path) -> None:
        n = self.count[0]
        with open(path, "w") as fh:
            json.dump({"names": self.table, "name": self.name[:n].tolist(),
                       "start": self.start[:n].tolist(), "end": self.end[:n].tolist(),
                       "parent": self.parent[:n].tolist()}, fh)


# self time inside an update, by the nets kernel it belongs to
NETS_PARTS = {
    "nets.forward_ms": ("nets.mlp_forward", "nets.mlp_forward_cached"),
    "nets.backward_ms": ("nets.mlp_backward_cached", "nets.mlp_backward",
                         "nets.zeros_like_params"),
    "nets.input_grad_ms": ("nets.mlp_input_grad",),
    "nets.adam_ms": ("nets.adam_step", "nets.MlpParams.check_finite"),
}
ACTIONS_PARTS = {
    "actions.normalize_ms": "actions.normalize_output",
    "actions.normalize_vjp_ms": "actions.normalize_output_vjp",
    "actions.squash_grad_ms": "actions.squash_grad",
    "actions.invert_gradients_ms": "actions.invert_gradients",
    "actions.clip_ms": "actions.clip_action",
}
# inclusive time inside an update
AGENT_PHASES = {
    "agent.targets_ms": "agent.SopAgent.compute_q_targets",
    "agent.critic_ms": "agent.SopAgent.q_update",
    "agent.actor_ms": "agent.SopAgent.policy_update",
    "agent.polyak_ms": "agent.soft_update_targets",
}
# inclusive time per call, in microseconds
PER_CALL_US = {
    "agent.act_us": "agent.SopAgent.act",
    "replay.push_us": "replay.ReplayBuffer.push",
    "replay.sample_uniform_us": "replay.sample_uniform",
    "replay.sample_ere_us": "replay.sample_ere",
    "replay.sample_exp_us": "replay.sample_exponential",
    "replay.gather_us": "replay.ReplayBuffer.gather",
    "replay.priority_write_us": "replay.per_update_priorities",
    "envs.step_us": "envs.ToyEnv.step",
    "envs.reset_us": "envs.ToyEnv.reset",
}
ANALYSIS_EXACT = ("analysis.probability_matrix", "analysis.expected_counts",
                  "analysis.count_variances", "analysis.SamplingScenario.window_sizes",
                  "analysis.SamplingScenario.window_bounds")


def layer_metrics(tracer: Tracer, units: list[tuple[float, float]],
                  extra: dict[str, float]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from the spans of a traced run.

    ``units`` are the (start, end) intervals of the workload's unit of work:
    updates of train(), rounds of replay traffic, or analysis passes.
    "Per update" figures are means over those intervals; a span belongs to
    one when it lies wholly inside it.  Returns the metrics and the per-layer
    self-time breakdown of one unit (which, with the untraced remainder, adds
    up to the unit's wall time).
    """
    sp = tracer.arrays()
    names, dur, own, parent = sp["name"], sp["dur"], sp["self"], sp["parent"]
    n_spans = names.size
    n_units = max(len(units), 1)
    t0 = np.array([u[0] for u in units])
    t1 = np.array([u[1] for u in units])
    slot = np.searchsorted(t0, sp["start"], side="right") - 1
    inside = np.zeros(n_spans, dtype=bool)
    ok = slot >= 0
    inside[ok] = sp["end"][ok] <= t1[slot[ok]]
    layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)

    def mask(*wanted: str) -> np.ndarray:
        return np.isin(names, wanted) if n_spans else np.zeros(0, dtype=bool)

    def per_unit_ms(values: np.ndarray, sel: np.ndarray) -> float:
        return float(values[sel & inside].sum()) * 1e3 / n_units

    def per_call(sel: np.ndarray, values: np.ndarray = dur) -> float:
        return float(values[sel].mean()) if sel.any() else 0.0

    m: dict[str, float] = {}
    nets = layer == "nets"
    for key, parts in NETS_PARTS.items():
        m[key] = per_unit_ms(own, mask(*parts))
    m["nets.ms_per_update"] = per_unit_ms(own, nets)
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], "")
    m["nets.calls_per_update"] = float((nets & inside & (parent_layer != "nets")).sum()) / n_units
    m["nets.flops_per_update"] = float(sp["flops"][inside].sum()) / n_units
    m["nets.bytes_per_update"] = float(sp["bytes"][inside].sum()) / n_units
    nets_s = m["nets.ms_per_update"] / 1e3
    m["nets.gflops"] = m["nets.flops_per_update"] / nets_s / 1e9 if nets_s > 0 else 0.0

    m["actions.ms_per_update"] = per_unit_ms(own, layer == "actions")
    for key, name in ACTIONS_PARTS.items():
        m[key] = per_unit_ms(own, mask(name))

    for key, name in AGENT_PHASES.items():
        m[key] = per_unit_ms(dur, mask(name))
    m["agent.self_ms"] = per_unit_ms(own, layer == "agent")
    m["agent.eval_ms"] = per_call(mask("agent.evaluate_policy")) * 1e3

    m["replay.ms_per_update"] = per_unit_ms(own, layer == "replay")
    for key, name in PER_CALL_US.items():
        m[key] = per_call(mask(name)) * 1e6
    inserts = mask("replay.SumTree.set_raw") & (
        names[np.maximum(parent, 0)] != "replay.per_update_priorities")
    m["replay.insert_priority_us"] = per_call(inserts) * 1e6
    per = np.flatnonzero(mask("replay.per_sample"))
    gathers = mask("replay.ReplayBuffer.gather")
    gather_in = np.zeros(n_spans)
    np.add.at(gather_in, parent[gathers], dur[gathers])
    m["replay.sample_per_us"] = (float((dur[per] - gather_in[per]).mean()) * 1e6
                                 if per.size else 0.0)
    n_tracker = int(mask("replay.PerfTracker.update").sum())
    tracker_s = float(dur[mask("replay.PerfTracker.update", "replay.adapt_eta")].sum())
    m["replay.tracker_us"] = tracker_s / n_tracker * 1e6 if n_tracker else 0.0
    m["replay.tree_rebuilds"] = float(mask("replay.SumTree.rebuild").sum()) * 1000.0 / n_units

    n_runs = int(mask("harness.run_experiment").sum())
    csv_s = float(dur[mask("harness.write_seed_csv", "harness.write_aggregate_csv")].sum())
    m["harness.parse_ms"] = per_call(mask("harness.parse_config")) * 1e3
    m["harness.csv_write_ms"] = csv_s / n_runs * 1e3 if n_runs else 0.0

    n_calls = int(mask("cli.main").sum())
    exact_s = float(own[mask(*ANALYSIS_EXACT)].sum())
    mc_s = float(own[mask("analysis.empirical_counts")].sum())
    m["analysis.exact_ms"] = exact_s / n_calls * 1e3 if n_calls else 0.0
    m["analysis.mc_ms"] = mc_s / n_calls * 1e3 if n_calls else 0.0

    wall_ms = float((t1 - t0).sum()) * 1e3 / n_units if units else 0.0
    covered_ms = per_unit_ms(own, np.ones(n_spans, dtype=bool))
    m["trace.update_wall_ms"] = wall_ms
    m["trace.self_sum_frac"] = covered_ms / wall_ms if wall_ms > 0 else 0.0
    m["trace.spans_per_update"] = float(inside.sum()) / n_units
    m.update(extra)

    breakdown = {name: per_unit_ms(own, layer == name) for name in LAYERS}
    breakdown["untraced"] = wall_ms - covered_ms
    return m, breakdown
