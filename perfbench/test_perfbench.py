"""Tests of the benchmark itself: python -m pytest perfbench -q

They check that the instrumentation leaves the program's outputs
byte-identical and every patched attribute restored, that each workload's
correctness checks pass at a small size, that the checks catch the faults
they are meant to catch, that pacing cancels the machine's speed but not
the program's, that a cost the program pays once per period is not left
out of the timed metrics, and that no pace tick lands in a timed window.
The last two compare timings, with injected sleeps far above the machine's
noise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import soprl.cli  # noqa: E402,F401 - every layer loaded, as run.py loads them
from checks import (check_counts_csv, check_slots, check_tree, csv_sha256,  # noqa: E402
                    ere_window)
from pace import NOMINAL_S, Pace  # noqa: E402
from soprl import harness, replay  # noqa: E402
from tracing import LAYERS, Tracer, UpdateProbe  # noqa: E402
from workloads import (TRAINING, AnalysisSpec, ReplaySpec, at_pace, calm_share,  # noqa: E402
                       run_analysis, run_replay, run_training, whole_periods)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
TINY = {"env": "pointmass2d", "variant": "sop_ig", "sampler": "per", "hidden": 16,
        "batch": 32, "buffer": 4096, "steps": 400, "eval_interval": 200, "warmup": 200}


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every soprl module and class, by identity."""
    out = {}
    for modname, mod in sys.modules.items():
        if modname == "soprl" or modname.startswith("soprl."):
            for attr, obj in vars(mod).items():
                out[(modname, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == modname:
                    for member, value in vars(obj).items():
                        out[(f"{modname}.{attr}", member)] = value
    return out


def _train(out: Path) -> str:
    harness.run_experiment(harness.parse_config({**TINY, "seeds": (3,), "out": str(out)}))
    return csv_sha256(out)


def test_traced_and_untraced_csvs_are_identical_and_hooks_removed(tmp_path):
    before = _bindings()
    plain = _train(tmp_path / "plain")
    probe, tracer = UpdateProbe(), Tracer()
    tracer.install()
    probe.install()
    traced = _train(tmp_path / "traced")
    assert probe.uninstall() and tracer.uninstall()
    after = _bindings()
    assert plain == traced
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    names = set(tracer.arrays()["name"])
    assert {"nets.mlp_forward_cached", "agent.SopAgent.q_update", "replay.per_sample",
            "envs.ToyEnv.step", "harness.write_seed_csv"} <= names
    assert {name.split(".")[0] for name in names} <= set(LAYERS)


class SleepyPace(Pace):
    """A pace kernel slow enough that a window holding a tick would show it."""

    def tick(self) -> float:
        t0 = time.perf_counter()
        time.sleep(0.5)
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]


def test_probe_sees_every_update_and_no_pace_tick(tmp_path):
    pace = SleepyPace()
    probe = UpdateProbe(pace)
    probe.install()
    _train(tmp_path / "run")
    assert probe.uninstall()
    log = probe.take()
    episodes = (TINY["steps"] - TINY["warmup"]) // 100  # pointmass2d horizon
    assert log.n_updates() == episodes * 100
    phases = log.update_phases()
    assert [len(phase) for _, phase in phases] == [99] * episodes
    assert all(t1 > t0 for _, phase in phases for t0, t1 in phase)
    # the last update phase has no following phase start to close its window
    windows = log.episode_windows()
    assert [n for _, _, n, _ in windows] == [100] * (episodes - 1)
    assert len(pace.times) == TINY["steps"] // 100  # a tick at every episode's end
    assert all(t1 - t0 < 0.5 for t0, t1, _, _ in windows)
    # each phase and window carries the tick taken just before it
    assert [tick for tick, _ in phases] == pace.times[-episodes:]
    assert [tick for *_, tick in windows] == pace.times[-episodes:-1]


def test_desk_workload_untraced_and_traced(tmp_path):
    for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
        out = run_training("desk_ere", TRAINING["desk_ere"], 5, 0.0, trace, tmp_path, 0.1)
        assert out.errors == []
        assert set(out.metrics) == names
        assert out.failed == 0
    assert out.metrics["trace.self_sum_frac"] > 0.9
    assert out.metrics["nets.calls_per_update"] == 14


def test_replay_and_analysis_workloads_small(tmp_path):
    small = ReplaySpec(capacity=20_000, pool=1000, batch=32, setup_reps=1)
    counts = AnalysisSpec(buffer=400, updates=100, trials=2000, setup_reps=1)
    for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
        out = run_replay(2, 0.0, trace, tmp_path, 0.1, small)
        assert out.errors == [] and set(out.metrics) == names
        out = run_analysis(2, 0.0, trace, tmp_path, 0.1, counts)
        assert out.errors == [] and set(out.metrics) == names
    assert np.isfinite(out.metrics["trace.overhead_frac"])


def test_whole_periods_keep_a_periodic_cost():
    # one window in four pays an extra cost, as a sum-tree rebuild does
    times = [1.0, 1.0, 1.0, 5.0] * 10
    assert set(calm_share(times, key=float)) == {1.0}  # the costly windows are left out
    blocks = whole_periods(times, [1] * len(times), 4)
    assert len(blocks) == 10
    assert [sum(block) for block in calm_share(blocks, key=sum)] == [8.0]
    assert whole_periods([1.0, 2.0, 3.0], [1, 1, 1], 2) == [[1.0, 2.0]]
    assert whole_periods([1.0, 2.0], [5, 5], 0) == [[1.0], [2.0]]


def test_pace_cancels_the_machine_and_keeps_the_program():
    # windows run in a slow spell take longer and so do the ticks beside them
    windows = [(1.0, 0.002), (1.5, 0.003), (1.0, 0.002), (2.0, 0.004), (1.0, 0.002)]
    paced, plain = at_pace(windows)
    assert paced == pytest.approx(NOMINAL_S * 500) and plain == 1.0
    slower, _ = at_pace([(1.2 * t, tick) for t, tick in windows])  # the program slows
    assert slower == pytest.approx(1.2 * paced)
    assert whole_periods([1, 2, 3, 4, 5], [1] * 5, 2, min_windows=3) == [[1, 2, 3]]


def test_a_slower_tree_rebuild_lowers_batches_per_s(tmp_path, monkeypatch):
    class OftenRebuilt(replay.SumTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs, rebuild_every=5_000)

    class SlowRebuild(OftenRebuilt):
        def rebuild(self):
            time.sleep(0.3)
            super().rebuild()

    small = ReplaySpec(capacity=20_000, pool=1000, batch=32, setup_reps=1)
    rates = {}
    for tree in (OftenRebuilt, SlowRebuild):
        monkeypatch.setattr(replay, "SumTree", tree)
        out = run_replay(2, 1.0, False, tmp_path, 0.1, small)
        assert out.errors == []
        rates[tree] = out.metrics["batches_per_s"]
    assert rates[SlowRebuild] < 0.8 * rates[OftenRebuilt]


def test_checks_catch_faults(tmp_path):
    tree = replay.SumTree(100)
    tree.set_raw(np.arange(100), np.linspace(0.5, 2.0, 100))
    assert check_tree(tree) == []
    tree.nodes[0] += 1e-9
    assert check_tree(tree) != []

    buf = replay.ReplayBuffer(1000, 1, 1)
    for i in range(600):
        buf.push(replay.Transition(np.zeros(1), np.zeros(1), 0.0, np.zeros(1), False))
    cfg = replay.EreConfig()
    window = ere_window(50, 50, 1000, buf.size, cfg, 0.9, 1)
    newest = buf.recent_slot(np.arange(window))
    assert check_slots(buf, newest, window) == []
    assert check_slots(buf, buf.recent_slot(np.array([window])), window) != []
    assert check_slots(buf, np.array([700])) != []  # a slot never written

    out = tmp_path / "counts.csv"
    soprl.cli.main(["analyze", "counts", "--scheme", "ere_full", "--buffer", "300",
                    "--updates", "100", "--trials", "2000", "--out", str(out)])
    assert check_counts_csv(out, 100) == []
    lines = out.read_text().splitlines()
    for row, shift in ((150, 0.5), (350, -0.5)):  # the total mass is unchanged
        idx, a, e, s = lines[row].split(",")
        lines[row] = ",".join([idx, a, repr(float(e) + shift), s])
    out.write_text("\n".join(lines) + "\n")
    errors = check_counts_csv(out, 100)
    assert errors and all("block" in err for err in errors)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "desk_ere",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
