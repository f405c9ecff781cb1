"""The four benchmark workloads, driven through soprl's public entry points.

Every workload is a closed loop with one caller: each operation starts when
the previous one has returned.  README.md says why each workload exists and
what it should and should not move.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (TrainingChecks, check_counts_csv, check_slots, check_training_csv,
                    check_tree, check_weights, csv_sha256, ere_window, file_sha256)
from soprl.agent import AgentConfig
from pace import MEMORY_NOMINAL_S, NOMINAL_S, MemoryPace, Pace
from soprl.envs import make_env
from tracing import Tracer, UpdateProbe, clock, layer_metrics

TRAINING = {
    # the ROADMAP desk config, trained as acceptance criterion 7 trains it
    "desk_ere": {"env": "pointmass1d", "variant": "sop", "sampler": "ere",
                 "hidden": 64, "batch": 256, "buffer": 20_000,
                 "steps": 2000, "eval_interval": 1000},
    # paper-size PER buffer, the inverting-gradients head, 2-D actions
    "paper_per_ig": {"env": "pointmass2d", "variant": "sop_ig", "sampler": "per",
                     "hidden": 64, "batch": 256, "buffer": 1_000_000,
                     "steps": 2000, "eval_interval": 1000},
}
MIN_TRAINING_RUNS = 2  # timed runs, at least: a traced run needs an untraced and a traced one
CALM_SHARE = 0.1  # share of a run's windows the calm-window statistics are taken over
TAIL_SAMPLES = 1000  # samples, at least, in the windows behind a p99
CALM_UPDATES = 500  # updates, at least, in the calm update phases behind a p90
SETUP_TICKS = 5  # pace ticks after each replay_1m fill, whose median times the fill
PACE_BLOCK = 5  # windows, at least, in a block timed against its pace ticks
PASS_TICKS = 2  # memory pace ticks before each analysis pass
# replay_1m replays train()'s traffic for paper_per_ig's environment and the
# program's own hyperparameters (samplers, PER exponents, priority inserts)
AGENT = AgentConfig()
REPLAY_ENV = make_env("pointmass2d").spec


@dataclass(frozen=True)
class ReplaySpec:
    capacity: int = 1_000_000
    batch: int = AGENT.batch_size
    pool: int = 4000  # distinct transitions pushed in turn; a multiple of the horizon
    setup_reps: int = 3


@dataclass(frozen=True)
class AnalysisSpec:
    buffer: int = 20_000
    updates: int = 1000
    trials: int = 10_000
    setup_reps: int = 3


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    report: list[str] = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_gflops() -> float:
    """Rate of one 256x64 @ 64x64 float64 matmul, median of 5 timings of 400 calls."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((256, 64)), rng.standard_normal((64, 64))
    out = np.empty((256, 64))
    times = []
    for _ in range(5):
        t0 = clock()
        for _ in range(400):
            np.matmul(a, b, out=out)
        times.append((clock() - t0) / 400)
    return 2 * 256 * 64 * 64 / statistics.median(times) / 1e9


def _percentile_ms(windows: list[list[float]], q: float) -> float:
    """The q-th percentile of all samples of the windows."""
    return float(np.percentile(np.concatenate(windows), q)) * 1e3


def _p99_ms(windows: list[list[float]]) -> float:
    """Median of the windows' own p99s.

    A pooled p99 rests on its few largest samples, which the machine's other
    tenants pick as much as the program does; the median of per-window p99s
    is the tail a typical window shows.
    """
    return float(np.median([np.percentile(w, 99) for w in windows])) * 1e3


def calm_share(windows: list, key=statistics.median, min_samples: int = 0) -> list:
    """The fastest tenth (at least one) of a run's time windows, by ``key``.

    On a shared machine the speed of the whole machine changes with the load
    of other tenants, so a plain median over a run reads whichever state the
    run fell into.  The windows that ran fastest follow the program more
    than the neighbours.  They time the analysis calls, whose two slow
    schemes jump between two speed levels from call to call, the tails in
    the report, and both sides of a traced run's overhead.  With
    ``min_samples``, further windows (lists of samples) are taken until they
    hold at least that many samples.
    """
    ranked = sorted(windows, key=key)
    n = max(1, round(len(ranked) * CALM_SHARE))
    while min_samples and n < len(ranked) and sum(map(len, ranked[:n])) < min_samples:
        n += 1
    return ranked[:n]


def whole_periods(windows: list, work: list[int], period: int,
                  min_windows: int = 1) -> list[list]:
    """Consecutive windows grouped into blocks that each hold ``period`` work
    or more, and ``min_windows`` windows or more.

    The sum tree rebuilds itself once every ``rebuild_every`` writes; a block
    holding at least that many writes holds at least one rebuild, so no
    statistic over blocks can leave its cost out.  The windows at the end
    that do not fill a block are left out.
    """
    blocks, current, held = [], [], 0
    for window, n in zip(windows, work):
        current.append(window)
        held += n
        if held >= period and len(current) >= min_windows:
            blocks.append(current)
            current, held = [], 0
    return blocks


def rebuild_period() -> int:
    """Writes between the full rebuilds of a sum tree made as train() makes it."""
    from soprl import replay
    return replay.SumTree(1).rebuild_every


def at_pace(windows: list[tuple[float, float]]) -> tuple[float, float]:
    """A time per unit of work read at the nominal pace, and unscaled.

    ``windows`` holds (time per unit, pace tick time) of windows of the run,
    the tick taken beside the window.  The paced value is NOMINAL_S times
    the median over windows of the time over its tick: the machine's speed
    moves both alike within seconds and cancels.  The unscaled value is the
    plain median of the times.
    """
    return (NOMINAL_S * statistics.median(t / tick for t, tick in windows),
            statistics.median(t for t, _ in windows))


def _in_metric_unit(name: str, seconds: float) -> float:
    """A time per unit of work in the unit of the metric: ms, s, or a rate."""
    if name in ("env_steps_per_s", "batches_per_s"):
        return 1.0 / seconds
    return seconds * 1e3 if name == "update_ms_p50" else seconds


def paced_metrics(windows: dict[str, list[tuple[float, float]]],
                  rss_mb: float) -> tuple[dict[str, float], str]:
    """The end-to-end metrics and a report line with their unscaled values.

    ``windows`` maps each timed metric to its windows (see ``at_pace``), in
    seconds per unit of work: per env step, per batch, per update, per run.
    """
    metrics, raw = {}, {}
    for name, samples in windows.items():
        paced, plain = at_pace(samples)
        metrics[name], raw[name] = _in_metric_unit(name, paced), _in_metric_unit(name, plain)
    metrics["peak_rss_mb"] = rss_mb
    ticks = [tick for samples in windows.values() for _, tick in samples]
    line = (f"pace: median tick {statistics.median(ticks) * 1e3:.4f} ms "
            f"(nominal {NOMINAL_S * 1e3:.4f} ms); unscaled: "
            + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    return metrics, line


def _durations(intervals: list[tuple[float, float]]) -> list[float]:
    return [t1 - t0 for t0, t1 in intervals]


def _per_layer(tracer: Tracer, units, extra: dict[str, float], spans_path: Path,
               untraced_ms: float, traced_ms: float, compared: str) -> tuple[dict, list[str]]:
    """Per-layer metrics and report lines of a traced run.

    ``untraced_ms`` and ``traced_ms`` are the same statistic of units run
    without and with the tracer, interleaved in one process.
    """
    extra = {"nets.peak_gflops": peak_gflops(),
             "trace.overhead_frac": traced_ms / untraced_ms - 1.0, **extra}
    metrics, breakdown = layer_metrics(tracer, units, extra)
    tracer.write(spans_path)
    wall = metrics["trace.update_wall_ms"]
    lines = [f"self time per unit of work ({len(units)} units, {wall:.4f} ms wall):"]
    lines += [f"  {name:<10} {ms:10.4f} ms" for name, ms in breakdown.items()]
    lines.append(f"  {'sum':<10} {sum(breakdown.values()):10.4f} ms")
    lines.append(f"tracing overhead: {compared}: untraced {untraced_ms:.4f} ms, "
                 f"traced {traced_ms:.4f} ms")
    lines.append(f"spans written to {spans_path}")
    return metrics, lines


# -- training workloads ------------------------------------------------------

@dataclass
class TrainingRun:
    t0: float
    t1: float
    phases: list[tuple[float, list[tuple[float, float]]]]  # (tick, update intervals)
    episodes: list[tuple[float, float, int, float]]  # (start, end, updates, tick)
    setup_s: float
    tick: float  # median pace tick before the run's update phases
    sha: str
    failures: dict
    out: Path
    final_return: float | None
    traced: bool = False


def run_training(name: str, config: dict, seed: int, seconds: float, trace: bool,
                 work: Path, import_s: float) -> Outcome:
    from soprl import harness
    overrides = dict(config, seeds=(seed,))
    pace = None if trace else Pace()
    probe = UpdateProbe(pace)
    tracer = Tracer() if trace else None
    runs: list[TrainingRun] = []
    restored = True

    def train_once(traced: bool = False, checks: TrainingChecks | None = None) -> TrainingRun:
        nonlocal restored
        out = work / f"run{len(runs)}"
        # the probe sits outermost, so an update's stamps enclose all its spans
        for hooks in (tracer if traced else None, checks, probe):
            if hooks is not None:
                hooks.install()
        t0 = probe.now()
        summary = harness.run_experiment(harness.parse_config({**overrides, "out": str(out)}))
        t1 = probe.now()
        for hooks in (probe, checks, tracer if traced else None):
            if hooks is not None:
                restored = hooks.uninstall() and restored
        log = probe.take()
        first = log.first_phase_start()
        phases = log.update_phases()
        # the ticks before update phases: those of the warm-up episodes run
        # between env steps alone, and read slower
        phase_ticks = [tick for tick, _ in phases]
        rows = summary.records[seed].rows if seed in summary.records else []
        run = TrainingRun(t0, t1, phases, log.episode_windows(),
                          (first if first is not None else t1) - t0,
                          statistics.median(phase_ticks) if phase_ticks else 0.0,
                          csv_sha256(out), summary.failures, out,
                          rows[-1].eval_return_mean if rows else None, traced)
        runs.append(run)
        return run

    # the checked run comes first and warms the process up.  Its update
    # phases and episode windows are timed with the others (its check hooks
    # add under 1% to an update); its set-up and run time, which hold an
    # extra evaluation of the do-nothing policy, are not.  A traced run then
    # alternates untraced and traced training runs of the seed.
    start = clock()
    checks = TrainingChecks()
    checked = train_once(checks=checks)
    timed: list[TrainingRun] = []
    while len(timed) < MIN_TRAINING_RUNS or clock() - start < seconds:
        timed.append(train_once(traced=trace and len(timed) % 2 == 1))
    tracker_len = len(probe.tracker.timesteps) if probe.tracker is not None else 0

    errors = [] if restored else ["instrumentation left a patched attribute behind"]
    shas = {run.sha for run in runs}
    if len(shas) != 1:
        errors.append(f"csv_sha256 differs between runs of seed {seed}: {sorted(shas)}")
    seed_csv = checked.out / f"seed_{seed}.csv"
    if seed_csv.exists():
        errors += check_training_csv(seed_csv, config["sampler"])
    else:
        errors.append(f"{seed_csv.name} was not written")
    if checked.final_return is not None:
        errors += checks.final_errors(checked.final_return)
    failed = sum(1 for run in runs if run.failures)
    errors += [f"seed {s}: {msg}" for run in runs for s, msg in run.failures.items()]

    report = [f"csv_sha256 run{i}{' (traced)' if run.traced else ''}: {run.sha}"
              for i, run in enumerate(runs)]
    if trace:
        def calm_p50(runs: list[TrainingRun]) -> float:
            return _percentile_ms(calm_share([_durations(phase) for run in runs
                                              for _, phase in run.phases]), 50)
        traced = [run for run in timed if run.traced]
        units = [u for run in traced for _, phase in run.phases for u in phase]
        metrics, lines = _per_layer(
            tracer, units, {"replay.tracker_len": tracker_len, "analysis.matrix_mb": 0.0},
            work.parent / f"spans-{name}-seed{seed}.json",
            calm_p50([run for run in timed if not run.traced]), calm_p50(traced),
            "update p50 of the calm update phases of interleaved training runs")
        report += lines
        report.append(f"traced and untraced CSVs identical: {len(shas) == 1}")
        return Outcome(metrics, len(runs), failed, errors, report)

    # every window is timed against the pace tick taken beside it (at_pace)
    measured = [checked] + timed
    gaps = [_durations(phase) for run in measured for _, phase in run.phases]
    # an episode window holds one horizon of env steps and that many updates;
    # with PER, blocks of them hold a whole period of sum-tree rebuilds
    horizon = make_env(config["env"]).spec.horizon
    period = rebuild_period() if config["sampler"] == "per" else 0
    blocks = [block for run in measured for block in whole_periods(
        run.episodes, [n * config["batch"] + horizon for _, _, n, _ in run.episodes], period,
        PACE_BLOCK)]
    block_time = [(sum(t1 - t0 for t0, t1, _, _ in b), sum(n for _, _, n, _ in b),
                   statistics.median(tick for *_, tick in b), len(b)) for b in blocks]
    phase_blocks = [block for run in measured
                    for block in whole_periods(run.phases, [0] * len(run.phases), 0, PACE_BLOCK)]
    metrics, pace_line = paced_metrics({
        "setup_s": [(import_s + run.setup_s, run.tick) for run in timed],
        "env_steps_per_s": [(t / (k * horizon), tick) for t, _, tick, k in block_time],
        "update_ms_p50": [(statistics.median(_durations([u for _, phase in b for u in phase])),
                           statistics.median(tick for tick, _ in b)) for b in phase_blocks],
        "batches_per_s": [(t / n, tick) for t, n, tick, _ in block_time],
        "analyze_s": [(run.t1 - run.t0, run.tick) for run in timed],
    }, peak_rss_mb())
    report.append(pace_line)
    report.append(f"timed training runs: {len(timed)}, update phases: {len(gaps)} "
                  f"({len(phase_blocks)} blocks), episode blocks: {len(blocks)} of "
                  f"{sum(k for *_, k in block_time)} episodes, set-up samples: {len(timed)}")
    tail = calm_share(gaps, min_samples=CALM_UPDATES)
    report.append(f"tail (not gated, unscaled): update_ms_p90 {_percentile_ms(tail, 90):.4f} ms "
                  f"(fastest phases holding at least {CALM_UPDATES} updates), update_ms_p99 "
                  f"{_p99_ms(calm_share(gaps, min_samples=TAIL_SAMPLES)):.4f} ms (median p99 "
                  f"of the fastest phases holding at least {TAIL_SAMPLES} updates)")
    return Outcome(metrics, len(runs), failed, errors, report)


# -- replay traffic at N = 1e6 -------------------------------------------------

def run_replay(seed: int, seconds: float, trace: bool, work: Path, import_s: float,
               spec: ReplaySpec = ReplaySpec()) -> Outcome:
    from soprl import replay
    horizon, cfg, ere_cfg = REPLAY_ENV.horizon, AGENT, AGENT.ere_config()
    rng_inputs, rng_sampler, rng_td, rng_returns = np.random.default_rng(seed).spawn(4)
    states = rng_inputs.uniform(-1.0, 1.0, (spec.pool, REPLAY_ENV.state_dim))
    actions = rng_inputs.uniform(-0.1, 0.1, (spec.pool, REPLAY_ENV.action_dim))
    next_states = np.clip(states + actions, -1.0, 1.0)
    pool = [replay.Transition(states[i], actions[i], -float(np.mean(next_states[i] ** 2)),
                              next_states[i], i % horizon == horizon - 1)
            for i in range(spec.pool)]
    priorities = rng_inputs.uniform(1e-3, 2.0, spec.capacity)
    history = rng_returns.standard_normal(spec.capacity // horizon)

    def fill():
        buffer = replay.ReplayBuffer(spec.capacity, REPLAY_ENV.state_dim,
                                     REPLAY_ENV.action_dim)
        for i in range(spec.capacity):
            buffer.push(pool[i % spec.pool])
        tree = replay.SumTree(spec.capacity, beta1=cfg.per_beta1, beta2=cfg.per_beta2,
                              priority_floor=cfg.per_priority_floor)
        tree.set_raw(np.arange(spec.capacity), priorities)
        tracker = replay.PerfTracker()
        for e, ret in enumerate(history):
            tracker.update((e + 1) * horizon, float(ret), spec.capacity)
        return buffer, tree, tracker

    pace = None if trace else Pace()
    setups = []  # (seconds, median of the pace ticks right after)
    for _ in range(spec.setup_reps):
        state = None  # drop the previous fill before making the next
        t0 = clock()
        state = fill()
        ticks = [0.0] if pace is None else [pace.tick() for _ in range(SETUP_TICKS)]
        setups.append((clock() - t0, statistics.median(ticks)))
    buffer, tree, tracker = state
    timestep = spec.capacity
    pushed = 0
    errors: list[str] = []

    def episode() -> tuple[float, list[tuple[float, float]], float]:
        """One episode of train()'s replay traffic: busy seconds, round
        intervals, and the pace tick taken just before."""
        nonlocal timestep, pushed
        tick = 0.0 if pace is None else pace.tick()
        rounds = []
        t0 = clock()
        for _ in range(horizon):
            slot = buffer.push(pool[pushed % spec.pool])
            prio = tree.max_raw_priority if cfg.per_max_priority_init else 1.0
            tree.set_raw(np.array([slot]), np.array([prio]))
            pushed += 1
        timestep += horizon
        tracker.update(timestep, float(rng_returns.standard_normal()), spec.capacity)
        eta = replay.adapt_eta(ere_cfg, tracker)
        busy = clock() - t0
        for k in range(1, horizon + 1):
            td = np.abs(rng_td.standard_normal(spec.batch))
            t0 = clock()
            uni = replay.sample_uniform(buffer, spec.batch, rng_sampler)
            buffer.gather(uni)
            ere = replay.sample_ere(buffer, k, horizon, ere_cfg, eta, spec.batch, rng_sampler)
            buffer.gather(ere)
            _, per, weights = replay.per_sample(tree, buffer, spec.batch, rng_sampler,
                                                cfg.per_normalize_weights)
            exp = replay.sample_exponential(buffer, cfg.exp_lambda, spec.batch, rng_sampler)
            buffer.gather(exp)
            replay.per_update_priorities(tree, per, td)
            t1 = clock()
            rounds.append((t0, t1))
            busy += t1 - t0
            window = ere_window(k, horizon, buffer.capacity, buffer.size, ere_cfg,
                                eta, spec.batch)
            errors.extend(check_slots(buffer, uni) + check_slots(buffer, ere, window)
                          + check_slots(buffer, per) + check_slots(buffer, exp)
                          + check_weights(weights))
        return busy, rounds, tick

    # a traced run alternates untraced and traced episodes
    writes = horizon * (1 + spec.batch)  # priority inserts and writes per episode
    min_episodes = 2 if trace else max(-(-tree.rebuild_every // writes), PACE_BLOCK)  # a block
    tracer = Tracer() if trace else None
    restored = True
    episodes, traced = [], []
    start = clock()
    while len(episodes) < min_episodes or clock() - start < seconds:
        traced.append(trace and len(episodes) % 2 == 1)
        if traced[-1]:
            tracer.install()
        episodes.append(episode())
        if traced[-1]:
            restored = tracer.uninstall() and restored
    errors += check_tree(tree)
    if not restored:
        errors.append("instrumentation left a patched attribute behind")
    n_rounds = sum(len(rounds) for _, rounds, _ in episodes)
    report = [f"episodes: {len(episodes)}, rounds: {n_rounds}, pushes: {pushed}, "
              f"set-up samples: {len(setups)}"]
    if trace:
        def calm_p50(flag: bool) -> float:
            return _percentile_ms(calm_share([_durations(rounds) for (_, rounds, _), t
                                              in zip(episodes, traced) if t == flag]), 50)
        units = [u for (_, rounds, _), t in zip(episodes, traced) if t for u in rounds]
        metrics, lines = _per_layer(
            tracer, units, {"replay.tracker_len": len(tracker.timesteps),
                            "analysis.matrix_mb": 0.0},
            work.parent / f"spans-replay_1m-seed{seed}.json", calm_p50(False), calm_p50(True),
            "round p50 of the calm episodes, interleaved")
        return Outcome(metrics, n_rounds, 0, errors, report + lines)
    rounds = [_durations(rounds) for _, rounds, _ in episodes]
    # blocks of episodes that hold a whole period of sum-tree rebuilds, each
    # timed against the median pace tick of its episodes (at_pace)
    blocks = whole_periods(episodes, [writes] * len(episodes), tree.rebuild_every, PACE_BLOCK)
    block_time = [(sum(busy for busy, _, _ in b) / len(b),
                   statistics.median(_durations([r for _, rs, _ in b for r in rs])),
                   statistics.median(tick for *_, tick in b)) for b in blocks]
    report.append(f"episode blocks: {len(blocks)} of "
                  f"{sum(map(len, blocks))} episodes")
    tail = calm_share(rounds, key=sum, min_samples=CALM_UPDATES)
    report.append(f"tail (not gated, unscaled): update_ms_p90 {_percentile_ms(tail, 90):.4f} ms "
                  f"(fastest episodes holding at least {CALM_UPDATES} rounds), update_ms_p99 "
                  f"{_p99_ms(calm_share(rounds, min_samples=TAIL_SAMPLES)):.4f} ms (median p99 "
                  f"of the fastest episodes holding at least {TAIL_SAMPLES} rounds)")
    # an episode pushes one horizon of transitions and draws four batches a round
    metrics, pace_line = paced_metrics({
        "setup_s": [(import_s + t, tick) for t, tick in setups],
        "env_steps_per_s": [(t / horizon, tick) for t, _, tick in block_time],
        "update_ms_p50": [(p50, tick) for _, p50, tick in block_time],
        "batches_per_s": [(t / (4 * horizon), tick) for t, _, tick in block_time],
        "analyze_s": [(t, tick) for t, _, tick in block_time],
    }, peak_rss_mb())
    return Outcome(metrics, n_rounds, 0, errors, report + [pace_line])


# -- sample-count analysis -----------------------------------------------------

def run_analysis(seed: int, seconds: float, trace: bool, work: Path, import_s: float,
                 spec: AnalysisSpec = AnalysisSpec()) -> Outcome:
    from soprl import cli

    def analyze(scheme: str, buffer: int, updates: int, trials: int) -> tuple[int, Path]:
        out = work / f"{scheme}.csv"
        rc = cli.main(["analyze", "counts", "--scheme", scheme, "--buffer", str(buffer),
                       "--updates", str(updates), "--trials", str(trials),
                       "--seed", str(seed), "--out", str(out)])
        return rc, out

    pace = None if trace else MemoryPace()
    setups = []
    for _ in range(spec.setup_reps):
        t0 = clock()
        analyze(cli.SCHEMES[0], 50, 20, 100)
        setups.append(clock() - t0)

    calls = failed = 0
    errors: list[str] = []
    first_pass: dict[str, str] = {}
    call_s: dict[str, list[float]] = {scheme: [] for scheme in cli.SCHEMES}

    def one_pass() -> tuple[float, float]:
        nonlocal calls, failed
        outputs = {}
        for _ in range(0 if pace is None else PASS_TICKS):
            pace.tick()
        t0 = clock()
        for scheme in cli.SCHEMES:
            t = clock()
            rc, outputs[scheme] = analyze(scheme, spec.buffer, spec.updates, spec.trials)
            call_s[scheme].append(clock() - t)
            calls += 1
            failed += rc != 0
        t1 = clock()
        for scheme, path in outputs.items():
            sha = file_sha256(path)
            if scheme not in first_pass:
                first_pass[scheme] = sha
                errors.extend(check_counts_csv(path, spec.updates))
            elif sha != first_pass[scheme]:
                errors.append(f"{scheme}: output differs between passes of seed {seed}")
        return t0, t1

    # a traced run alternates untraced and traced passes
    tracer = Tracer() if trace else None
    restored = True
    passes, traced = [], []
    start = clock()
    while len(passes) < 2 or clock() - start < seconds:
        traced.append(trace and len(passes) % 2 == 1)
        if traced[-1]:
            tracer.install()
        passes.append(one_pass())
        if traced[-1]:
            restored = tracer.uninstall() and restored
    if not restored:
        errors.append("instrumentation left a patched attribute behind")
    report = [f"analysis passes: {len(passes)} of {len(cli.SCHEMES)} schemes, "
              f"set-up samples: {len(setups)}"]
    if trace:
        def calm_ms(flag: bool) -> float:
            return statistics.median(calm_share(
                [d for d, t in zip(_durations(passes), traced) if t == flag], key=float)) * 1e3
        full_positions = spec.buffer + spec.updates
        metrics, lines = _per_layer(
            tracer, [p for p, t in zip(passes, traced) if t],
            {"replay.tracker_len": 0.0,
             "analysis.matrix_mb": spec.updates * full_positions * 8 / 1e6},
            work.parent / f"spans-analysis_counts-seed{seed}.json", calm_ms(False),
            calm_ms(True), "time of the calm passes, interleaved")
        return Outcome(metrics, calls, failed, errors, report + lines)
    # each scheme's calls are ranked on their own: the two full-start schemes
    # allocate 168 MB each, and their times jump between two levels from
    # call to call, so that few whole passes hold a fast call of both.  The
    # pass time is the sum of the schemes' calm times, read at the nominal
    # pace of the memory kernel: a fastest tenth of calls cannot be paired
    # with ticks beside them, so the run's median tick stands for all.
    pass_s = sum(statistics.median(calm_share(times, key=float)) for times in call_s.values())
    tick = statistics.median(pace.times)
    f = MEMORY_NOMINAL_S / tick
    draws = len(cli.SCHEMES) * spec.updates
    raw = {"setup_s": import_s + statistics.median(setups),
           "env_steps_per_s": draws / pass_s, "update_ms_p50": pass_s / spec.updates * 1e3,
           "batches_per_s": draws / pass_s, "analyze_s": pass_s}
    metrics = {name: value / f if name.endswith("_per_s") else value * f
               for name, value in raw.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    report.append(f"pace: median memory tick {tick * 1e3:.4f} ms over {len(pace.times)} ticks "
                  f"(nominal {MEMORY_NOMINAL_S * 1e3:.4f} ms); unscaled: "
                  + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    return Outcome(metrics, calls, failed, errors, report)
