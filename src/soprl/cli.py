"""Command-line interface: run experiments, emit sampling curves, self-test."""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import analysis, nets, replay
from .actions import ActionBounds, invert_gradients, normalize_output
from .analysis import SamplingScenario
from .harness import ConfigError, config_defaults, parse_config, run_experiment
from .seeds import make_rng

SCHEMES = ("uniform_empty", "uniform_full", "ere_empty", "ere_full")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="soprl",
                                     description="Off-policy control experiments on toy environments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train one experiment across seeds")
    run.add_argument("--config", type=str, default=None, help="key=value config file")
    # one flag per config-file key, spelled with '_' or '-'; parse_config coerces
    for key, default in config_defaults().items():
        spellings = dict.fromkeys([f"--{key}", f"--{key.replace('_', '-')}"])
        kind = {"action": "store_true"} if isinstance(default, bool) else {}
        run.add_argument(*spellings, dest=key, default=None,
                         help=f"default: {default}", **kind)

    counts = sub.add_parser("analyze", help="sampling-scheme analysis")
    counts_sub = counts.add_subparsers(dest="analysis_command", required=True)
    cc = counts_sub.add_parser("counts", help="expected-sample-count curves")
    cc.add_argument("--scheme", choices=SCHEMES, required=True)
    cc.add_argument("--eta", type=float, default=0.996)
    cc.add_argument("--buffer", type=int, default=1000)
    cc.add_argument("--updates", type=int, default=1000)
    cc.add_argument("--trials", type=int, default=10_000)
    cc.add_argument("--seed", type=int, default=0)
    cc.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")

    sub.add_parser("selftest", help="quick gradient and sampler property checks")
    return parser


def _config_error(message: object) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {key: getattr(args, key) for key in config_defaults()}
    try:
        cfg = parse_config(overrides, config_file=args.config)
        summary = run_experiment(cfg)  # refuses an unwritable out before training
    except ConfigError as exc:
        return _config_error(exc)
    for seed in cfg.seeds:
        if seed in summary.failures:
            print(f"seed {seed}: FAILED ({summary.failures[seed]})")
        else:
            rows = summary.records[seed].rows
            final = f"{rows[-1].eval_return_mean:.4f}" if rows else "n/a"
            print(f"seed {seed}: final eval return {final}")
    if cfg.out:
        print(f"CSV output in {cfg.out}")
    return 1 if summary.failures else 0


def _cmd_counts(args: argparse.Namespace) -> int:
    eta = 1.0 if args.scheme.startswith("uniform") else args.eta
    start = "empty" if args.scheme.endswith("empty") else "full"
    try:
        scn = SamplingScenario(args.buffer, args.updates, eta, start)
        if args.trials < 1:
            raise ValueError("trials: must be >= 1")
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except ValueError as exc:
        return _config_error(exc)
    except OSError as exc:
        return _config_error(f"out: {exc}")
    try:
        analytic = analysis.expected_counts(scn)
        empirical, sigma = analysis.empirical_counts(scn, args.trials,
                                                     make_rng(args.seed, "counts"))
        writer = csv.writer(out)
        writer.writerow(["index", "analytic", "empirical_mean", "empirical_sigma"])
        for idx, a, e, s in zip(range(scn.n_positions), analytic, empirical, sigma):
            writer.writerow([idx, repr(float(a)), repr(float(e)), repr(float(s))])
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_selftest() -> int:
    ok = True

    def check(name: str, passed: bool) -> None:
        nonlocal ok
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed

    rng = np.random.default_rng(7)
    params = nets.init_mlp(3, 16, 2, rng)
    err = nets.finite_diff_check(params, rng.standard_normal((4, 3)), 1e-5)
    check(f"gradient finite-diff error {err:.2e} < 1e-4", err < 1e-4)

    mu = rng.standard_normal((1000, 4)) * 3.0
    n = normalize_output(mu)
    check("normalization mean |mu| <= 1", bool(np.all(np.mean(np.abs(n), axis=1) <= 1.0)))
    check("normalization preserves signs",
          bool(np.all(np.sign(n) == np.sign(mu)) or np.all(n * mu >= 0.0)))

    cfg = replay.EreConfig(eta0=0.995, c_min=5000)
    ck = replay.ere_range(1000, 1000, 1_000_000, cfg, 0.995)
    check(f"ERE schedule end value {ck} >= 6000", ck >= 6000)

    tree = replay.SumTree(1000)
    r = np.random.default_rng(3)
    tree.set_raw(np.arange(1000), r.uniform(0.5, 2.0, 1000))
    tree.rebuild()
    parents = np.arange(tree.n_leaves - 1)
    consistent = np.array_equal(tree.nodes[parents],
                                tree.nodes[2 * parents + 1] + tree.nodes[2 * parents + 2])
    check("sum-tree parents equal child sums exactly", bool(consistent))

    buf = replay.ReplayBuffer(2000, 1, 1)
    for i in range(2000):
        buf.push(replay.Transition(np.array([float(i)]), np.array([0.0]), 0.0,
                                   np.array([float(i)]), False))
    masses = replay.exponential_segment_masses(buf.size, 1e-12, 100)
    spread = float(np.max(masses) / np.min(masses) - 1.0)
    check(f"exponential segment masses flat in the small-lambda limit ({spread:.1e})",
          spread < 1e-6)

    bounds = ActionBounds.symmetric(1.0, 2)
    transformed = invert_gradients(np.array([1.0, -1.0]), np.array([1.0, -1.0]), bounds)
    check("inverting gradients zero at the pushed boundary",
          bool(np.allclose(transformed, [0.0, 0.0])))

    print("selftest", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "analyze":
        return _cmd_counts(args)
    return _cmd_selftest()


if __name__ == "__main__":
    sys.exit(main())
