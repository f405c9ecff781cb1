"""Command-line interface: run experiments and emit sampling curves."""

from __future__ import annotations

import argparse
import csv
import sys

from . import analysis
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
    if cfg.out and summary.records:
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
        # formatted lazily: .tolist() is no faster and would hold three lists at once
        columns = (map(repr, map(float, col)) for col in (analytic, empirical, sigma))
        writer.writerows(zip(range(scn.n_positions), *columns))
    finally:
        if args.out:
            out.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_counts(args)


if __name__ == "__main__":
    sys.exit(main())
