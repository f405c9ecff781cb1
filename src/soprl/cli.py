"""Command-line interface: run experiments and emit sampling curves."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from typing import TextIO

import numpy as np

from . import analysis
from .analysis import SamplingScenario
from .harness import (ConfigError, _replacing, config_defaults, parse_config,
                      run_experiment)
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
    # argparse reads the value of "--key=--" as an empty list, not as "--"
    overrides = {key: "--" if getattr(args, key) == [] else getattr(args, key)
                 for key in config_defaults()}
    try:
        cfg = parse_config(overrides, config_file=args.config)
        summary = run_experiment(cfg)  # refuses an unwritable out before training
    except ConfigError as exc:
        return _config_error(exc)
    except (OSError, ValueError) as exc:  # only the aggregate's write; seeds catch theirs
        print(f"aggregate not written: {exc}", file=sys.stderr)
        return 1
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


def _reprs(column: np.ndarray) -> list[str]:
    """repr of each float64, worked out once per distinct bit pattern (keyed
    on the int64 view, so that 0.0 and -0.0 stay apart)."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_counts(out: TextIO, analytic: np.ndarray, empirical: np.ndarray,
                  sigma: np.ndarray) -> None:
    out.write("index,analytic,empirical_mean,empirical_sigma\r\n")
    out.writelines(f"{i},{a},{e},{s}\r\n" for i, a, e, s in zip(
        range(analytic.size), _reprs(analytic), _reprs(empirical), _reprs(sigma)))


def _cmd_counts(args: argparse.Namespace) -> int:
    start = "empty" if args.scheme.endswith("empty") else "full"
    with contextlib.ExitStack() as stack:
        try:
            # the scenario would refuse this too, after checking buffer >= 1,
            # but by its field names
            if start == "empty" and 1 <= args.buffer < args.updates:
                raise ValueError("updates: an empty start needs --updates <= --buffer "
                                 f"(got {args.updates} > {args.buffer})")
            scn = SamplingScenario(args.buffer, args.updates, args.eta, start)
            if args.scheme.startswith("uniform"):  # checked, then unused: uniform is eta 1
                scn = dataclasses.replace(scn, eta=1.0)
            if args.trials < 1:
                raise ValueError("trials: must be >= 1")
            out = stack.enter_context(_replacing(args.out)) if args.out else sys.stdout
        except ValueError as exc:
            return _config_error(exc)
        except OSError as exc:
            return _config_error(f"out: {exc}")
        analytic = analysis.expected_counts(scn)
        empirical, sigma = analysis.empirical_counts(scn, args.trials,
                                                     make_rng(args.seed, "counts"))
        _write_counts(out, analytic, empirical, sigma)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_counts(args)


if __name__ == "__main__":
    sys.exit(main())
