"""Experiment orchestration: config parsing, multi-seed runs, CSV output.

Per-seed learning curves land in ``seed_<s>.csv`` with a fixed column
schema; ``aggregate.csv`` holds the across-seed mean/std of the evaluation
return per checkpoint.  Each CSV is written beside its target and moved over
it once complete, so an interrupted write leaves the previous file.
Identical (config, master seed) produces byte-identical CSVs; wall-clock
timing is therefore off by default and only recorded when explicitly
requested.
"""

from __future__ import annotations

import csv
import errno
import math
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import TextIO

import numpy as np

from .agent import AgentConfig, TrainRecord, train
from .envs import env_names, make_env
from .seeds import derive_seed

CSV_COLUMNS = ["step", "seed", "eval_return_mean", "eval_return_std",
               "entropy_estimate", "saturation_fraction", "mean_abs_mu_pre_norm",
               "eta_current", "wall_ms"]

AGGREGATE_COLUMNS = ["step", "eval_return_mean", "eval_return_std"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an environment, a seed list, and the agent to train."""

    env: str
    steps: int = 20_000
    eval_interval: int = 5000
    eval_rollouts: int = 5
    seeds: tuple[int, ...] = (0,)
    out: str | None = None
    walltime: bool = False
    agent: AgentConfig = field(default_factory=AgentConfig)

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds: need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds: each seed may appear once, got {self.seeds}")
        if self.eval_interval < 1:
            raise ConfigError("eval_interval: must be >= 1")
        if self.eval_rollouts < 1:
            raise ConfigError("eval_rollouts: must be >= 1")
        if self.steps < 0:
            raise ConfigError("steps: must be >= 0")
        if self.env not in env_names():
            raise ConfigError(f"env: unknown environment '{self.env}', "
                              f"expected one of {env_names()}")


# stable config-file key / run flag -> the AgentConfig field it sets
AGENT_KEYS = {
    "variant": "variant", "sampler": "sampler", "gamma": "gamma", "tau": "tau",
    "sigma": "sigma", "batch": "batch_size", "lr": "lr", "hidden": "hidden_dim",
    "buffer": "buffer_capacity", "eta0": "eta0", "beta1": "per_beta1",
    "beta2": "per_beta2", "exp_lambda": "exp_lambda", "warmup": "warmup_steps",
}
_KEY_OF_FIELD = {f: key for key, f in AGENT_KEYS.items()}


def config_defaults() -> dict[str, object]:
    """Every config-file key (each also a ``run`` flag) and its default value."""
    run = {f.name: None if f.default is MISSING else f.default
           for f in fields(ExperimentConfig) if f.name != "agent"}
    agent = AgentConfig()
    return {**run, **{key: getattr(agent, f) for key, f in AGENT_KEYS.items()}}


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce(key: str, value: object, default):
    """The value as the type of the key's default.

    A string is parsed.  Any other value must have that type already, except
    that an int serves for a float and a tuple or list of ints for the seeds.
    """
    try:
        if isinstance(value, str):
            if key == "seeds":
                return tuple(int(tok) for tok in value.split(",") if tok != "")
            if isinstance(default, bool):
                low = value.lower()
                if low in ("1", "true", "yes", "on"):
                    return True
                if low in ("0", "false", "no", "off"):
                    return False
                raise ValueError(value)
            return value if default is None else type(default)(value)
        if key == "seeds":
            if isinstance(value, (tuple, list)) and all(map(_is_int, value)):
                return tuple(value)
        elif isinstance(default, bool):
            if isinstance(value, bool):
                return value
        elif isinstance(default, (int, float)):
            if _is_int(value) or isinstance(value, float) and isinstance(default, float):
                return type(default)(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{key}: cannot parse value '{value}'")


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; a key may appear once."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read '{path}': {exc.strerror}") from None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line not key=value: '{raw.strip()}'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{key}: repeated in config file '{path}'")
        values[key] = val
    return values


def parse_config(overrides: dict[str, object], config_file: str | Path | None = None) -> ExperimentConfig:
    """Build a config: defaults, then file values, then explicit overrides.

    Unknown keys are rejected by name; 'env' must be present somewhere.
    Agent-side errors name the file key, not the AgentConfig field.
    """
    defaults = config_defaults()
    file_values = read_config_file(config_file) if config_file is not None else {}
    merged: dict[str, object] = {}
    for key, val in [*file_values.items(), *overrides.items()]:
        if val is None:
            continue
        if key not in defaults:
            raise ConfigError(f"{key}: unknown config key")
        merged[key] = _coerce(key, val, defaults[key])
    if "env" not in merged:
        raise ConfigError("env: required key missing")
    agent_values = {f: merged[key] for key, f in AGENT_KEYS.items() if key in merged}
    run_values = {key: val for key, val in merged.items() if key not in AGENT_KEYS}
    try:
        return ExperimentConfig(**run_values, agent=AgentConfig(**agent_values))
    except ValueError as exc:  # ConfigError included; its keys map to themselves
        name, _, msg = str(exc).partition(": ")
        raise ConfigError(f"{_KEY_OF_FIELD.get(name, name)}: {msg}") from None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _require_finite(step: int, fields: dict[str, object]) -> None:
    """Refuse a row holding a NaN or infinite float, naming its column."""
    for column, value in fields.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{column}: {value!r} at step {step} is not finite")


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """A new text file beside ``path``, moved over it once the block is done.

    A block that raises leaves ``path`` as it was and removes the new file,
    so a reader of ``path`` sees the old content or the new, never a part.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    # O_EXCL never reuses a file; mode 0o666 gives what a plain open gives
    out = open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w", newline="")
    try:
        yield out
        out.close()
        os.replace(tmp, path)
    except BaseException:
        try:
            out.close()  # may raise too, on flushing what is buffered
        finally:
            os.unlink(tmp)
        raise


def write_seed_csv(path: Path, seed: int, record: TrainRecord) -> None:
    with _replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in record.rows:
            fields = {c: getattr(row, c) for c in CSV_COLUMNS[2:]}
            _require_finite(row.step, fields)
            writer.writerow([row.step, seed, *map(_fmt, fields.values())])


def write_aggregate_csv(path: Path, records: dict[int, TrainRecord]) -> None:
    by_step: dict[int, list[float]] = {}
    for record in records.values():
        for row in record.rows:
            by_step.setdefault(row.step, []).append(row.eval_return_mean)
    with _replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        for step in sorted(by_step):
            vals = np.array(by_step[step])
            fields = dict(zip(AGGREGATE_COLUMNS[1:], (float(vals.mean()), float(vals.std()))))
            _require_finite(step, fields)
            writer.writerow([step, *map(_fmt, fields.values())])


@dataclass
class ExperimentSummary:
    records: dict[int, TrainRecord] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Train every seed independently and emit per-seed plus aggregate CSVs.

    Each seed trains with numpy's overflow, invalid and divide-by-zero
    errors raised, not warned, and no CSV takes a NaN or infinite value.  A
    seed that fails to train or to write its CSV is reported in the summary
    and on stderr; the remaining seeds still run.  The aggregate covers the
    seeds that did not fail, and is not written when every seed fails.
    """
    summary = ExperimentSummary()
    out_dir = Path(cfg.out) if cfg.out else None
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out: {exc}") from exc
    print(make_env(cfg.env).spec.describe(), file=sys.stderr)
    for seed in cfg.seeds:
        env = make_env(cfg.env)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                record, _ = train(env, cfg.agent, cfg.steps,
                                  derive_seed(seed, "run"),
                                  eval_interval=cfg.eval_interval,
                                  eval_rollouts=cfg.eval_rollouts,
                                  record_walltime=cfg.walltime)
            if out_dir is not None:
                write_seed_csv(out_dir / f"seed_{seed}.csv", seed, record)
        except Exception as exc:  # noqa: BLE001 - isolate per-seed failures
            summary.failures[seed] = f"{type(exc).__name__}: {exc}"
            print(f"seed {seed} failed: {summary.failures[seed]}", file=sys.stderr)
            continue
        summary.records[seed] = record
    if out_dir is not None and summary.records:
        write_aggregate_csv(out_dir / "aggregate.csv", summary.records)
    return summary
