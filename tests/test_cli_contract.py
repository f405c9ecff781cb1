"""The ``soprl run`` contract, fuzzed over every config key.

Each example draws a flag set for ``soprl run``: every key of
``config_defaults()`` is left out, given a value a run accepts, or, for at
most two keys, given a wild one (extreme, negative, zero, non-numeric,
empty).  It calls ``cli.main`` in-process and checks that

- the exit code is 0, 1 or 2;
- neither stdout (a seed's failure line) nor stderr holds a ``Traceback``
  or a ``Warning``;
- an exit of 2 leaves the example's directory as it was;
- every CSV has its header, and each field is a finite float or, in a
  column that may be empty, empty;
- no ``.tmp`` file is left;
- an exit of 0 reruns to the same bytes (``wall_ms`` aside when
  ``walltime`` is on).

The sizes a run allocates and loops over are bounded, wild values
included: steps <= 300, hidden <= 8, buffer <= 500, batch <= 16,
eval_rollouts <= 3, and at most three seeds.
"""

import contextlib
import csv
import io
import math
import shutil
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from soprl.agent import SAMPLERS, VARIANTS
from soprl.cli import main
from soprl.envs import env_names
from soprl.harness import AGGREGATE_COLUMNS, CSV_COLUMNS, config_defaults

CAPS = {"steps": 300, "hidden": 8, "buffer": 500, "batch": 16, "eval_rollouts": 3}
HUGE = 10 ** 30
EMPTY_OK = {"eta_current"}  # None for every sampler but ERE

# text a number parser refuses, or reads as a special float; no digits, so that
# no junk value gets past a cap
JUNK = st.one_of(
    st.sampled_from(["", " ", "x", "nan", "inf", "-inf", "1e999", "true", ",", "--"]),
    st.text(st.characters(exclude_categories=("Cs", "Nd"), exclude_characters="\x00"),
            max_size=6))


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, **kw).map(repr)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _seeds(lo, hi, min_size):
    return st.lists(st.integers(lo, hi), min_size=min_size, max_size=3,
                    unique=min_size > 0).map(lambda xs: ",".join(map(str, xs)))


VALID = {
    "env": st.sampled_from(env_names()),
    "steps": _ints(0, 300), "eval_interval": _ints(1, 400), "eval_rollouts": _ints(1, 3),
    "seeds": _seeds(0, 2 ** 64, 1),
    "variant": st.sampled_from(VARIANTS), "sampler": st.sampled_from(SAMPLERS),
    "gamma": _floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "tau": _floats(0.0, 1.0, exclude_min=True), "sigma": _floats(1e-3, 3.0),
    "batch": _ints(1, 16), "lr": _floats(1e-6, 1e-2), "hidden": _ints(1, 8),
    "buffer": _ints(1, 500), "eta0": _floats(0.0, 1.0, exclude_min=True),
    "beta1": _floats(0.0, 3.0), "beta2": _floats(0.0, 3.0),
    "exp_lambda": _floats(1e-6, 1.0), "warmup": _ints(0, 400),
}


def _wild(key: str, default) -> st.SearchStrategy:
    if key == "seeds":
        typed = _seeds(-HUGE, HUGE, 0)
    elif isinstance(default, int):
        typed = _ints(-HUGE, CAPS.get(key, HUGE))
    elif isinstance(default, float):
        # finite extremes pass the config checks and overflow in training
        typed = st.one_of(st.floats().map(repr),
                          st.sampled_from(["1e308", "1e200", "1e154", "1e-300", "5e-324"]))
    else:
        typed = VALID[key]
    return st.one_of(typed, JUNK, st.none())


# where --out points: a new directory, a new nested one, an existing file, a
# path under that file, or nowhere
OUTS = [None, "out", "a/b/out", "blocker", "blocker/out"]


@st.composite
def run_flags(draw):
    defaults = config_defaults()
    keys = [k for k in defaults if k not in ("out", "walltime")]
    wild = draw(st.sets(st.sampled_from(keys), max_size=2))
    flags = []
    for key in keys:
        if key in wild:
            value = draw(_wild(key, defaults[key]))
        elif key in CAPS or key == "env":
            value = draw(VALID[key])
        else:
            value = draw(st.one_of(st.none(), VALID[key]))
        if value is not None:
            flags.append(f"--{key.replace('_', '-')}={value}")
    walltime = draw(st.booleans())
    if walltime:
        flags.append("--walltime")
    return flags, draw(st.sampled_from(OUTS)), walltime


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``, with a file's bytes (None for a directory)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def _check_csv(name: str, data: bytes) -> None:
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    header = CSV_COLUMNS if Path(name).name.startswith("seed_") else AGGREGATE_COLUMNS
    assert rows[0] == header, name
    for row in rows[1:]:
        assert len(row) == len(header), (name, row)
        for column, field in zip(header, row):
            if field == "" and column in EMPTY_OK:
                continue
            assert math.isfinite(float(field)), (name, column, field)


def _without_wall_ms(name: str, data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    if Path(name).name.startswith("seed_"):
        drop = CSV_COLUMNS.index("wall_ms")
        rows = [row[:drop] + row[drop + 1:] for row in rows]
    return rows


def _fresh(example: Path) -> None:
    shutil.rmtree(example, ignore_errors=True)
    example.mkdir()
    (example / "blocker").write_text("a file, not a directory\n")


@settings(max_examples=40, deadline=None)
@given(drawn=run_flags())
# argparse reads "--buffer=--" as an empty list, which once reached AgentConfig
# and ended the run in a TypeError traceback
@example(drawn=(["--env=pointmass1d", "--steps=0", "--buffer=--"], None, False))
def test_run_keeps_its_contract_for_any_flag_set(drawn, tmp_path_factory):
    flags, out, walltime = drawn
    example = tmp_path_factory.mktemp("ex")
    _fresh(example)
    argv = ["run", *flags] + ([f"--out={example / out}"] if out else [])
    before = _tree(example)
    code, stdout, stderr = _run(argv)

    assert code in (0, 1, 2), (argv, code, stderr)
    for text in (stdout, stderr):
        assert "Traceback" not in text and "Warning" not in text, (argv, text)
    after = _tree(example)
    if code == 2:
        assert after == before, argv
    assert not any(name.endswith(".tmp") for name in after), (argv, sorted(after))
    csvs = {name: data for name, data in after.items() if name.endswith(".csv")}
    for name, data in csvs.items():
        _check_csv(name, data)

    if code == 0:
        _fresh(example)
        assert _run(argv) == (code, stdout, stderr), argv
        again = _tree(example)
        assert again.keys() == after.keys(), argv
        for name, data in csvs.items():
            if walltime:
                assert _without_wall_ms(name, again[name]) == _without_wall_ms(name, data)
            else:
                assert again[name] == data, (argv, name)
