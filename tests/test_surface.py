"""The engine ships what a run uses.

Tiny ``soprl run`` commands cover every environment, variant and sampler
plus a config file, and ``analyze counts`` runs every scheme.  A profiler
set before ``import soprl.cli`` records each function they call, import
time included.  Every public function and method defined in ``src/soprl``
that none of them calls must be on ``UNCALLED``, with its reason, and
every name on it must still go uncalled: a helper that only tests use
belongs in ``tests/oracles.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from soprl.agent import SAMPLERS, VARIANTS
from soprl.cli import SCHEMES
from soprl.envs import env_names

ROOT = Path(__file__).resolve().parents[1]

UNCALLED = {
    "nets.MlpParams.named_tensors": "reached only when a gradient is not finite",
    "replay.SumTree.rebuild": "reached only after rebuild_every writes",
    "replay.SumTree.nodes": "the tree's layout, read by tests and perfbench",
}

TINY = ["--steps", "150", "--warmup", "50", "--batch", "8", "--hidden", "4",
        "--buffer", "100", "--eval-interval", "100", "--eval-rollouts", "2"]

PROBE = r"""
import contextlib, inspect, io, json, pkgutil, sys

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(profile)
import soprl.cli  # noqa: E402 - what the import itself calls counts too

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(soprl.cli.main(argv))
sys.setprofile(None)

import soprl  # noqa: E402

package_dir = soprl.__path__[0]


def code_objects(member):
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    if isinstance(member, property):
        return [f.__code__ for f in (member.fget, member.fset, member.fdel) if f]
    func = getattr(member, "func", member)  # a cached_property's function
    return [func.__code__] if inspect.isfunction(func) else []


def public(name):
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


uncalled = set()
for info in pkgutil.iter_modules(soprl.__path__):
    if info.name == "__main__":
        continue
    mod = sys.modules.get(f"soprl.{info.name}")
    if mod is None:  # never imported by a run: all of it is unused
        uncalled.add(f"{info.name} (module)")
        continue
    members = []
    for name, obj in vars(mod).items():
        if not public(name) or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            members += [(f"{name}.{attr}", m) for attr, m in vars(obj).items() if public(attr)]
        else:
            members.append((name, obj))
    for qualname, member in members:
        for code in code_objects(member):
            # dataclass-generated methods are compiled from a string, not the file
            if code.co_filename.startswith(package_dir) and code not in called:
                uncalled.add(f"{info.name}.{qualname}")
print(json.dumps({"codes": codes, "uncalled": sorted(uncalled)}))
"""


def run_commands(out: Path) -> list[list[str]]:
    runs = [["--env", env] for env in env_names()]
    runs += [["--env", "pointmass1d", "--variant", v] for v in VARIANTS]
    runs += [["--env", "pointmass1d", "--sampler", s] for s in SAMPLERS]
    config = out / "run.cfg"
    config.write_text("env = pointmass2d\nsampler = ere\n")
    runs.append(["--config", str(config)])
    argvs = [["run", *r, *TINY, "--out", str(out / f"run{i}")] for i, r in enumerate(runs)]
    argvs += [["analyze", "counts", "--scheme", scheme, "--buffer", "40", "--updates", "30",
               "--trials", "5", "--out", str(out / f"{scheme}.csv")] for scheme in SCHEMES]
    return argvs


def test_every_public_function_is_reached_by_a_run_or_listed(tmp_path):
    argvs = run_commands(tmp_path)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(argvs)  # every command ran to the end
    assert set(result["uncalled"]) == set(UNCALLED)
