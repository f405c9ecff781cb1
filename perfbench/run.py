"""soprl benchmark: one workload per fresh process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload desk_ere --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the repository root.  The program is imported from ``src/`` next to
this directory, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics and the tracing
overhead; either way the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  ``--workload all``
runs every workload in its own process, one after the other.
"""

from __future__ import annotations

import os

# pinned before numpy loads BLAS: the engine is many small float64 matmuls
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"


def pin_allocator() -> dict[str, int] | None:
    """Fix glibc malloc's mmap threshold at its default value; None if not glibc.

    The engine's per-update temporaries are 128 KiB, right at glibc's default
    mmap threshold.  With the dynamic threshold a process decides from its
    heap layout whether freed temporaries go back to the kernel and are
    faulted in again on the next update, which moves update time by a third
    between otherwise identical runs; most processes take the mmap path.
    Setting the threshold by hand turns the dynamic threshold off, and at
    the default value every run takes the mmap path that users mostly get.
    """
    import ctypes
    import ctypes.util
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    settings = {"M_MMAP_THRESHOLD": 128 * 1024}
    if mallopt(-3, settings["M_MMAP_THRESHOLD"]) != 1:  # -3 is M_MMAP_THRESHOLD
        return None
    return settings


MALLOC_SETTINGS = pin_allocator()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk_ere", "paper_per_ig", "replay_1m", "analysis_counts")


IMPORT_REPS = 10
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import soprl.cli; print(time.perf_counter() - t0)")


def import_soprl() -> float:
    """Import soprl from this checkout's src/; returns the median import time.

    An import can be timed once per process, so it is repeated in fresh
    interpreters (same environment) and the median taken.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import soprl
    import soprl.cli  # noqa: F401 - loaded so that every layer can be traced
    if not Path(soprl.__file__).resolve().is_relative_to(src):
        raise ImportError(f"soprl imported from {soprl.__file__}, not from {src}")
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            if "openblas" in line.lower():
                libs.add(line.split()[-1])
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_fingerprint(load_at_start: tuple[float, float, float]) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "malloc": MALLOC_SETTINGS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "loadavg_at_start": load_at_start,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    load = os.getloadavg()
    import_s = import_soprl()
    machine = machine_fingerprint(load)
    if machine["blas_threads"] not in (1, None):
        print(f"refusing to run: BLAS uses {machine['blas_threads']} threads, not 1",
              file=sys.stderr)
        return 3
    import workloads as wl
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=scratch))
    try:
        if workload in wl.TRAINING:
            outcome = wl.run_training(workload, wl.TRAINING[workload], seed, seconds,
                                      trace, work, import_s)
        elif workload == "replay_1m":
            outcome = wl.run_replay(seed, seconds, trace, work, import_s)
        else:
            outcome = wl.run_analysis(seed, seconds, trace, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = metric_units(trace)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print("machine " + json.dumps(machine))
    for line in outcome.report:
        print(line)
    for name, value in outcome.metrics.items():
        print(f"  {name:<28} {value:16.6f} {units[name]}")
    print(f"check: {'PASS' if not outcome.errors else 'FAIL'} "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    for err in outcome.errors[:20]:
        print(f"  FAIL {err}")
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process; a combined result at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"workload {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
