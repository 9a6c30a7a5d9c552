"""Benchmark of the fagcn package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size toy]

``--workload all`` runs every workload BENCHMARK.json lists, one process
each, one after another. With ``--trace 0`` the run measures the end-to-end metrics a user of
``fagcn`` waits for; with ``--trace 1`` it replays training through the
public stage functions with a span around each call and reports per-layer
metrics. End-to-end times are scaled by a reference kernel timed around
each call (see ``clock.py``); their unscaled medians are printed under
``samples``. Per-layer times are unscaled. Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, spans included, goes to
``.perfbench_out/`` in the checkout. The command exits 1 if any output
check failed and 2 if the package cannot be imported from ``src/``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

# One BLAS thread per worker keeps workers x BLAS threads <= nproc, and the
# count must be fixed before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def _import_package():
    """Import fagcn from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fagcn", "__init__.py")):
        raise ImportError(f"no fagcn package under {SRC}")
    sys.path.insert(0, SRC)
    import fagcn  # noqa: F401


def blas_threads():
    """The thread count OpenBLAS reports at run time, or None if not found."""
    import ctypes
    import glob
    import numpy as np
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(seed: int, workers: int) -> dict:
    import platform
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": blas_threads(), "blas_threads_pinned": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "workers": workers, "seed": seed}


def run_all(args) -> int:
    """Run each workload BENCHMARK.json lists in its own process."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    worst = 0
    for name in names:
        child = [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--size", args.size]
        worst = max(worst, subprocess.run(child).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)
    try:
        _import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from measure import Abort, Ledger, run_e2e, run_traced
    from workloads import WORKLOADS, write_inputs
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    size = workload.toy if args.size == "toy" else workload.full
    workers = len(os.sched_getaffinity(0)) if workload.threaded else 1
    env = environment(args.seed, workers)

    os.makedirs(OUT, exist_ok=True)
    data_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    ledger = Ledger()
    metrics, detail = {}, {}
    try:
        paths = write_inputs(data_dir, size, args.seed)
        run = run_traced if args.trace else run_e2e
        metrics, detail = run(workload, size, args.seed, args.seconds, paths, workers, ledger)
    except Abort:
        pass
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    correct = not ledger.problems
    error_rate = ledger.failed / max(ledger.attempted, 1)
    result = {"workload": workload.name, "size": args.size, "trace": args.trace,
              "environment": env, "error_rate": error_rate, "problems": ledger.problems,
              **detail, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out_path = os.path.join(OUT, f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {workload.name} ({args.size}), seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(env))
    print("shape " + json.dumps(detail.get("shape")))
    counts = {k: v for k, v in detail.get("samples", {}).items() if not isinstance(v, list)}
    print("samples " + json.dumps(counts))
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6f} {unit}")
    print(f"  {'error_rate':24s} {error_rate:14.6f} failed/attempted "
          f"({ledger.failed}/{ledger.attempted})")
    for problem in ledger.problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
