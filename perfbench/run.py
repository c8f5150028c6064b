"""trajsurv benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload cv400 --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ./src. Each run
is one fresh process with every BLAS/OpenMP pool pinned to one thread, so
set-up time and peak memory belong to the workload named. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the line before it is a report with the environment, the
per-call figures and every output check. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_REPS = 8
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _pin_threads() -> dict[str, str | None]:
    """Pin every thread pool to one thread; returns what the caller had set.

    Must run before numpy is imported. main() refuses to measure if OpenBLAS
    still reports more than one thread.
    """
    if "numpy" in sys.modules:
        sys.exit("perfbench: numpy was imported before the thread pools were pinned")
    caller = {var: os.environ.get(var) for var in THREAD_VARS}
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    return caller


def _import_times(reps: int) -> list[float]:
    """Wall times of `import trajsurv`, each in a fresh interpreter.

    A module import happens once per process, so repeating it in fresh
    children is the only way to take a median of it.
    """
    code = ("import time; t = time.perf_counter(); import trajsurv; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for the smoke run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    caller_threads = _pin_threads()

    if not (SRC / "trajsurv" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC}/trajsurv is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import environment
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    env = environment.describe(ROOT, THREAD_VARS)
    env["caller_thread_vars"] = caller_threads
    if env["blas_threads"] not in (None, 1):
        print(f"perfbench: refusing to run unpinned (BLAS reports "
              f"{env['blas_threads']} threads)", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        # Half the imports are timed before the workload and half after, so
        # that their median spans the run rather than one moment of the host.
        import_times = _import_times(IMPORT_REPS // 2)
        if args.trace:
            result = workloads.measure_traced(bench, ROOT / ".perfbench")
        else:
            result = workloads.measure(bench, args.seconds)
        import_times += _import_times(IMPORT_REPS - IMPORT_REPS // 2)
        import_s = statistics.median(import_times)
        if not args.trace:
            result.metrics["setup_s"] = (result.metrics["setup_s"][0] + import_s, "s")
            result.metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            result.report["memory_kb"] = environment.memory_kb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "import_s": import_s,
              "environment": env, **result.report}
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
