"""Tiny-size smoke run of the benchmark.

    python3 perfbench/smoke.py

Runs every workload at --size tiny, untraced and traced, and fails unless
each run prints every declared metric with its declared unit, runs every
output check its workload declares, and keeps the output contract. It also checks that the benchmark refuses to run without the
program. The tiny inputs are too small for the model-quality gates to pass,
so this checks that the checks run, not that they pass.
"""

from __future__ import annotations

import json
import numbers
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(args, cwd: Path) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def _check_run(workload: str, trace: int, declared: dict[str, str],
               checks: tuple[str, ...]) -> list[str]:
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"], ROOT)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"{where}: attempted/failed not whole numbers")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"{where}: missing {sorted(set(declared) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), numbers.Real):
            problems.append(f"{where}: {name} reads {got}, expected a number in {unit}")
    ran = report["calls"][0]["checks"] if trace == 0 else report["untraced_call"]["checks"]
    missing = set(checks) - set(ran)
    if missing:
        problems.append(f"{where}: checks not run: {sorted(missing)}")
    if trace and report["absent"]:
        problems.append(f"{where}: wrappers absent: {report['absent']}")
    return problems


def _check_refuses_without_program() -> list[str]:
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(["--workload", "cv400", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without src/ the benchmark exited 0 or printed a result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    problems = [f"BENCHMARK.json names unknown workload {w['name']}"
                for w in spec["workloads"] if w["name"] not in workloads.WORKLOADS]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for name, workload in workloads.WORKLOADS.items():
            problems += _check_run(name, trace, declared, workload.checks)
            print(f"{name} trace={trace}: done", flush=True)
    problems += _check_refuses_without_program()
    for p in problems:
        print("FAIL", p)
    print("smoke:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
