"""The benchmark's entry points still run against this tree.

Every workload of `perfbench/workloads.py` runs once, untraced, at
`--size tiny` through `perfbench/smoke.py`, which checks that the run exits
0, prints every end-to-end metric `BENCHMARK.json` declares and runs the
workload's output checks. A change to `src/` that breaks a call the
benchmark makes then fails here rather than only in a benchmark run.
"""

import importlib
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_workload_runs_untraced_at_tiny_size(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    smoke = importlib.import_module("smoke")
    workloads = importlib.import_module("workloads")
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        problems += smoke._check_run(name, 0, declared, workload.checks)
    assert problems == []
