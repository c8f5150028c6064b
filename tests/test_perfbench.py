"""The benchmark's entry points still run against this tree.

Every workload of `perfbench/workloads.py` runs once, untraced, at
`--size tiny` through `perfbench/smoke.py`, which checks that the run exits
0, prints every end-to-end metric `BENCHMARK.json` declares and runs the
workload's output checks. A change to `src/` that breaks a call the
benchmark makes then fails here rather than only in a benchmark run.

Every workload also runs once traced, where `perfbench/tracing.py` wraps
program functions by name and walks the first loss's tape. The run must
exit 0, print every per-layer metric with its declared unit, and report as
absent exactly the 37 wrappers whose functions left the program before the
tracer was last updated: the tape's `backward`, its 17 primitives and their
17 rules, and the two batched functions. A new absence, or a crash only the
traced path meets, then fails here.
"""

import importlib
import json
import numbers
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The wrappers `tracing.Tracer.install` finds no function for, in its order.
# Dropping them is a change to the benchmark (ROADMAP item 1); until then a
# run reports exactly these.
PRIMITIVES = ("matmul", "add", "sub", "mul", "negate", "concat-cols", "slice-cols",
              "broadcast-row", "sigmoid", "tanh", "relu", "exp", "log", "sum-all", "mean-all",
              "mean-rows", "softmax-rows")
ABSENT = (["autodiff.backward", "batched.build_batch", "batched.batched_mean_loss"]
          + [f"autodiff.{op.replace('-', '_')}" for op in PRIMITIVES]
          + [f"autodiff._BACKWARD[{op}]" for op in PRIMITIVES])
TRACED = ["cv400", "score2000", "fullbatch400", "gat64"]


def _perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    return (importlib.import_module("smoke"), importlib.import_module("workloads"), spec)


def test_every_workload_runs_untraced_at_tiny_size(monkeypatch):
    smoke, workloads, spec = _perfbench(monkeypatch)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        problems += smoke._check_run(name, 0, declared, workload.checks)
    assert problems == []


@pytest.mark.parametrize("workload", TRACED)
def test_every_workload_runs_traced_at_tiny_size(monkeypatch, workload):
    smoke, workloads, spec = _perfbench(monkeypatch)
    assert sorted(TRACED) == sorted(workloads.WORKLOADS)
    proc = smoke._run(["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "1", "--size", "tiny"], PERFBENCH.parent)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    report = json.loads(lines[-2])["report"]
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(metrics) == set(declared)
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, name
        assert isinstance(metrics[name]["value"], numbers.Real), name
    assert report["absent"] == ABSENT
