"""Spans and exact counts for the traced run, recorded from outside the program.

Each listed function is replaced, at every `trajsurv` module attribute that
holds it, by a wrapper that records one span: name, start, end and parent
span. Rebinding every holder matters because callers reach the same function
by different names (`model.py` imports `evolve` directly, `training.py`
calls `ad.matmul`, `backward` looks rules up in `autodiff._BACKWARD`). A
function a later change deletes or renames is reported as absent rather
than failing the run. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

PACKAGE = "trajsurv"

# The 17 tape primitives, by the op name a tape node carries.
PRIMITIVES = ("matmul", "add", "sub", "mul", "negate", "concat-cols", "slice-cols",
              "broadcast-row", "sigmoid", "tanh", "relu", "exp", "log", "sum-all",
              "mean-all", "mean-rows", "softmax-rows")

# Span name -> the functions it wraps, as (module, attribute) with
# "Class.method" for methods. Several functions may share one span name.
FUNCTIONS: dict[str, list[tuple[str, str]]] = {
    "autodiff.backward": [("autodiff", "backward")],
    "batched.build_batch": [("batched", "build_batch")],
    "batched.loss_forward": [("batched", "batched_mean_loss")],
    "graph.embed": [("graph", "embed_nodes")],
    "evolution.evolve": [("evolution", "evolve")],
    "trajectory.integrate": [("trajectory", "integrate"), ("trajectory", "integrate_mean")],
    "heads.head": [("heads", "dfs_head"), ("heads", "os_head")],
    "objective.nll": [("objective", "discrete_nll")],
    "objective.adamw_step": [("objective", "adamw_step")],
    "training.train_model": [("training", "train_model")],
    "training.mean_loss": [("training", "_mean_loss")],
    "model.predict_curves": [("model", "FullModel.predict_curves")],
    "model.load_model": [("model", "load_model")],
    "crossval.run_crossval": [("crossval", "run_crossval")],
    "crossval.predict_fold": [("crossval", "_predict_fold")],
    "crossval.fold_metrics": [("crossval", "_fold_metrics")],
    "metrics.harrell_cindex": [("metrics", "harrell_cindex")],
    "metrics.bootstrap_ci": [("metrics", "bootstrap_ci")],
    "metrics.time_dependent_auc": [("metrics", "time_dependent_auc")],
    "metrics.integrated_brier": [("metrics", "integrated_brier")],
    "metrics.km_censoring_survival": [("metrics", "km_censoring_survival")],
    "cohort.simulate": [("cohort", "simulate_cohort")],
    "cohort.load_cohort": [("cohort", "load_cohort")],
    "cohort.record_to_graph": [("cohort", "record_to_graph")],
    "cohort.kfold": [("cohort", "stratified_repeated_kfold")],
}
for _op in PRIMITIVES:
    FUNCTIONS[f"autodiff.{_op}.forward"] = [("autodiff", _op.replace("-", "_"))]


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(original, replacement) -> Callable[[], None]:
    """Point every trajsurv module attribute holding `original` at `replacement`.

    Returns a function that undoes the change.
    """
    changed = []
    for mod in _modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                changed.append((mod, key))

    def undo():
        for mod, key in changed:
            setattr(mod, key, original)
    return undo


class Tracer:
    """Records spans into flat arrays; parent -1 marks a root span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.absent: list[str] = []
        self.first_loss = None            # first tensor handed to backward
        self.largest_cindex_args = None   # harrell_cindex call with the most patients
        self.epochs = 0

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_call=None, on_return=None):
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _hooks(self, span: str):
        if span == "autodiff.backward":
            def first_loss(args):
                if self.first_loss is None and args:
                    self.first_loss = args[0]
            return first_loss, None
        if span == "metrics.harrell_cindex":
            def largest(args):
                best = self.largest_cindex_args
                if args and (best is None or len(args[0]) > len(best[0])):
                    self.largest_cindex_args = args
            return largest, None
        if span == "training.train_model":
            def epochs(result):
                self.epochs += int(getattr(result, "epochs_run", 0))
            return None, epochs
        return None, None

    def install(self) -> None:
        for span, targets in FUNCTIONS.items():
            on_call, on_return = self._hooks(span)
            for module_name, attr in targets:
                try:
                    mod = importlib.import_module(f"{PACKAGE}.{module_name}")
                except ImportError:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = getattr(owner, method, None) if owner is not None else None
                if not callable(fn):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                wrapped = self.wrap(fn, span, on_call, on_return)
                if owner_name:
                    setattr(owner, method, wrapped)
                else:
                    rebind(fn, wrapped)
        rules = getattr(importlib.import_module(f"{PACKAGE}.autodiff"), "_BACKWARD", None)
        for op in PRIMITIVES:
            if not isinstance(rules, dict) or op not in rules:
                self.absent.append(f"autodiff._BACKWARD[{op}]")
                continue
            rules[op] = self.wrap(rules[op], f"autodiff.{op}.backward")

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = np.bincount(name_id, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name_id, minlength=len(self.names))
        return ({n: float(self_s[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)})

    def _ids_of(self, name: str) -> np.ndarray:
        name_id, _, _, _ = self.arrays()
        nid = self._ids.get(name)
        return np.flatnonzero(name_id == nid) if nid is not None else np.array([], int)

    def eval_seconds(self) -> float:
        """Inclusive time of loss evaluations not followed by a backward pass.

        Inside training, a loss whose next sibling span is `backward` is a
        training step; every other one scores the validation set.
        """
        name_id, parent, start, end = self.arrays()
        losses = self._ids_of("training.mean_loss")
        bw = self._ids.get("autodiff.backward")
        order = np.lexsort((np.arange(parent.size), parent))   # siblings adjacent
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        total = 0.0
        for i in losses:
            p = position[i] + 1
            nxt = order[p] if p < order.size else -1
            is_step = nxt >= 0 and parent[nxt] == parent[i] and name_id[nxt] == bw
            if not is_step:
                total += end[i] - start[i]
        return float(total)

    def folds(self) -> int:
        _, parent, _, _ = self.arrays()
        runs = set(self._ids_of("crossval.run_crossval").tolist())
        return int(sum(1 for i in self._ids_of("training.train_model") if parent[i] in runs))

    def write(self, path: Path) -> None:
        name_id, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=start, end=end)


def tape_counts(loss) -> dict[str, int]:
    """Exact counts of one loss tape, found by walking `parents` from the loss.

    tape_nodes counts every distinct tensor reachable from the loss, leaves
    included. Matmul FLOPs are 2*m*k*n per product. A backward pass through
    a recorded matmul computes one product per operand (each as costly as
    the forward product); the wasted share is the FLOPs of products for
    operands with requires_grad=False, over all backward matmul FLOPs.
    dense_const_bytes sums the buffers of constant leaves.
    """
    seen: set[int] = set()
    stack = [loss]
    fwd = bw_total = bw_wasted = 0
    const_bytes = 0
    nodes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += 1
        parents = tuple(node.parents)
        if node.op is None and not node.requires_grad:
            const_bytes += node.data.nbytes
        if node.op == "matmul":
            a, b = parents
            flops = 2 * a.data.shape[0] * a.data.shape[1] * b.data.shape[1]
            fwd += flops
            if node.requires_grad:
                bw_total += 2 * flops
                bw_wasted += flops * sum(1 for p in parents if not p.requires_grad)
        stack.extend(parents)
    return {"tape_nodes": nodes, "matmul_flop": fwd, "bw_matmul_flop": bw_total,
            "bw_wasted_flop": bw_wasted, "dense_const_bytes": const_bytes}


def peak_bytes(fn, args) -> int:
    """Peak bytes allocated by one call, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
