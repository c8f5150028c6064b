"""The four workloads, their output checks, and the measuring loops.

Every workload is a closed loop with one caller: the next call starts when
the previous one returns. Inputs come only from the seed. Why each workload
exists is in README.md; in short:

- cv400: the north-star `run_crossval` (small-batch training path);
- score2000: load, `evaluate_model` and the C-index bootstrap (no backward);
- fullbatch400: one dense 400-patient batch per step (BLAS-bound), and
- gat64: the per-patient gat tape; these two run by hand only, because
  their throughput spread more between runs than a bound may allow.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Program functions are looked up through their modules at call time (never
# imported by name here), so the traced run's wrappers see every call.
import trajsurv as ts
from trajsurv.config import CvSettings, EvalSettings, RunConfig

import tracing

TASKS = ("os", "dfs")
CINDEX_FLOOR = 0.65          # acceptance gate 06: absolute floor ...
CINDEX_ORACLE_SHARE = 0.9    # ... and share of the oracle C-index
LOSS_MATCH_TOL = 1e-9        # batched first-step loss vs per-patient mean
CINDEX_ORACLE_TOL = 1e-12    # harrell_cindex vs brute-force pair count
BRUTE_FORCE_PATIENTS = 200


@dataclass
class Call:
    """What one timed call produced."""

    seconds: float                  # wall time of the user-facing call(s)
    patients_per_s: float
    val_loss: float
    units: int = 1                  # operations attempted (folds for cv400)
    failed_units: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    info: dict = field(default_factory=dict)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    report: dict


def _seed(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def _widths(scenario: ts.Scenario) -> dict:
    return {kind: scenario.clinical_len if kind is ts.NodeKind.CLINICAL
            else scenario.region_len for kind in ts.NodeKind}


def _curves(rows) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
    """(patient, task) -> (hazard, survival) arrays from a report's curve rows."""
    out: dict[tuple[str, str], tuple[list, list]] = {}
    for row in rows:
        h, s = out.setdefault((row.patient_id, row.task), ([], []))
        h.append((row.bin, row.hazard))
        s.append((row.bin, row.survival))
    return {key: (np.array([v for _, v in sorted(h)]), np.array([v for _, v in sorted(s)]))
            for key, (h, s) in out.items()}


def heldout_loss(curves, records, bins) -> float:
    """Mean OS + DFS discrete-time NLL of the predicted hazards, per patient.

    The same quantity `train_model` reports as validation loss (alpha = beta
    = 1), computed here from the curves a report hands back.
    """
    total = 0.0
    for rec in records:
        for task in TASKS:
            h = curves[(rec.patient_id, task)][0]
            label = getattr(rec, task)
            k = ts.label_to_bin(label.time, bins)
            ll = np.log1p(-h[:k]).sum()
            ll += np.log(h[k]) if label.event == 1 else np.log1p(-h[k])
            total -= ll
    return float(total / len(records))


def curves_valid(curves) -> bool:
    for h, s in curves.values():
        if not (np.isfinite(h).all() and np.isfinite(s).all()):
            return False
        if (h < 0).any() or (h > 1).any() or (s < 0).any() or (s > 1).any():
            return False
        if (np.diff(s) > 0).any():
            return False
    return True


def brute_force_cindex(risks, labels) -> float:
    concordant = comparable = 0.0
    for ri, li in zip(risks, labels):
        if li.event != 1:
            continue
        for rj, lj in zip(risks, labels):
            if li.time < lj.time:
                comparable += 1
                concordant += 1.0 if ri > rj else 0.5 if ri == rj else 0.0
    return concordant / comparable


def _finite(*values) -> bool:
    return bool(np.isfinite(np.asarray(values, dtype=np.float64)).all())


class Workload:
    name = ""
    setup_reps = 7
    checks: tuple[str, ...] = ()     # output checks every first call runs
    sizes: dict[str, dict] = {}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size_name = size
        self.size = self.sizes[size]
        self.workdir = Path(workdir)
        self.scenario = ts.Scenario()

    def prepare(self) -> None:
        """Untimed input generation that set-up must not pay for."""

    def setup(self):
        raise NotImplementedError

    def warm_up(self, state) -> None:
        """Untimed: let lazy initialisation and first-touch allocation finish."""

    def call(self, state, first: bool) -> Call:
        """One timed call. With `first`, run every output check; otherwise
        only those that make no further calls into the program, so that a
        traced call's spans hold the workload alone."""
        raise NotImplementedError

    def _model(self, backbone: str):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 7]))
        return ts.init_model(ts.ModelConfig(backbone=backbone), _widths(self.scenario), rng)


class CrossVal(Workload):
    """run_crossval, k=5, repeats=1, default model and training settings."""

    name = "cv400"
    checks = ("no_failed_folds", "val_loss_finite", "curves_valid",
              "cindex_os_gate", "cindex_dfs_gate")
    sizes = {"full": {"n": 400, "k": 5, "train": {}, "eval": {}},
             "tiny": {"n": 40, "k": 2, "train": {"max_epochs": 2},
                      "eval": {"bootstrap_b": 100}}}

    def setup(self):
        records, groups = ts.simulate_cohort(self.size["n"], self.seed, self.scenario)
        config = RunConfig(train=ts.TrainSettings(seed=self.seed, **self.size["train"]),
                           eval=EvalSettings(**self.size["eval"]),
                           cv=CvSettings(k=self.size["k"], repeats=1))
        return records, groups, config

    def warm_up(self, state):
        records, _, _ = state
        ts.train_model(self._model("graphsage"), records[:16], records[16:24],
                       ts.TrainSettings(max_epochs=1))

    def call(self, state, first):
        records, groups, config = state
        fits: list[tuple[int, int, float]] = []   # (patients, epochs, seconds) per fold
        current = ts.training.train_model

        def observed(model, train_records, val_records, settings, *args, **kwargs):
            t0 = time.perf_counter()
            result = current(model, train_records, val_records, settings, *args, **kwargs)
            fits.append((len(train_records), result.epochs_run, time.perf_counter() - t0))
            return result
        undo = tracing.rebind(current, observed)
        try:
            t0 = time.perf_counter()
            report = ts.run_crossval(config, records)
            seconds = time.perf_counter() - t0
        finally:
            undo()

        bins = config.model.bins()
        curves = _curves(report.curves)
        loss = heldout_loss(curves, records, bins)
        checks = {"no_failed_folds": not report.failed_folds,
                  "val_loss_finite": _finite(loss),
                  "curves_valid": curves_valid(curves)}
        info = {"epochs": [e for _, e, _ in fits], "fold_train_s": [t for _, _, t in fits],
                "folds": report.total_folds}
        for task in TASKS:
            mean = report.mean_metric(task, "cindex")
            info[f"cindex_{task}_pooled"] = (report.ci.get(task) or {}).get("point")
            info[f"cindex_{task}_fold_mean"] = mean
            if first:
                oracle = ts.oracle_cindex(records, groups, self.scenario, task)
                checks[f"cindex_{task}_gate"] = (
                    mean is not None and mean >= CINDEX_FLOOR
                    and mean >= CINDEX_ORACLE_SHARE * oracle)
                info[f"oracle_cindex_{task}"] = oracle
        # Training throughput over every fold: all the training the run did,
        # over all the time it took (see `measure` for why not the fastest).
        throughput = sum(n * e for n, e, _ in fits) / sum(t for _, _, t in fits)
        return Call(seconds=seconds, patients_per_s=throughput, val_loss=loss,
                    units=report.total_folds, failed_units=len(report.failed_folds),
                    checks=checks, info=info)


class FixedEpochTraining(Workload):
    """train_model for a fixed number of epochs (patience above it)."""

    backbone = ""

    def setup(self):
        n_train, n_val = self.size["n_train"], self.size["n_val"]
        records, _ = ts.simulate_cohort(n_train + n_val, self.seed, self.scenario)
        self._model(self.backbone)   # timed here; every call then starts from a fresh one
        return records[:n_train], records[n_train:]

    def settings(self) -> ts.TrainSettings:
        epochs = self.size["epochs"]
        return ts.TrainSettings(batch_size=self.size["batch"], max_epochs=epochs,
                                patience=epochs + 1, seed=self.seed)

    def warm_up(self, state):
        train, val = state
        ts.train_model(self._model(self.backbone), train[:4], val[:2],
                       ts.TrainSettings(batch_size=4, max_epochs=1))

    def call(self, state, first):
        train, val = state
        model = self._model(self.backbone)
        t0 = time.perf_counter()
        result = ts.train_model(model, train, val, self.settings())
        seconds = time.perf_counter() - t0
        losses = [v for _, tr, va, _ in result.history for v in (tr, va)]
        checks = {"losses_finite": _finite(result.best_val, *losses)}
        if first:
            checks.update(self.first_call_checks(train, result))
        return Call(seconds=seconds,
                    patients_per_s=result.epochs_run * len(train) / seconds,
                    val_loss=result.best_val, checks=checks,
                    info={"epochs_run": result.epochs_run, "best_epoch": result.best_epoch})

    def first_call_checks(self, train, result) -> dict[str, bool]:
        return {}


class FullBatch(FixedEpochTraining):
    """graphsage with the whole training set as one dense batch."""

    name = "fullbatch400"
    backbone = "graphsage"
    checks = ("losses_finite", "first_step_matches_per_patient")
    sizes = {"full": {"n_train": 400, "n_val": 100, "batch": 400, "epochs": 1},
             "tiny": {"n_train": 16, "n_val": 8, "batch": 16, "epochs": 2}}

    def first_call_checks(self, train, result):
        # With one batch per epoch, epoch 1's train loss is the first step's
        # batched loss, taken with the freshly initialised weights.
        model = self._model(self.backbone)
        settings = self.settings()
        weights = ts.objective.LossWeights(settings.alpha, settings.beta)
        bins = model.config.bins()
        per_patient = [ts.training.patient_loss(model, ts.cohort.record_to_graph(r), r.dfs,
                                                r.os, bins, weights).item() for r in train]
        batched = result.history[0][1]
        reference = float(np.mean(per_patient))
        return {"first_step_matches_per_patient":
                abs(batched - reference) <= LOSS_MATCH_TOL * max(1.0, abs(reference))}


class Gat(FixedEpochTraining):
    """gat, which has no batched form and runs patient by patient."""

    name = "gat64"
    backbone = "gat"
    checks = ("losses_finite",)
    sizes = {"full": {"n_train": 64, "n_val": 32, "batch": 64, "epochs": 1},
             "tiny": {"n_train": 8, "n_val": 4, "batch": 8, "epochs": 1}}


class Score(Workload):
    """A saved model and a written cohort, reloaded and scored."""

    name = "score2000"
    setup_reps = 4
    checks = ("curves_valid", "cindex_matches_brute_force", "val_loss_finite",
              "bootstrap_interval_valid")
    sizes = {"full": {"n": 2000, "bootstrap_b": 1000, "n_fit": 200, "fit_epochs": 5},
             "tiny": {"n": 40, "bootstrap_b": 100, "n_fit": 20, "fit_epochs": 1}}

    def prepare(self):
        # The model to score is an input. It is fitted in a child process, so
        # that the fit's memory stays out of this process's peak RSS.
        self.model_path = self.workdir / "model.npz"
        self.cohort_path = self.workdir / "cohort.json"
        code = (f"import workloads; workloads.Score({self.seed}, {self.size_name!r}, "
                f"{str(self.workdir)!r}).fit_model()")
        paths = (Path(__file__).resolve().parent, Path(ts.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=600)

    def fit_model(self) -> None:
        """Fit briefly on a cohort of its own, so the scores carry signal."""
        fit, _ = ts.simulate_cohort(self.size["n_fit"], _seed(self.seed, 1), self.scenario)
        cut = len(fit) * 4 // 5
        model = self._model("graphsage")
        epochs = self.size["fit_epochs"]
        ts.train_model(model, fit[:cut], fit[cut:],
                       ts.TrainSettings(max_epochs=epochs, patience=epochs + 1,
                                        seed=self.seed))
        ts.model.save_model(model, self.workdir / "model.npz")

    def setup(self):
        records, _ = ts.simulate_cohort(self.size["n"], self.seed, self.scenario)
        ts.save_cohort(records, self.cohort_path, self.scenario.region_len,
                       self.scenario.clinical_len)
        records = ts.load_cohort(self.cohort_path)
        return records, ts.model.load_model(self.model_path)

    def warm_up(self, state):
        records, model = state
        ts.crossval.evaluate_model(model, records[:20], RunConfig())

    def call(self, state, first):
        records, model = state
        config = RunConfig(eval=EvalSettings(bootstrap_b=self.size["bootstrap_b"]))
        t0 = time.perf_counter()
        report = ts.crossval.evaluate_model(model, records, config)
        t1 = time.perf_counter()
        curves = _curves(report.curves)
        # Risk is minus the restricted mean survival over the annual bins.
        items = [(-float(curves[(r.patient_id, "os")][1].sum()), r.os) for r in records]
        t2 = time.perf_counter()
        lo, hi = ts.bootstrap_ci(
            lambda sample: ts.harrell_cindex([r for r, _ in sample], [lab for _, lab in sample]),
            items, config.eval.bootstrap_b, config.eval.level, _seed(self.seed, 5))
        t3 = time.perf_counter()

        loss = heldout_loss(curves, records, model.config.bins())
        checks = {"curves_valid": curves_valid(curves),
                  "val_loss_finite": _finite(loss),
                  "bootstrap_interval_valid": _finite(lo, hi) and lo <= hi}
        info = {"evaluate_s": t1 - t0, "bootstrap_s": t3 - t2, "ci_os": [lo, hi],
                **{f"cindex_{task}": report.mean_metric(task, "cindex") for task in TASKS}}
        if first:
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 6]))
            pick = rng.choice(len(items), size=min(BRUTE_FORCE_PATIENTS, len(items)),
                              replace=False)
            sub_r = [items[i][0] for i in pick]
            sub_l = [items[i][1] for i in pick]
            fast, slow = ts.harrell_cindex(sub_r, sub_l), brute_force_cindex(sub_r, sub_l)
            checks["cindex_matches_brute_force"] = abs(fast - slow) <= CINDEX_ORACLE_TOL
        seconds = (t1 - t0) + (t3 - t2)
        return Call(seconds=seconds, patients_per_s=len(records) / seconds,
                    val_loss=loss, checks=checks, info=info)


WORKLOADS = {cls.name: cls for cls in (CrossVal, FullBatch, Gat, Score)}


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def _tally(calls: list[Call]) -> tuple[int, int]:
    attempted = sum(c.units + len(c.checks) for c in calls)
    failed = sum(c.failed_units + sum(1 for ok in c.checks.values() if not ok)
                 for c in calls)
    return attempted, failed


def _call_report(c: Call) -> dict:
    return {"seconds": c.seconds, "patients_per_s": c.patients_per_s,
            "val_loss": c.val_loss, "units": c.units, "failed_units": c.failed_units,
            "checks": c.checks, **c.info}


def _timed_setups(bench: Workload, reps: int):
    times, state = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        state = bench.setup()
        times.append(time.perf_counter() - t0)
    return times, state


def measure(bench: Workload, seconds: float) -> Result:
    """Untraced run: set up several times, then call until `seconds` is spent.

    A call starts only if the previous call's duration still fits, so a run
    lasts about `seconds` plus set-up; a workload whose single call is longer
    than `seconds` runs exactly one call. Set-up time is the median of its
    repetitions, half made before the calls and half after, so that it
    spans the run rather than one moment of the host. Throughput is the
    median over the run's calls, and within a `cv400` call the ratio over
    all its folds: on a shared host the fastest of a few calls or folds
    follows whichever moment the neighbours were quiet, and spread twice as
    much between runs (README.md gives the measurements).
    """
    bench.prepare()
    setup_times, state = _timed_setups(bench, (bench.setup_reps + 1) // 2)
    bench.warm_up(state)
    calls: list[Call] = []
    begin = time.perf_counter()
    while True:
        calls.append(bench.call(state, first=not calls))
        if time.perf_counter() - begin + calls[-1].seconds > seconds:
            break
    state = None   # so the later set-ups hold no more memory than the first ones
    setup_times += _timed_setups(bench, bench.setup_reps // 2)[0]
    if len(calls) > 1:
        calls[0].checks["repeat_calls_identical"] = len({c.val_loss for c in calls}) == 1
    attempted, failed = _tally(calls)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "patients_per_s": (statistics.median(c.patients_per_s for c in calls), "patients/s"),
        "val_loss": (calls[0].val_loss, "nats"),
    }
    report = {"setup_times": setup_times,
              "wall_s": statistics.median(c.seconds for c in calls),
              "calls": [_call_report(c) for c in calls],
              "failed_frac": failed / attempted}
    return Result(metrics, attempted, failed, report)


# Per-layer metric name -> (span name, statistic, unit); statistics are
# "self" seconds (span minus its child spans) and "calls".
_SPAN_METRICS = {
    "autodiff.backward_s": ("autodiff.backward", "self", "s"),
    "autodiff.backward_calls": ("autodiff.backward", "calls", "count"),
    **{f"autodiff.{op}.{stat_name}": (f"autodiff.{op}.{span}", stat, unit)
       for op in tracing.PRIMITIVES
       for stat_name, span, stat, unit in (("calls", "forward", "calls", "count"),
                                           ("forward_s", "forward", "self", "s"),
                                           ("backward_s", "backward", "self", "s"))},
    "batched.build_batch_s": ("batched.build_batch", "self", "s"),
    "batched.build_batch_calls": ("batched.build_batch", "calls", "count"),
    "batched.loss_forward_s": ("batched.loss_forward", "self", "s"),
    "graph.embed_s": ("graph.embed", "self", "s"),
    "evolution.evolve_s": ("evolution.evolve", "self", "s"),
    "trajectory.integrate_s": ("trajectory.integrate", "self", "s"),
    "heads.head_s": ("heads.head", "self", "s"),
    "objective.nll_s": ("objective.nll", "self", "s"),
    "objective.adamw_step_s": ("objective.adamw_step", "self", "s"),
    "objective.adamw_calls": ("objective.adamw_step", "calls", "count"),
    "training.train_model_s": ("training.train_model", "self", "s"),
    "training.steps_total": ("objective.adamw_step", "calls", "count"),
    "model.predict_curves_s": ("model.predict_curves", "self", "s"),
    "model.predict_curves_calls": ("model.predict_curves", "calls", "count"),
    "model.load_model_s": ("model.load_model", "self", "s"),
    "crossval.predict_fold_s": ("crossval.predict_fold", "self", "s"),
    "crossval.fold_metrics_s": ("crossval.fold_metrics", "self", "s"),
    "metrics.harrell_cindex_s": ("metrics.harrell_cindex", "self", "s"),
    "metrics.harrell_cindex_calls": ("metrics.harrell_cindex", "calls", "count"),
    "metrics.bootstrap_ci_s": ("metrics.bootstrap_ci", "self", "s"),
    "metrics.time_dependent_auc_s": ("metrics.time_dependent_auc", "self", "s"),
    "metrics.integrated_brier_s": ("metrics.integrated_brier", "self", "s"),
    "metrics.km_censoring_survival_s": ("metrics.km_censoring_survival", "self", "s"),
    "cohort.simulate_s": ("cohort.simulate", "self", "s"),
    "cohort.load_cohort_s": ("cohort.load_cohort", "self", "s"),
    "cohort.record_to_graph_s": ("cohort.record_to_graph", "self", "s"),
    "cohort.record_to_graph_calls": ("cohort.record_to_graph", "calls", "count"),
    "cohort.kfold_s": ("cohort.kfold", "self", "s"),
}


def measure_traced(bench: Workload, out_dir: Path) -> Result:
    """Traced run: one untraced call, then set-up and one call with spans on.

    The per-layer figures describe the traced set-up and call; the untraced
    call, which also runs the output checks, gives the tracing overhead.
    Traced numbers never feed end-to-end metrics.
    """
    bench.prepare()
    _, state = _timed_setups(bench, 1)
    bench.warm_up(state)
    plain = bench.call(state, first=True)

    tracer = tracing.Tracer()
    tracer.install()
    _, state = _timed_setups(bench, 1)
    traced = bench.call(state, first=False)
    self_s, calls = tracer.summary()

    metrics: dict[str, tuple[float, str]] = {}
    for metric, (span, stat, unit) in _SPAN_METRICS.items():
        table = self_s if stat == "self" else calls
        metrics[metric] = (table.get(span, 0.0 if stat == "self" else 0), unit)
    counts = (tracing.tape_counts(tracer.first_loss) if tracer.first_loss is not None
              else dict.fromkeys(("tape_nodes", "matmul_flop", "bw_matmul_flop",
                                  "bw_wasted_flop", "dense_const_bytes"), 0))
    metrics["autodiff.tape_nodes"] = (counts["tape_nodes"], "count")
    metrics["autodiff.matmul_gflop"] = (counts["matmul_flop"] / 1e9, "GFLOP")
    metrics["autodiff.bw_wasted_flop_frac"] = (
        counts["bw_wasted_flop"] / counts["bw_matmul_flop"] if counts["bw_matmul_flop"]
        else 0.0, "fraction")
    metrics["batched.dense_const_bytes"] = (counts["dense_const_bytes"], "bytes")
    metrics["training.epochs_total"] = (tracer.epochs, "count")
    metrics["training.val_eval_s"] = (tracer.eval_seconds(), "s")
    metrics["crossval.folds"] = (tracer.folds(), "count")
    cindex_args = tracer.largest_cindex_args
    metrics["metrics.pair_bytes"] = (
        tracing.peak_bytes(ts.metrics.harrell_cindex.__wrapped__, cindex_args)
        if cindex_args is not None else 0, "bytes")
    metrics["trace.overhead_s"] = (traced.seconds - plain.seconds, "s")
    metrics["trace.spans"] = (len(tracer.start), "count")

    path = out_dir / f"trace-{bench.name}.npz"
    tracer.write(path)
    attempted, failed = _tally([plain, traced])
    report = {"untraced_call": _call_report(plain), "traced_call": _call_report(traced),
              "absent": tracer.absent, "trace_file": str(path),
              "tape": counts, "pair_bytes_patients": len(cindex_args[0]) if cindex_args else 0,
              "failed_frac": failed / attempted}
    return Result(dict(sorted(metrics.items())), attempted, failed, report)
