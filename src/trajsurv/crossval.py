"""Cross-validation engine, ablation variants, and report emission."""

from __future__ import annotations

import dataclasses
import json
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .cohort import PatientRecord, cohort_arrays, load_cohort, stratified_repeated_kfold
from .config import RunConfig, config_to_dict
from .graph import ANATOMICAL_KINDS, NodeKind
from .heads import TimeBins, point_estimate_time
from .metrics import (IpcwCapWarning, bootstrap_ci, cindex_arrays, format_ci,
                      harrell_cindex, integrated_brier, label_arrays, mae_uncensored,
                      time_dependent_auc)
from .model import FullModel, init_model
from .objective import discrete_nll
from .training import train_model

VARIANTS = ("full", "static", "mean_integrator", "no_cascade")

METRIC_COLUMNS = ("cindex", "ibs", "auc1", "auc3", "auc5", "mae")
TASKS = ("os", "dfs")


@dataclass
class FoldRow:
    repeat: int
    fold: int
    task: str
    cindex: float | None
    ibs: float | None
    auc1: float | None
    auc3: float | None
    auc5: float | None
    mae: float | None

    def metric(self, name: str) -> float | None:
        return getattr(self, name)


@dataclass
class CurveRow:
    patient_id: str
    task: str
    bin: int
    hazard: float
    survival: float


@dataclass
class CvReport:
    variant: str
    config: dict
    seed: int
    rows: list[FoldRow] = field(default_factory=list)
    curves: list[CurveRow] = field(default_factory=list)
    failed_folds: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    ci: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    ipcw_capped_folds: int = 0
    runtime_seconds: float = 0.0

    @property
    def total_folds(self) -> int:
        return len({(r.repeat, r.fold) for r in self.rows}) + len(self.failed_folds)

    def mean_metric(self, task: str, name: str) -> float | None:
        agg = self.aggregate.get(task, {}).get(name)
        return None if agg is None else agg.get("mean")

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "config": self.config,
            "seed": self.seed,
            "runtime_seconds": self.runtime_seconds,
            "folds": [dataclasses.asdict(r) for r in self.rows],
            "failed_folds": self.failed_folds,
            "aggregate": self.aggregate,
            "ci": self.ci,
            "checks": self.checks,
            "warnings": {"ipcw_capped_folds": self.ipcw_capped_folds},
        }


def _feature_widths(records: list[PatientRecord]) -> dict[NodeKind, int]:
    width = next((rec.regions[k].features.shape[0] for rec in records
                  for k in ANATOMICAL_KINDS if rec.regions[k].present), None)
    if width is None:
        raise ValueError("no present regions anywhere in the cohort")
    return {**{k: width for k in ANATOMICAL_KINDS}, NodeKind.GLOBAL_CT: width,
            NodeKind.CLINICAL: records[0].clinical.shape[0]}


@dataclass
class _TaskPrediction:
    hazard: np.ndarray        # (n, K)
    survival: np.ndarray      # (n, K)
    pred_time: np.ndarray     # (n,) point estimate; the risk is its negation
    scores: np.ndarray        # (n, horizons): P(event <= t) = 1 - S(t)


@dataclass
class _FoldPrediction:
    records: list[PatientRecord]
    tasks: dict[str, _TaskPrediction]

    def curve_rows(self) -> list[CurveRow]:
        """Rows patient by patient, task by task, bin by bin."""
        per_task = [(task, self.tasks[task].hazard.tolist(), self.tasks[task].survival.tolist())
                    for task in TASKS]
        return [CurveRow(rec.patient_id, task, k, h, s)
                for i, rec in enumerate(self.records) for task, hz, sv in per_task
                for k, (h, s) in enumerate(zip(hz[i], sv[i]))]


def _predict_fold(model: FullModel, records: list[PatientRecord], bins: TimeBins,
                  horizons, chunk: int) -> _FoldPrediction:
    """Score `records` in forward passes of `chunk` patients, then as arrays."""
    data = cohort_arrays(records)
    parts = [model.predict_curves(data.take(slice(start, start + chunk)).batch())
             for start in range(0, len(records), chunk)]
    cols = bins.index(horizons)   # step interpolation: the bin containing each horizon
    tasks = {}
    for task in TASKS:
        hazard = np.concatenate([part[task][0] for part in parts])
        survival = np.concatenate([part[task][1] for part in parts])
        tasks[task] = _TaskPrediction(hazard, survival, point_estimate_time(survival, bins),
                                      1.0 - survival[:, cols])
    return _FoldPrediction(records, tasks)


def _fold_metrics(pred: _FoldPrediction, bins: TimeBins, tau: float,
                  horizons) -> tuple[dict[str, dict], int]:
    capped = 0
    out: dict[str, dict] = {}
    for task in TASKS:
        p = pred.tasks[task]
        labels = [getattr(rec, task) for rec in pred.records]
        try:
            cindex = harrell_cindex(-p.pred_time, labels)
        except ValueError:
            cindex = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IpcwCapWarning)
            ibs = integrated_brier(p.survival, labels, bins, tau)
            capped += sum(1 for w in caught if issubclass(w.category, IpcwCapWarning))
        aucs = [time_dependent_auc(p.scores[:, j], labels, t) for j, t in enumerate(horizons)]
        mae = mae_uncensored(p.pred_time, labels)
        out[task] = {"cindex": cindex, "ibs": ibs, "auc1": aucs[0], "auc3": aucs[1],
                     "auc5": aucs[2], "mae": mae}
    return out, capped


def _aggregate(rows: list[FoldRow]) -> dict:
    agg: dict = {}
    for task in TASKS:
        agg[task] = {}
        for name in METRIC_COLUMNS:
            vals = [r.metric(name) for r in rows
                    if r.task == task and r.metric(name) is not None]
            if not vals:
                agg[task][name] = None
                continue
            arr = np.array(vals, dtype=np.float64)
            std = float(arr.std(ddof=1)) if arr.size >= 2 else None
            agg[task][name] = {"mean": float(arr.mean()), "std": std, "n": int(arr.size)}
    return agg


def _cascade_grad_check(model: FullModel, records: list[PatientRecord],
                        bins: TimeBins) -> bool:
    """True iff the OS loss sends exactly zero gradient to the context weights."""
    data = cohort_arrays(records[:1], bins)
    os_loss = discrete_nll(model.forward(data.batch())["os"], data.labels["os"], bins)
    grads = ad.backward(os_loss, params=[p for _, p in model.named_parameters()])
    ctx = grads[model.heads.w_ctx].data
    ctx_b = grads[model.heads.b_ctx].data
    return bool(np.all(ctx == 0.0) and np.all(ctx_b == 0.0))


def apply_variant(config: RunConfig, variant: str) -> RunConfig:
    """Ablation overrides; everything not named stays identical to full."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}; expected one of {VARIANTS}")
    model = config.model
    if variant == "static":
        model = dataclasses.replace(model, horizon=1)
    elif variant == "mean_integrator":
        model = dataclasses.replace(model, integrator="mean")
    elif variant == "no_cascade":
        model = dataclasses.replace(model, cascade=False)
    return dataclasses.replace(config, model=model)


def run_crossval(config: RunConfig, records: list[PatientRecord] | None = None,
                 variant: str = "full") -> CvReport:
    """Train and evaluate one model per (repeat, fold); aggregate and CI.

    Folds that fail to train (non-finite states, gradients, or losses) are
    recorded and skipped; the caller decides whether too many failed.
    """
    start = time.perf_counter()
    if records is None:
        if config.paths.cohort is None:
            raise ValueError("config.paths.cohort is not set")
        records = load_cohort(config.paths.cohort)
    bins = config.model.bins()
    tau = config.eval.resolve_tau(bins)
    horizons = config.eval.horizons
    seed = config.train.seed
    folds = stratified_repeated_kfold(records, config.cv.k, config.cv.repeats, seed)
    widths = _feature_widths(records)

    report = CvReport(variant=variant, config=config_to_dict(config), seed=seed)
    pooled: dict[str, dict[int, list[float]]] = {task: {} for task in TASKS}

    for spec in folds:
        fold_seed = int(np.random.SeedSequence(
            [seed, 3, spec.repeat, spec.fold]).generate_state(1)[0])
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4, spec.repeat, spec.fold]))
        model = init_model(config.model, widths, rng)
        settings = dataclasses.replace(config.train, seed=fold_seed)
        try:
            train_model(model, [records[i] for i in spec.train],
                        [records[i] for i in spec.val], settings)
            preds = _predict_fold(model, [records[i] for i in spec.test], bins, horizons,
                                  config.train.batch_size)
            per_task, capped = _fold_metrics(preds, bins, tau, horizons)
        except (ad.NonFiniteError, ad.DomainError) as exc:
            report.failed_folds.append({"repeat": spec.repeat, "fold": spec.fold,
                                        "reason": str(exc)})
            continue
        report.ipcw_capped_folds += 1 if capped else 0
        for task in TASKS:
            report.rows.append(FoldRow(repeat=spec.repeat, fold=spec.fold, task=task,
                                       **per_task[task]))
            for i, risk in zip(spec.test, (-preds.tasks[task].pred_time).tolist()):
                pooled[task].setdefault(i, []).append(risk)
        if spec.repeat == 0:
            report.curves.extend(preds.curve_rows())
        if variant == "no_cascade" and "os_context_grad_zero" not in report.checks:
            report.checks["os_context_grad_zero"] = _cascade_grad_check(
                model, [records[i] for i in spec.test], bins)

    report.aggregate = _aggregate(report.rows)
    for task in TASKS:
        ids = sorted(pooled[task])
        if len(ids) < 2:
            report.ci[task] = None
            continue
        # arrays built once; each resample indexes them
        risk = np.array([np.mean(pooled[task][i]) for i in ids])
        t, e = label_arrays([getattr(records[i], task) for i in ids])
        try:
            point = cindex_arrays(risk, t, e)
            boot_seed = int(np.random.SeedSequence([seed, 5, TASKS.index(task)])
                            .generate_state(1)[0])
            lo, hi = bootstrap_ci(lambda idx: cindex_arrays(risk[idx], t[idx], e[idx]),
                                  range(len(ids)), config.eval.bootstrap_b,
                                  config.eval.level, boot_seed)
            report.ci[task] = {"metric": "cindex", "point": point, "lo": lo, "hi": hi,
                               "formatted": f"{point:.3f} with a "
                                            f"{format_ci(config.eval.level, lo, hi)}"}
        except ValueError as exc:
            report.ci[task] = {"metric": "cindex", "error": str(exc)}

    report.runtime_seconds = time.perf_counter() - start
    return report


def run_ablation(config: RunConfig, variant: str,
                 records: list[PatientRecord] | None = None) -> CvReport:
    return run_crossval(apply_variant(config, variant), records=records, variant=variant)


def _fmt(value: float | None) -> str:
    return "NA" if value is None else f"{value:.6g}"


def emit_report(report: CvReport, out_dir) -> dict[str, str]:
    """Write report.json, metrics.csv, and curves.csv; returns the paths.

    Each file is written in full to a temporary file in `out_dir`, and the
    three replace their targets only once all are written, so a failure
    midway leaves the previous report whole and no temporary file behind.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("report.json", "metrics.csv", "curves.csv")}
    temps = {name: os.path.join(out_dir, f".{name}.tmp") for name in paths}
    try:
        with open(temps["report.json"], "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=1)
            fh.write("\n")
        with open(temps["metrics.csv"], "w") as fh:
            fh.write("repeat,fold,task," + ",".join(METRIC_COLUMNS) + "\n")
            for r in report.rows:
                cells = [str(r.repeat), str(r.fold), r.task]
                cells += [_fmt(r.metric(name)) for name in METRIC_COLUMNS]
                fh.write(",".join(cells) + "\n")
        with open(temps["curves.csv"], "w") as fh:
            fh.write("patient_id,task,bin,hazard,survival\n")
            for c in report.curves:
                fh.write(f"{c.patient_id},{c.task},{c.bin},{c.hazard:.6g},{c.survival:.6g}\n")
        for name, tmp in temps.items():
            os.replace(tmp, paths[name])
    finally:
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.remove(tmp)
    return paths


def evaluate_model(model: FullModel, records: list[PatientRecord], config: RunConfig,
                   variant: str = "evaluate") -> CvReport:
    """Single-model evaluation presented as one pseudo-fold."""
    bins = model.config.bins()
    tau = config.eval.resolve_tau(bins)
    preds = _predict_fold(model, records, bins, config.eval.horizons,
                          config.train.batch_size)
    per_task, capped = _fold_metrics(preds, bins, tau, config.eval.horizons)
    report = CvReport(variant=variant, config=config_to_dict(config),
                      seed=config.train.seed)
    report.ipcw_capped_folds = 1 if capped else 0
    for task in TASKS:
        report.rows.append(FoldRow(repeat=0, fold=0, task=task, **per_task[task]))
    report.curves = preds.curve_rows()
    report.aggregate = _aggregate(report.rows)
    return report
