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
from .metrics import (IpcwCapWarning, bootstrap_ci, format_ci, harrell_cindex,
                      integrated_brier, mae_uncensored, time_dependent_auc)
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
    region_width = None
    for rec in records:
        for kind in ANATOMICAL_KINDS:
            r = rec.regions[kind]
            if r.present:
                region_width = r.features.shape[0]
                break
        if region_width is not None:
            break
    if region_width is None:
        raise ValueError("no present regions anywhere in the cohort")
    widths = {k: region_width for k in ANATOMICAL_KINDS}
    widths[NodeKind.GLOBAL_CT] = region_width
    widths[NodeKind.CLINICAL] = records[0].clinical.shape[0]
    return widths


@dataclass
class _FoldPrediction:
    record: PatientRecord
    risks: dict[str, float]
    scores: dict[str, dict[float, float]]   # task -> horizon -> P(event <= t)
    curves: dict[str, tuple[np.ndarray, np.ndarray]]  # task -> (hazard, survival)
    pred_times: dict[str, float]


def _predict_fold(model: FullModel, records: list[PatientRecord], bins: TimeBins,
                  horizons, chunk: int) -> list[_FoldPrediction]:
    """Score `records` in batches of `chunk`, so memory is bounded by one chunk."""
    data = cohort_arrays(records)
    preds = []
    for start in range(0, len(records), chunk):
        part = records[start:start + chunk]
        curves_of = model.predict_curves(data.take(slice(start, start + chunk)).batch())
        for rec, curves in zip(part, curves_of):
            risks, scores, arrs, times = {}, {}, {}, {}
            for task, (hc, sc) in curves.items():
                est = point_estimate_time(sc, bins)
                risks[task] = -est
                times[task] = est
                scores[task] = {t: 1.0 - sc.at_time(t, bins) for t in horizons}
                arrs[task] = (hc.h, sc.s)
            preds.append(_FoldPrediction(rec, risks, scores, arrs, times))
    return preds


def _fold_metrics(preds: list[_FoldPrediction], bins: TimeBins, tau: float,
                  horizons) -> tuple[dict[str, dict], int]:
    from .heads import SurvivalCurve

    capped = 0
    out: dict[str, dict] = {}
    for task in TASKS:
        labels = [getattr(p.record, task) for p in preds]
        risks = [p.risks[task] for p in preds]
        try:
            cindex = harrell_cindex(risks, labels)
        except ValueError:
            cindex = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IpcwCapWarning)
            ibs = integrated_brier([SurvivalCurve(p.curves[task][1]) for p in preds],
                                   labels, bins, tau)
            capped += sum(1 for w in caught if issubclass(w.category, IpcwCapWarning))
        aucs = [time_dependent_auc([p.scores[task][t] for p in preds], labels, t)
                for t in horizons]
        mae = mae_uncensored([p.pred_times[task] for p in preds], labels)
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
    out = model.forward(data.batch())
    os_loss = discrete_nll(out.os_hazards, data.labels["os"], bins)
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
    plan = stratified_repeated_kfold(records, config.cv.k, config.cv.repeats, seed)
    widths = _feature_widths(records)

    report = CvReport(variant=variant, config=config_to_dict(config), seed=seed)
    pooled: dict[str, dict[int, list[float]]] = {task: {} for task in TASKS}

    for spec in plan.folds:
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
        for p, i in zip(preds, spec.test):
            for task in TASKS:
                pooled[task].setdefault(i, []).append(p.risks[task])
                if spec.repeat == 0:
                    hz, sv = p.curves[task]
                    for k in range(bins.count):
                        report.curves.append(CurveRow(p.record.patient_id, task, k,
                                                      float(hz[k]), float(sv[k])))
        if variant == "no_cascade" and "os_context_grad_zero" not in report.checks:
            report.checks["os_context_grad_zero"] = _cascade_grad_check(
                model, [records[i] for i in spec.test], bins)

    report.aggregate = _aggregate(report.rows)
    for task in TASKS:
        items = [(float(np.mean(v)), getattr(records[i], task))
                 for i, v in sorted(pooled[task].items())]
        if len(items) < 2:
            report.ci[task] = None
            continue
        try:
            point = harrell_cindex([r for r, _ in items], [lab for _, lab in items])
            boot_seed = int(np.random.SeedSequence([seed, 5, TASKS.index(task)])
                            .generate_state(1)[0])
            lo, hi = bootstrap_ci(
                lambda sample: harrell_cindex([r for r, _ in sample],
                                              [lab for _, lab in sample]),
                items, config.eval.bootstrap_b, config.eval.level, boot_seed)
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
    """Write report.json, metrics.csv, and curves.csv; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("report.json", "metrics.csv", "curves.csv")}
    with open(paths["report.json"], "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=1)
        fh.write("\n")
    with open(paths["metrics.csv"], "w") as fh:
        fh.write("repeat,fold,task," + ",".join(METRIC_COLUMNS) + "\n")
        for r in report.rows:
            cells = [str(r.repeat), str(r.fold), r.task]
            cells += [_fmt(r.metric(name)) for name in METRIC_COLUMNS]
            fh.write(",".join(cells) + "\n")
    with open(paths["curves.csv"], "w") as fh:
        fh.write("patient_id,task,bin,hazard,survival\n")
        for c in report.curves:
            fh.write(f"{c.patient_id},{c.task},{c.bin},{c.hazard:.6g},{c.survival:.6g}\n")
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
    for p in preds:
        for task in TASKS:
            hz, sv = p.curves[task]
            for k in range(bins.count):
                report.curves.append(CurveRow(p.record.patient_id, task, k,
                                              float(hz[k]), float(sv[k])))
    report.aggregate = _aggregate(report.rows)
    return report
