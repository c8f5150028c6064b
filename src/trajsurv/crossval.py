"""Cross-validation engine, single-model evaluation, and report emission."""

from __future__ import annotations

import dataclasses
import json
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError, map_arrays
from .cohort import CohortArrays, FoldSpec, stratified_repeated_kfold
from .config import RunConfig, config_to_dict
from .graph import ANATOMICAL_KINDS, NodeKind
from .heads import SaturatedCurveError, TimeBins, point_estimate_time
from .metrics import (IpcwCapWarning, bootstrap_cindex, cindex_arrays, format_ci,
                      integrated_brier, mae_uncensored, time_dependent_auc)
from .model import FullModel, init_model
from .training import train_model

METRIC_COLUMNS = ("cindex", "ibs", "auc1", "auc3", "auc5", "mae")
AUC_HORIZONS = (1.0, 3.0, 5.0)   # years: the horizons of auc1, auc3 and auc5
REPORT_FILES = ("report.json", "metrics.csv", "curves.csv", "timings.json")
TASKS = ("os", "dfs")
# Patients per scoring pass. A row of a BLAS matrix product may depend on how
# many rows share the call, so scoring never takes its pass length from the
# training batch size.
SCORE_PASS = 64


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


@dataclass(eq=False)
class CurveTable:
    """Curves held as arrays: the patient ids (n,) and, per task, the (n, K)
    hazards and survival. Its rows are made only when it is iterated: one
    `CurveRow` per (patient, task, bin), patient by patient, task by task,
    bin by bin."""
    ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=object))
    tasks: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(hazard.size for hazard, _ in self.tasks.values())

    def __iter__(self):
        for i, pid in enumerate(self.ids.tolist()):
            for task, (hazard, survival) in self.tasks.items():
                for k, (h, s) in enumerate(zip(hazard[i].tolist(), survival[i].tolist())):
                    yield CurveRow(pid, task, k, h, s)


@dataclass
class CvReport:
    """The report of a run. `curves` holds the repeat-0 curves of its folds
    as arrays, in outcome order; `emit_report` writes them row by row.
    `tied_risk_folds` names each (repeat, fold, task) whose test patients'
    risks all tie, so that its C-index says nothing about the model."""
    config: dict
    seed: int
    rows: list[FoldRow] = field(default_factory=list)
    curves: CurveTable = field(default_factory=CurveTable)
    failed_folds: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    ci: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    ipcw_capped_folds: int = 0
    tied_risk_folds: list[dict] = field(default_factory=list)
    evaluation: bool = False
    runtime_seconds: float = 0.0

    @property
    def total_folds(self) -> int:
        return len({(r.repeat, r.fold) for r in self.rows}) + len(self.failed_folds)

    def mean_metric(self, task: str, name: str) -> float | None:
        agg = self.aggregate.get(task, {}).get(name)
        return None if agg is None else agg.get("mean")

    def to_json_dict(self) -> dict:
        return {
            "evaluation": self.evaluation,
            "config": self.config,
            "seed": self.seed,
            "folds": [dataclasses.asdict(r) for r in self.rows],
            "failed_folds": self.failed_folds,
            "aggregate": self.aggregate,
            "ci": self.ci,
            "checks": self.checks,
            "warnings": {"ipcw_capped_folds": self.ipcw_capped_folds,
                         "tied_risk_folds": self.tied_risk_folds},
        }


def feature_widths(cohort: CohortArrays) -> dict[NodeKind, int]:
    width = cohort.regions.shape[2]
    return {**{k: width for k in ANATOMICAL_KINDS}, NodeKind.GLOBAL_CT: width,
            NodeKind.CLINICAL: cohort.clinical.shape[1]}


def fold_model(config: RunConfig, widths: dict[NodeKind, int], repeat: int,
               fold: int) -> FullModel:
    """The untrained model of fold (repeat, fold); `train` fits fold (0, 0)'s."""
    rng = np.random.default_rng(np.random.SeedSequence([config.train.seed, 4, repeat, fold]))
    return init_model(config.model, widths, rng)


@dataclass(eq=False)
class FoldOutcome:
    """What one fold gives the report: a plain, picklable value of arrays. A
    fold that failed to train holds only its `failure` reason."""
    repeat: int
    fold: int
    rows: list[FoldRow] = field(default_factory=list)
    test: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))  # cohort indices
    risks: dict[str, np.ndarray] = field(default_factory=dict)  # per task, in `test` order
    # Repeat 0 only: per task the (n, K) hazards and survival, and the patient ids.
    curves: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    ids: np.ndarray | None = None
    capped: bool = False                     # an IPCW weight was capped
    cascade_grad_zero: bool | None = None    # models without the cascade only
    failure: str | None = None


def _predict_fold(model: FullModel,
                  cohort: CohortArrays) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per task, the (n, K) hazards and survival of `cohort`, scored in
    forward passes of `SCORE_PASS` patients. A trailing single patient joins
    the pass before it, so no pass of a larger cohort scores one patient
    through numpy's matrix-vector path. The passes depend on nothing but the
    cohort's size, so neither do the bits."""
    ends = list(range(SCORE_PASS, len(cohort), SCORE_PASS))
    if ends and ends[-1] == len(cohort) - 1:
        ends.pop()
    bounds = zip([0] + ends, ends + [len(cohort)])
    parts = [model.predict_curves(cohort.take(slice(start, stop))) for start, stop in bounds]
    return {task: tuple(np.concatenate([part[task][j] for part in parts]) for j in (0, 1))
            for task in TASKS}


def _fold_metrics(cohort: CohortArrays, curves: dict[str, tuple[np.ndarray, np.ndarray]],
                  pred_time: dict[str, np.ndarray], bins: TimeBins,
                  tau: float) -> tuple[dict[str, dict], int]:
    """Per task the metrics of the curves and point-estimate times of
    `cohort`, and the number of capped IPCW weights."""
    capped = 0
    out: dict[str, dict] = {}
    for task in TASKS:
        s, pt = curves[task][1], pred_time[task]
        t, e = cohort.time[task], cohort.event[task]
        try:
            cindex = cindex_arrays(-pt, t, e)
        except ValueError:
            cindex = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IpcwCapWarning)
            ibs = integrated_brier(s, t, e, bins, tau)
            capped += sum(1 for w in caught if issubclass(w.category, IpcwCapWarning))
        # P(event <= h) = 1 - S at the bin containing h (step interpolation)
        aucs = [time_dependent_auc(1.0 - s[:, bins.index(h)], t, e, h) for h in AUC_HORIZONS]
        out[task] = {"cindex": cindex, "ibs": ibs, "auc1": aucs[0], "auc3": aucs[1],
                     "auc5": aucs[2], "mae": mae_uncensored(pt, t, e)}
    return out, capped


def _aggregate(rows: list[FoldRow]) -> dict:
    agg: dict = {}
    for task in TASKS:
        agg[task] = {}
        for name in METRIC_COLUMNS:
            arr = np.array([r.metric(name) for r in rows
                            if r.task == task and r.metric(name) is not None], dtype=np.float64)
            std = float(arr.std(ddof=1)) if arr.size >= 2 else None
            agg[task][name] = (None if arr.size == 0 else
                               {"mean": float(arr.mean()), "std": std, "n": int(arr.size)})
    return agg


def _cascade_grad_check(model: FullModel, cohort: CohortArrays) -> bool:
    """True iff `cohort`'s OS logits are the same bits under a copy of the
    model whose heads arrays other than `w_os` and `b_os` are all moved:
    then the mortality head reads nothing of the recurrence branch, and no
    OS gradient reaches it. It runs the forward only, to test what the
    model computes rather than how it is built. The copy lays out its own
    theta (`FullModel`), so the check never touches the model's parameters."""
    heads = model.heads
    moved = dataclasses.replace(map_arrays(heads, lambda a: 1.0 - a),
                                w_os=heads.w_os, b_os=heads.b_os)
    return np.array_equal(model.forward(cohort)["os"],
                          dataclasses.replace(model, heads=moved).forward(cohort)["os"])


def _score(model: FullModel, cohort: CohortArrays, test: list[int] | np.ndarray,
           config: RunConfig, repeat: int, fold: int) -> FoldOutcome:
    """Score the patients `test` of `cohort` as fold (repeat, fold), with the
    model's own bins; the one path from a trained model to report rows."""
    bins = model.config.bins()
    tau = config.eval.resolve_tau(bins)
    scored = cohort.take(test)
    curves = _predict_fold(model, scored)
    pred_time = {task: point_estimate_time(curves[task][1], bins) for task in TASKS}
    per_task, capped = _fold_metrics(scored, curves, pred_time, bins, tau)
    first = repeat == 0
    return FoldOutcome(repeat, fold, rows=[FoldRow(repeat, fold, task, **per_task[task])
                                           for task in TASKS],
                       test=np.asarray(test, dtype=np.intp),
                       risks={task: -pred_time[task] for task in TASKS},
                       curves=curves if first else {}, ids=scored.ids if first else None,
                       capped=capped > 0)


def run_fold(config: RunConfig, cohort: CohortArrays, spec: FoldSpec) -> FoldOutcome:
    """Train the model of fold `spec` and score its test patients. A model
    without the cascade also checks that no OS gradient reaches its context.

    A fold that fails to train (non-finite states, gradients, or losses) or
    whose hazards saturate its survival curves gives an outcome holding only
    the reason.
    """
    model = fold_model(config, feature_widths(cohort), spec.repeat, spec.fold)
    fold_seed = int(np.random.SeedSequence(
        [config.train.seed, 3, spec.repeat, spec.fold]).generate_state(1)[0])
    try:
        train_model(model, cohort.take(spec.train), cohort.take(spec.val),
                    dataclasses.replace(config.train, seed=fold_seed))
        outcome = _score(model, cohort, spec.test, config, spec.repeat, spec.fold)
        if not config.model.cascade:
            outcome.cascade_grad_zero = _cascade_grad_check(model, cohort.take(spec.test[:1]))
    except (NonFiniteError, SaturatedCurveError) as exc:
        return FoldOutcome(spec.repeat, spec.fold, failure=str(exc))
    return outcome


def _pooled_ci(config: RunConfig, cohort: CohortArrays, outcomes: list[FoldOutcome],
               task: str, tied: list[dict]) -> dict | None:
    """Bootstrap interval of the C-index of each patient's mean risk over its
    folds. The patients with c risks are one (patients, c) matrix of their
    risks in outcome order, whose row means sum each row as `np.mean` sums
    the patient's list; a sum in any other order differs from eight folds
    on. It is withheld, as an error naming them, if the task has `tied`
    folds: their pooled risks would rank patients by fold alone."""
    if not outcomes:
        return None
    pairs = [f"(repeat {f['repeat']}, fold {f['fold']})" for f in tied if f["task"] == task]
    if pairs:
        return {"metric": "cindex",
                "error": f"no pooled interval: the risks tie within {', '.join(pairs)}"}
    test = np.concatenate([o.test for o in outcomes])
    counts = np.bincount(test)
    ids = np.flatnonzero(counts)
    if ids.size < 2:
        return None
    by_patient = np.concatenate([o.risks[task] for o in outcomes])[
        np.argsort(test, kind="stable")]
    counts = counts[ids]
    starts = np.cumsum(counts) - counts
    risk = np.empty(ids.size)
    for c in np.unique(counts).tolist():
        rows = counts == c
        risk[rows] = by_patient[starts[rows, None] + np.arange(c)].mean(axis=1)
    t, e = cohort.time[task][ids], cohort.event[task][ids]
    try:
        point = cindex_arrays(risk, t, e)
        boot_seed = int(np.random.SeedSequence([config.train.seed, 5, TASKS.index(task)])
                        .generate_state(1)[0])
        lo, hi = bootstrap_cindex(risk, t, e, config.eval.bootstrap_b, config.eval.level,
                                  boot_seed)
    except ValueError as exc:
        return {"metric": "cindex", "error": str(exc)}
    return {"metric": "cindex", "point": point, "lo": lo, "hi": hi,
            "formatted": f"{point:.3f} with a {format_ci(config.eval.level, lo, hi)}"}


def _curve_table(outcomes: list[FoldOutcome]) -> CurveTable:
    """The curves of the outcomes that hold them, joined in outcome order."""
    if not outcomes:
        return CurveTable()
    return CurveTable(np.concatenate([o.ids for o in outcomes]),
                      {task: tuple(np.concatenate([o.curves[task][j] for o in outcomes])
                                   for j in (0, 1)) for task in TASKS})


def assemble(config: RunConfig, outcomes: list[FoldOutcome],
             cohort: CohortArrays | None = None) -> CvReport:
    """The report of `outcomes`, in their order: its rows, and its curves as
    one `CurveTable` of the repeat-0 folds' arrays, with no object per row.
    Given the `cohort`, it also holds the pooled C-index interval of each
    task, or why it is withheld."""
    done = [o for o in outcomes if o.failure is None]
    rows = [row for o in done for row in o.rows]
    flags = [o.cascade_grad_zero for o in done if o.cascade_grad_zero is not None]
    tied = [{"repeat": o.repeat, "fold": o.fold, "task": task}
            for o in done for task, risk in o.risks.items()
            if len(risk) > 1 and (risk == risk[0]).all()]
    return CvReport(
        config=config_to_dict(config), seed=config.train.seed, rows=rows,
        curves=_curve_table([o for o in done if o.ids is not None]),
        failed_folds=[{"repeat": o.repeat, "fold": o.fold, "reason": o.failure}
                      for o in outcomes if o.failure is not None],
        aggregate=_aggregate(rows),
        ci={} if cohort is None else {task: _pooled_ci(config, cohort, done, task, tied)
                                      for task in TASKS},
        checks={"os_context_grad_zero": all(flags)} if flags else {},
        ipcw_capped_folds=sum(1 for o in done if o.capped),
        tied_risk_folds=tied)


def run_crossval(config: RunConfig, cohort: CohortArrays) -> CvReport:
    """Train and score one model per (repeat, fold) of the plan, then assemble
    the report; the caller decides whether too many folds failed."""
    start = time.perf_counter()
    outcomes = [run_fold(config, cohort, spec)
                for spec in stratified_repeated_kfold(cohort, config.cv.k, config.cv.repeats,
                                                      config.train.seed)]
    report = assemble(config, outcomes, cohort)
    report.runtime_seconds = time.perf_counter() - start
    return report


def emit_report(report: CvReport, out_dir) -> dict[str, str]:
    """Write report.json, metrics.csv, curves.csv and timings.json; returns
    the paths.

    The first three depend only on the config, the cohort and the seed, so
    a rerun writes the same bytes; the wall-clock `runtime_seconds` goes to
    timings.json. Each file is written in full to a temporary file in
    `out_dir`, and the four replace their targets only once all are written,
    so a failure midway leaves the previous report whole and no temporary
    file behind.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name) for name in REPORT_FILES}
    temps = {name: os.path.join(out_dir, f".{name}.tmp") for name in paths}
    try:
        with open(temps["timings.json"], "w") as fh:
            json.dump({"runtime_seconds": report.runtime_seconds}, fh, indent=1)
            fh.write("\n")
        with open(temps["report.json"], "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=1)
            fh.write("\n")
        with open(temps["metrics.csv"], "w") as fh:
            fh.write("repeat,fold,task," + ",".join(METRIC_COLUMNS) + "\n")
            for r in report.rows:
                cells = ["NA" if v is None else f"{v:.6g}" for v in map(r.metric, METRIC_COLUMNS)]
                fh.write(",".join([str(r.repeat), str(r.fold), r.task] + cells) + "\n")
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


def evaluate_model(model: FullModel, cohort: CohortArrays, config: RunConfig) -> CvReport:
    """Single-model evaluation presented as one pseudo-fold."""
    outcome = _score(model, cohort, np.arange(len(cohort)), config, 0, 0)
    return dataclasses.replace(assemble(config, [outcome]), evaluation=True)
