"""Cross-validation engine, ablation overrides, and report emission."""

import dataclasses
import json
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from trajsurv import autodiff as ad
from trajsurv import cli
from trajsurv import crossval as cv
from trajsurv.config import config_from_dict
from oracles import (curve_rows, pair_cindex, scalar_hazards, scalar_point_estimate,
                     scalar_survival)
from trajsurv.cohort import simulate_cohort, stratified_repeated_kfold
from trajsurv.heads import point_estimate_time
from trajsurv.crossval import (CurveTable, CvReport, FoldRow, _aggregate, emit_report,
                               evaluate_model, run_crossval)
from trajsurv.metrics import bootstrap_ci, harrell_cindex
from trajsurv.model import SCORE_PASS, init_model
from test_training import featureless_cohort

SMALL_DOC = {
    "model": {"d": 8, "d_t": 4, "d_h": 8, "d_c": 4, "T": 3, "K": 4, "message_dim": 8},
    "train": {"lr": 0.01, "batch_size": 16, "max_epochs": 2, "seed": 0},
    "eval": {"bootstrap_b": 100},
    "simulate": {"n": 30, "region_len": 4, "clinical_len": 3},
    "cv": {"k": 3, "repeats": 2},
}


def small_config(**overrides):
    doc = json.loads(json.dumps(SMALL_DOC))
    for name, section in overrides.items():
        doc[name] = {**doc.get(name, {}), **section}
    return config_from_dict(doc)


@pytest.fixture(scope="module")
def small_run():
    config = small_config()
    cohort, _ = simulate_cohort(config.simulate.n, seed=0, scenario=config.simulate)
    return config, cohort, run_crossval(config, cohort)


class TestRunCrossval:
    def test_row_and_fold_accounting(self, small_run):
        config, cohort, report = small_run
        assert report.total_folds == 6
        assert not report.failed_folds
        assert len(report.rows) == 6 * 2
        assert {(r.repeat, r.fold) for r in report.rows} == \
            {(rep, f) for rep in range(2) for f in range(3)}
        assert {r.task for r in report.rows} == {"os", "dfs"}

    def test_curves_come_from_first_repeat_only(self, small_run):
        config, cohort, report = small_run
        # Every patient is tested once per repeat; curves keep repeat 0 only.
        assert len(report.curves) == len(cohort) * 2 * config.model.num_bins
        ids = {c.patient_id for c in report.curves}
        assert ids == {r.patient_id for r in cohort}
        for c in report.curves:
            assert 0.0 < c.hazard < 1.0
            assert 0.0 < c.survival <= 1.0

    def test_aggregate_matches_row_means(self, small_run):
        _, _, report = small_run
        for task in ("os", "dfs"):
            for name in cv.METRIC_COLUMNS:
                vals = [r.metric(name) for r in report.rows
                        if r.task == task and r.metric(name) is not None]
                agg = report.aggregate[task][name]
                if not vals:
                    assert agg is None
                    continue
                assert agg["mean"] == pytest.approx(np.mean(vals), abs=1e-12)
                assert agg["n"] == len(vals)
                if len(vals) >= 2:
                    assert agg["std"] == pytest.approx(np.std(vals, ddof=1), abs=1e-12)

    def test_ci_formatting(self, small_run):
        _, _, report = small_run
        for task in ("os", "dfs"):
            ci = report.ci[task]
            assert ci["metric"] == "cindex"
            assert ci["lo"] <= ci["point"] <= ci["hi"]
            assert re.match(r"^\d\.\d{3} with a 95% CI of \[\d\.\d{3}, \d\.\d{3}\]$",
                            ci["formatted"])

    def test_same_seed_reproduces_rows(self, small_run):
        config, cohort, report = small_run
        again = run_crossval(config, cohort)
        assert again.rows == report.rows
        assert again.ci == report.ci

    def test_failed_folds_are_recorded_and_skipped(self, small_run, monkeypatch):
        config, cohort, _ = small_run
        real = cv.train_model
        calls = []

        def flaky(model, train_recs, val_recs, settings):
            calls.append(1)
            if len(calls) == 2:
                raise ad.NonFiniteError("synthetic blow-up")
            return real(model, train_recs, val_recs, settings)

        monkeypatch.setattr(cv, "train_model", flaky)
        report = run_crossval(config, cohort)
        assert len(report.failed_folds) == 1
        assert report.failed_folds[0]["reason"] == "synthetic blow-up"
        assert report.total_folds == 6
        assert len(report.rows) == 5 * 2


def same_value(a, b) -> bool:
    """==, with arrays compared by `np.array_equal` and their dtype."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same_value(a[key], b[key]) for key in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same_value(x, y) for x, y in zip(a, b)))
    return a == b


def test_fold_outcomes_pickle_and_assemble_into_the_crossval_report(monkeypatch):
    """`run_fold` over the plan gives plain values that survive pickling, and
    `assemble` of them is `run_crossval`'s report, with one fold failing."""
    config = small_config(model={"cascade": False})
    cohort, _ = simulate_cohort(config.simulate.n, seed=0, scenario=config.simulate)
    real, calls = cv.train_model, []

    def flaky(model, train_recs, val_recs, settings):
        calls.append(1)
        if len(calls) % 6 == 2:   # the second fold of each run
            raise ad.NonFiniteError("synthetic blow-up")
        return real(model, train_recs, val_recs, settings)

    monkeypatch.setattr(cv, "train_model", flaky)
    report = run_crossval(config, cohort)
    plan = stratified_repeated_kfold(cohort, config.cv.k, config.cv.repeats, config.train.seed)
    outcomes = [cv.run_fold(config, cohort, spec) for spec in plan]
    restored = pickle.loads(pickle.dumps(outcomes))
    for got, want in zip(restored, outcomes, strict=True):
        for f in dataclasses.fields(cv.FoldOutcome):
            assert same_value(getattr(got, f.name), getattr(want, f.name)), f.name
    assert [o.failure for o in restored] == [None, "synthetic blow-up"] + [None] * 4
    assert [bool(o.curves) for o in restored] == [True, False, True, False, False, False]
    for o in restored:
        if o.failure is None:
            assert o.test.dtype == np.intp and o.test.tolist() == plan[3 * o.repeat + o.fold].test
            assert all(o.risks[task].dtype == np.float64 for task in cv.TASKS)
            assert (o.ids is None) == (o.repeat != 0)
    again = cv.assemble(config, restored, cohort)
    assert report.failed_folds == [{"repeat": 0, "fold": 1, "reason": "synthetic blow-up"}]
    assert report.checks == {"os_context_grad_zero": True}
    for name in ("rows", "ci", "checks", "failed_folds", "aggregate", "ipcw_capped_folds",
                 "config"):
        assert getattr(again, name) == getattr(report, name), name
    # Two of the three repeat-0 folds hold curves, row for row the oracle's.
    rows = curve_rows(outcomes)
    assert len(report.curves) == len(again.curves) == len(rows) > 0
    assert list(again.curves) == list(report.curves) == rows


@pytest.mark.parametrize("run", ["crossval_with_absent_regions", "evaluate"])
def test_curve_table_rows_are_the_oracle_rows_of_its_outcomes(run, monkeypatch):
    """The rows a report's curves yield, and their count, are those of the
    outcomes it was assembled from."""
    config = small_config(cv={"repeats": 1})
    cohort, _ = simulate_cohort(config.simulate.n, seed=2, scenario=config.simulate)
    real, outcomes = cv.assemble, []
    monkeypatch.setattr(cv, "assemble", lambda config, got, cohort=None: (
        outcomes.extend(got) or real(config, got, cohort)))
    if run == "evaluate":
        model = init_model(config.model, cv.feature_widths(cohort), np.random.default_rng(3))
        report = evaluate_model(model, cohort, config)
    else:
        present = cohort.present.copy()
        present[::3, 0] = False          # the liver of every third patient
        present[1::4, [1, 3]] = False
        report = run_crossval(config, cohort.with_presence(present))
    rows = curve_rows(outcomes)
    assert len(report.curves) == len(rows) == len(cohort) * 2 * config.model.num_bins
    assert list(report.curves) == rows


def test_assembled_curves_hold_no_object_per_row():
    """`assemble` of one outcome of 2000 patients at K = 12 keeps its curves
    as arrays: under 2 MB retained, where a `CurveRow` per (patient, task,
    bin) retained 8.1 MB."""
    n, k = 2000, 12
    rng = np.random.default_rng(0)
    outcome = cv.FoldOutcome(0, 0, test=np.arange(n),
                             curves={task: (rng.uniform(0.01, 0.5, (n, k)),
                                            rng.uniform(0.0, 1.0, (n, k))) for task in cv.TASKS},
                             ids=np.array([f"p{i}" for i in range(n)], dtype=object))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = cv.assemble(small_config(), [outcome])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.curves) == n * 2 * k
    assert retained < 2 * 2**20, retained


def cli_config(tmp_path, *argv):
    """The config the CLI runs for `argv` over SMALL_DOC."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_DOC))
    return cli._load(cli.build_parser().parse_args([*argv, "--config", str(path)]))


class TestAblation:
    def test_apply_variant_overrides(self, tmp_path):
        # `ablate --variant X` runs the config with X's model keys set.
        config = cli_config(tmp_path, "crossval")
        assert config == small_config()

        def ablated(variant):
            return cli_config(tmp_path, "ablate", "--variant", variant)
        assert ablated("full") == config
        assert ablated("static").model.horizon == 1
        assert ablated("mean_integrator").model.integrator == "mean"
        assert not ablated("no_cascade").model.cascade
        # Everything else stays put.
        assert ablated("static").train == config.train
        assert dataclasses.replace(ablated("static"), model=config.model) == config

    def test_unknown_variant_rejected(self, tmp_path):
        with pytest.raises(cli.UsageError, match="invalid choice: 'dropout'"):
            cli_config(tmp_path, "ablate", "--variant", "dropout")

    def test_cascade_check_reports_every_fold(self):
        # Hand-built outcomes: a later fold's nonzero context gradient counts.
        config = small_config()

        def assembled(*flags):
            outcomes = [cv.FoldOutcome(0, fold, cascade_grad_zero=flag)
                        for fold, flag in enumerate(flags)]
            return cv.assemble(config, outcomes).checks

        assert assembled(True, False) == {"os_context_grad_zero": False}
        assert assembled(False, True) == {"os_context_grad_zero": False}
        assert assembled(True, True) == {"os_context_grad_zero": True}
        assert assembled(None, None) == {}

    def test_crossval_of_a_model_without_cascade_checks_it(self, small_run):
        config = small_config(model={"cascade": False}, cv={"repeats": 1})
        report = run_crossval(config, small_run[1])
        assert not report.evaluation
        assert report.checks == {"os_context_grad_zero": True}

    def test_no_cascade_blocks_context_gradient(self, small_run, tmp_path):
        _, cohort, _ = small_run
        config = cli_config(tmp_path, "ablate", "--variant", "no_cascade")
        report = run_crossval(dataclasses.replace(config, cv=small_config(cv={"repeats": 1}).cv),
                              cohort)
        assert report.config["model"]["cascade"] is False
        assert report.checks["os_context_grad_zero"] is True


def synthetic_report():
    report = CvReport(config={"note": "hand-built"}, seed=7)
    report.rows = [FoldRow(0, 0, "os", 0.123456789, None, 1.0, 0.5, 0.25, 2.0),
                   FoldRow(0, 0, "dfs", 0.75, 0.1, None, None, None, None)]
    report.curves = CurveTable(np.array(["p0"], dtype=object),
                               {"os": (np.array([[0.123456789, 0.25]]),
                                       np.array([[0.987654321, 0.5]]))})
    report.aggregate = _aggregate(report.rows)
    return report


class TestEmitReport:
    def test_csv_layout_and_six_digit_rounding(self, tmp_path):
        paths = emit_report(synthetic_report(), tmp_path)
        lines = open(paths["metrics.csv"]).read().splitlines()
        assert lines[0] == "repeat,fold,task,cindex,ibs,auc1,auc3,auc5,mae"
        assert lines[1] == "0,0,os,0.123457,NA,1,0.5,0.25,2"
        assert lines[2] == "0,0,dfs,0.75,0.1,NA,NA,NA,NA"
        curve_lines = open(paths["curves.csv"]).read().splitlines()
        assert curve_lines[0] == "patient_id,task,bin,hazard,survival"
        assert curve_lines[1] == "p0,os,0,0.123457,0.987654"
        assert curve_lines[2] == "p0,os,1,0.25,0.5"

    def test_empty_report_writes_headers_only(self, tmp_path):
        report = CvReport(config={}, seed=0)
        report.aggregate = _aggregate(report.rows)
        paths = emit_report(report, tmp_path)
        assert open(paths["metrics.csv"]).read() == \
            "repeat,fold,task,cindex,ibs,auc1,auc3,auc5,mae\n"
        assert open(paths["curves.csv"]).read() == \
            "patient_id,task,bin,hazard,survival\n"

    def test_report_json_round_trips(self, tmp_path):
        report = synthetic_report()
        paths = emit_report(report, tmp_path)
        doc = json.load(open(paths["report.json"]))
        assert doc == report.to_json_dict()
        assert doc["evaluation"] is False
        assert doc["seed"] == 7
        assert doc["warnings"] == {"ipcw_capped_folds": 0, "tied_risk_folds": []}
        # The wall-clock time is kept apart, so that reruns write the same report.json.
        assert "runtime_seconds" not in doc
        assert json.load(open(paths["timings.json"])) == {
            "runtime_seconds": report.runtime_seconds}

    def test_failed_emit_leaves_the_previous_report_whole(self, tmp_path):
        emit_report(synthetic_report(), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        report = synthetic_report()
        report.seed = 8
        report.rows = report.rows[:1]
        # A hazard that cannot be formatted makes the write of curves.csv raise.
        report.curves = CurveTable(np.array(["p0", "p1"], dtype=object),
                                   {"os": (np.array([[0.123456789, 0.25],
                                                     ["not a number", 0.25]], dtype=object),
                                           np.array([[0.987654321, 0.5], [0.5, 0.25]]))})
        with pytest.raises(ValueError):
            emit_report(report, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_json_aggregate_recomputable_from_folds(self, small_run, tmp_path):
        _, _, report = small_run
        paths = emit_report(report, tmp_path)
        doc = json.load(open(paths["report.json"]))
        for task in ("os", "dfs"):
            for name in cv.METRIC_COLUMNS:
                vals = [f[name] for f in doc["folds"]
                        if f["task"] == task and f[name] is not None]
                agg = doc["aggregate"][task][name]
                if not vals:
                    assert agg is None
                else:
                    assert abs(agg["mean"] - np.mean(vals)) < 1e-9


class TestAggregate:
    def test_none_metrics_are_excluded(self):
        rows = [FoldRow(0, 0, "os", 0.6, None, None, None, None, None),
                FoldRow(0, 1, "os", 0.8, None, None, None, None, None)]
        agg = _aggregate(rows)
        assert agg["os"]["cindex"] == {"mean": pytest.approx(0.7), "std":
                                       pytest.approx(np.std([0.6, 0.8], ddof=1)),
                                       "n": 2}
        assert agg["os"]["ibs"] is None
        assert agg["dfs"]["cindex"] is None

    def test_single_value_has_no_std(self):
        agg = _aggregate([FoldRow(0, 0, "os", 0.6, None, None, None, None, None)])
        assert agg["os"]["cindex"]["std"] is None
        assert agg["os"]["cindex"]["n"] == 1


def test_pooled_ci_is_the_list_form_on_mean_risks_over_repeats(monkeypatch):
    """The pooled interval equals, bit for bit, the pair-count C-index of each
    patient's mean risk over the repeats and the bootstrap of (risk, label)
    items, with the risks read from every fold's predictions. At 3 repeats
    with the first repeat-0 fold failed, each mean is over 2 or 3 risks; at
    9 repeats with a failed fold, over 8 or 9. The mean risks the pooled
    C-index reads are each `np.mean` of the patient's list: a sum in another
    order differs in the last bits, which ranks cannot show."""
    predict, real, cindex = cv._predict_fold, cv.train_model, cv.cindex_arrays
    for repeats, failing_call in ((2, None), (3, 1), (9, 2)):
        config = small_config(cv={"repeats": repeats})
        cohort, _ = simulate_cohort(config.simulate.n, seed=0, scenario=config.simulate)
        folds, calls, ranked = [], [], []

        def flaky(model, train_recs, val_recs, settings):
            calls.append(1)
            if len(calls) == failing_call:
                raise ad.NonFiniteError("synthetic blow-up")
            return real(model, train_recs, val_recs, settings)

        monkeypatch.setattr(cv, "train_model", flaky)
        monkeypatch.setattr(cv, "_predict_fold", lambda *args: folds.append(
            (args[1], predict(*args))) or folds[-1][1])
        monkeypatch.setattr(cv, "cindex_arrays", lambda risk, t, e: ranked.append(
            (risk, t)) or cindex(risk, t, e))
        report = run_crossval(config, cohort)
        assert len(report.failed_folds) == (failing_call is not None)
        bins = config.model.bins()
        for task in cv.TASKS:
            risks = {rec.patient_id: [] for rec in cohort}
            for scored, curves in folds:
                times = point_estimate_time(curves[task][1], bins)
                for rec, t in zip(scored, times.tolist()):
                    risks[rec.patient_id].append(-t)
            counts = {len(v) for v in risks.values()}
            assert counts == ({repeats} if failing_call is None else {repeats - 1, repeats})
            items = [(float(np.mean(risks[rec.patient_id])), getattr(rec, task))
                     for rec in cohort]
            # the point estimate is the one call over every patient in order
            pooled = [r for r, t in ranked if np.array_equal(t, cohort.time[task])]
            assert len(pooled) == 1 and pooled[0].tolist() == [r for r, _ in items]
            point = pair_cindex([r for r, _ in items], [lab for _, lab in items])
            seed = int(np.random.SeedSequence([0, 5, cv.TASKS.index(task)])
                       .generate_state(1)[0])
            lo, hi = bootstrap_ci(
                lambda sample: harrell_cindex([r for r, _ in sample],
                                              [lab for _, lab in sample]),
                items, config.eval.bootstrap_b, config.eval.level, seed)
            assert (report.ci[task]["point"], report.ci[task]["lo"], report.ci[task]["hi"]) == \
                (point, lo, hi)


class TestEvaluateModel:
    def test_single_pseudo_fold(self, small_run):
        config, cohort, _ = small_run
        widths = cv.feature_widths(cohort)
        model = init_model(config.model, widths, np.random.default_rng(0))
        report = evaluate_model(model, cohort, config)
        assert report.evaluation
        assert [r.task for r in report.rows] == ["os", "dfs"]
        assert all(r.repeat == 0 and r.fold == 0 for r in report.rows)
        assert len(report.curves) == len(cohort) * 2 * config.model.num_bins
        assert report.aggregate["os"]["cindex"]["n"] == 1

    def test_chunked_scoring_matches_scoring_each_patient_alone(self):
        config = small_config()
        cohort, _ = simulate_cohort(70, seed=3, scenario=config.simulate)
        model = init_model(config.model, cv.feature_widths(cohort),
                           np.random.default_rng(1))
        bins = config.model.bins()
        chunked = cv._predict_fold(model, cohort)
        pairs = [model.predict_curves(cohort.take(slice(i, i + 2)))
                 for i in range(0, len(cohort), 2)]
        alone = {task: tuple(np.concatenate([p[task][j] for p in pairs]) for j in (0, 1))
                 for task in cv.TASKS}
        for task in cv.TASKS:
            (ha, sa), (hb, sb) = chunked[task], alone[task]
            assert ha.shape == sa.shape == (len(cohort), bins.count)
            for got, want in ((ha, hb), (sa, sb)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(-point_estimate_time(sa, bins),
                                       -point_estimate_time(sb, bins), rtol=0, atol=1e-12)


@pytest.mark.parametrize("backbone", ("graphsage", "gcn", "gat"))
def test_scoring_is_the_same_bits_in_any_chunk(backbone):
    # The chunk is the training batch size. Scoring runs in passes of
    # `SCORE_PASS` patients whatever it is, so each patient's curves and
    # risks are the same bits at any batch size by construction, under any
    # BLAS. Taking the passes from the batch size held only where a row of a
    # matrix product does not depend on how many rows share the call: the
    # SkylakeX kernels of the OpenBLAS that numpy's wheels bundle, but not
    # its Haswell, Zen or Nehalem kernels, under which chunk 7 and chunk 64
    # differed.
    cohort, _ = simulate_cohort(200, seed=3, scenario=small_config().simulate)
    present = cohort.present & (np.random.default_rng(0).random(cohort.present.shape) > 0.2)
    present[:, 0] = True
    cohort = cohort.with_presence(present)

    def score(chunk):
        config = small_config(model={"backbone": backbone}, train={"batch_size": chunk})
        model = init_model(config.model, cv.feature_widths(cohort), np.random.default_rng(1))
        return cv._score(model, cohort, np.arange(len(cohort)), config, 0, 0)
    want = score(64)
    for chunk in (1, 2, 7, 16, 50, 100, 199, 200):
        got = score(chunk)
        for task in cv.TASKS:
            assert np.array_equal(got.risks[task], want.risks[task]), (chunk, task)
            for a, b in zip(got.curves[task], want.curves[task]):
                assert np.array_equal(a, b), (chunk, task)


def test_a_scoring_run_leaves_the_workspace_empty_when_it_returns_or_raises():
    # Scoring's passes run in the model's workspace, which the run empties,
    # as a fit does; so does a run whose evolution diverges in its first
    # pass, after the workspace has grown.
    config = small_config()
    cohort, _ = simulate_cohort(70, seed=4, scenario=config.simulate)
    model = init_model(config.model, cv.feature_widths(cohort), np.random.default_rng(2))
    cv._score(model, cohort, np.arange(len(cohort)), config, 0, 0)
    assert model.workspace == {}
    model.theta[...] = 1e300
    with pytest.raises(ad.NonFiniteError, match="evolution step 0"):
        cv._score(model, cohort, np.arange(len(cohort)), config, 0, 0)
    assert model.workspace == {}


def test_featureless_cohort_scores_every_fold_by_ties_alone():
    # Identical features and every region present give every test patient of
    # a fold the same risk, so each fold's C-index is 0.5 exactly, each
    # (fold, task) is named tied, and no pooled interval is reported. Each
    # fold's 20 test patients are scored in one pass (`SCORE_PASS`).
    config = small_config(cv={"k": 2, "repeats": 1})
    report = run_crossval(config, featureless_cohort(40))
    assert not report.failed_folds
    assert sorted((r.fold, r.task, r.cindex) for r in report.rows) == [
        (fold, task, 0.5) for fold in range(2) for task in ("dfs", "os")]
    assert report.tied_risk_folds == [{"repeat": 0, "fold": fold, "task": task}
                                      for fold in range(2) for task in ("os", "dfs")]
    for task in cv.TASKS:
        assert set(report.ci[task]) == {"metric", "error"}


@pytest.mark.parametrize("chunk", [1, 64])
@pytest.mark.parametrize("saturated", [False, True])
def test_predict_fold_equals_scalar_oracles(chunk, saturated, monkeypatch):
    """Every array a fold is scored from is == the per-patient scalar forms
    applied to the logits of the same passes, of `SCORE_PASS` patients
    whatever the batch size `chunk`:
    the hazards and survival `_predict_fold` returns, the risks, the horizon
    scores the AUC reads, and the curve rows `assemble` builds."""
    config = small_config(train={"batch_size": chunk})
    cohort, _ = simulate_cohort(70, seed=4, scenario=config.simulate)
    model = init_model(config.model, cv.feature_widths(cohort), np.random.default_rng(2))
    if saturated:   # push most logits past the clamps at 1e-300 and 1 - 1e-16
        model.heads.b_dfs[:] = [[60.0, -60.0, 745.0, -800.0]]
        model.heads.b_os[:] = [[-745.0, 40.0, -40.0, 800.0]]
    bins, horizons = config.model.bins(), cv.AUC_HORIZONS
    scores, auc = [], cv.time_dependent_auc
    monkeypatch.setattr(cv, "time_dependent_auc",
                        lambda s, *rest: scores.append(s) or auc(s, *rest))
    outcome = cv._score(model, cohort, np.arange(len(cohort)), config, 0, 0)
    logits = {"dfs": [], "os": []}
    for start in range(0, len(cohort), SCORE_PASS):
        out = model.forward(cohort.take(slice(start, start + SCORE_PASS)))
        logits["dfs"].extend(out["dfs"])
        logits["os"].extend(out["os"])
    rows = {(c.patient_id, c.task, c.bin): (c.hazard, c.survival)
            for c in cv.assemble(config, [outcome]).curves}
    assert len(rows) == len(cohort) * 2 * bins.count
    assert outcome.ids.tolist() == cohort.ids.tolist()
    assert len(scores) == len(cv.TASKS) * len(horizons)
    for n_task, task in enumerate(cv.TASKS):
        hazard, survival = outcome.curves[task]
        task_scores = scores[n_task * len(horizons):(n_task + 1) * len(horizons)]
        for i, rec in enumerate(cohort):
            hc = scalar_hazards(logits[task][i])
            sc = scalar_survival(hc)
            assert hazard[i].tolist() == hc.h.tolist()
            assert survival[i].tolist() == sc.s.tolist()
            assert -outcome.risks[task][i] == scalar_point_estimate(sc, bins)
            assert [s[i] for s in task_scores] == [1.0 - sc.at_time(t, bins) for t in horizons]
            assert [rows[(rec.patient_id, task, k)] for k in range(bins.count)] == \
                list(zip(hc.h.tolist(), sc.s.tolist()))
