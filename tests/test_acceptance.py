"""End-to-end acceptance gate: ten pinned checks, one verdict line each.

Run with -s to see the verdict lines inline; each test prints
"[NN] <name>: PASS/FAIL (<measurements>)" before asserting.
"""

import dataclasses
import re
import time
import warnings

import numpy as np
import pytest

from oracles import (arrays, direct_ibs, km_censor_at, pair_auc, pair_cindex,
                     random_survival_instance)
from trajsurv.acceptance_support import full_pipeline_gradcheck
from trajsurv.cli import ABLATIONS, main as cli_main
from trajsurv.cohort import (Scenario, oracle_cindex, record_to_graph,
                             simulate_cohort)
from trajsurv.config import RunConfig
from trajsurv.crossval import run_crossval
from trajsurv.evolution import BACKBONES, evolve, init_evolution, mean_pool
from trajsurv.heads import (annual_bins, hazards_from_logits, point_estimate_time,
                            survival_from_hazards)
from trajsurv.metrics import (IpcwCapWarning, bootstrap_ci, format_ci,
                              harrell_cindex, integrated_brier, km_censoring_survival,
                              mae_uncensored, time_dependent_auc)
from trajsurv.objective import discrete_nll

SEED = 0


def verdict(num, label, ok, detail):
    line = f"[{num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def synthetic():
    scenario = Scenario()   # hazard ratio 3, censoring 0.3
    cohort, groups = simulate_cohort(400, seed=SEED, scenario=scenario)
    return scenario, cohort, groups


@pytest.fixture(scope="module")
def full_run(synthetic):
    _, cohort, _ = synthetic
    config = RunConfig()
    return config, run_crossval(config, cohort)


def test_01_gradient_fidelity():
    start = time.perf_counter()
    errs = {b: full_pipeline_gradcheck(step=1e-5, backbone=b) for b in BACKBONES}
    elapsed = time.perf_counter() - start
    verdict(1, "full-pipeline gradient fidelity",
            max(errs.values()) <= 1e-4 and elapsed < 60,
            ", ".join(f"{b} max rel err {e:.2e}" for b, e in errs.items())
            + f" in {elapsed:.1f}s, tolerance 1e-4")


def test_02_residual_identity():
    cohort, _ = simulate_cohort(10, seed=3, scenario=Scenario(region_len=4,
                                                              clinical_len=3))
    graph = record_to_graph(cohort[0])
    h0 = np.random.default_rng(9).normal(size=(7, 8))
    base = mean_pool(graph.present).apply(h0).tobytes()
    mismatches = 0
    checked = 0
    for backbone in BACKBONES:
        for horizon in (1, 12):
            params = init_evolution(backbone, 8, 4, steps=horizon, message_dim=8,
                                    rng=np.random.default_rng(1), attention_dim=4)
            for _, leaf in params.named_leaves():
                leaf[:] = 0.0
            for z in evolve(h0, graph, params, {})[0]:
                checked += 1
                if z.tobytes() != base:
                    mismatches += 1
    verdict(2, "zero-weight residual identity",
            mismatches == 0 and checked == 3 * (1 + 12),
            f"{checked} snapshots bitwise-checked across {len(BACKBONES)} "
            f"backbones, {mismatches} mismatches")


def test_03_curve_validity():
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(1000):
        bins = annual_bins(int(rng.integers(1, 13)))
        scale = rng.uniform(0.5, 40.0)
        logits = rng.normal(scale=scale, size=bins.count)
        s = survival_from_hazards(hazards_from_logits(logits[None, :]))[0]
        if not (np.all(np.diff(s) <= 0.0) and np.all(s > 0.0) and np.all(s <= 1.0)):
            violations += 1
            continue
        est = point_estimate_time(s[None, :], bins)[0]
        if not (0.0 <= est <= bins.edges[-1]):
            violations += 1
    verdict(3, "survival-curve validity over 1000 random draws", violations == 0,
            f"{violations} violations")


def test_04_metric_oracles():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    max_err = 0.0
    disagreements = 0
    for _ in range(200):
        bins, labels, risks, scores, curves = random_survival_instance(rng)

        expected = pair_cindex(risks, labels)
        try:
            got = harrell_cindex(risks, labels)
        except ValueError:
            got = None
        if (expected is None) != (got is None):
            disagreements += 1
        elif expected is not None:
            max_err = max(max_err, abs(got - expected))

        for horizon in (1.0, 3.0, 5.0):
            e = pair_auc(scores, labels, horizon)
            g = time_dependent_auc(scores, *arrays(labels), horizon)
            if (e is None) != (g is None):
                disagreements += 1
            elif e is not None:
                max_err = max(max_err, abs(g - e))

        G = km_censoring_survival(*arrays(labels))
        for t in list(np.linspace(0.0, 6.5, 14)) + [l.time for l in labels]:
            max_err = max(max_err, abs(G.at(t) - km_censor_at(labels, t)))
            max_err = max(max_err,
                          abs(G.at_left(t) - km_censor_at(labels, t, left=True)))

        tau = float(min(5.0, bins.horizon))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IpcwCapWarning)
            ibs = integrated_brier(curves, *arrays(labels), bins, tau)
        max_err = max(max_err, abs(ibs - direct_ibs(curves, labels, bins, tau)))

        events = [(p, l) for p, l in zip(risks, labels) if l.event == 1]
        e_mae = (sum(abs(p - l.time) for p, l in events) / len(events)
                 if events else None)
        g_mae = mae_uncensored(list(risks), *arrays(labels))
        if (e_mae is None) != (g_mae is None):
            disagreements += 1
        elif e_mae is not None:
            max_err = max(max_err, abs(g_mae - e_mae))
    elapsed = time.perf_counter() - start
    verdict(4, "metric agreement with brute-force oracles on 200 instances",
            max_err <= 1e-12 and disagreements == 0 and elapsed < 60,
            f"max abs diff {max_err:.2e}, {disagreements} presence mismatches, "
            f"{elapsed:.1f}s")


def test_05_nll_closed_forms():
    bins = annual_bins(4)

    def logits(values):      # logit(0.5) = 0, logit(0.2) = -ln 4
        x = np.zeros((1, bins.count))
        x[0, :len(values)] = values
        return x

    time, event = [0.2, 0.2, 1.5], [1, 0, 1]
    rows = [logits([0.0]), logits([0.0]), logits([-np.log(4.0), 0.0])]
    per = [discrete_nll(x, [t], [e], bins)[0].item() for x, t, e in zip(rows, time, event)]
    errs = [abs(p - e) for p, e in zip(per, (0.6931, 0.6931, 0.9163))]
    together = discrete_nll(np.vstack(rows), time, event, bins)[0].item()
    mean_gap = abs(together - float(np.mean(per)))

    verdict(5, "closed-form likelihood values and batch-mean linearity",
            max(errs) <= 1e-4 and mean_gap <= 1e-12,
            f"closed-form errs {max(errs):.1e} (tol 1e-4), "
            f"batch vs per-patient mean gap {mean_gap:.1e} (tol 1e-12)")


def test_06_synthetic_recovery(synthetic, full_run):
    scenario, cohort, groups = synthetic
    _, report = full_run
    c_os = report.mean_metric("os", "cindex")
    c_dfs = report.mean_metric("dfs", "cindex")
    oracle_os = oracle_cindex(cohort, groups, scenario, "os")
    oracle_dfs = oracle_cindex(cohort, groups, scenario, "dfs")
    ok = (c_os >= 0.65 and c_dfs >= 0.65
          and c_os >= 0.9 * oracle_os and c_dfs >= 0.9 * oracle_dfs
          and report.runtime_seconds < 900 and not report.failed_folds)
    verdict(6, "synthetic risk-group recovery", ok,
            f"C os {c_os:.3f} / dfs {c_dfs:.3f} vs oracle {oracle_os:.3f} / "
            f"{oracle_dfs:.3f}, floor 0.65, 0.9x-oracle gate, "
            f"{report.runtime_seconds:.0f}s of 900s")


def test_07_ablation_direction(synthetic, full_run):
    _, cohort, _ = synthetic
    config, report = full_run
    static, cascade = (run_crossval(dataclasses.replace(config, model=dataclasses.replace(
        config.model, **ABLATIONS[variant])), cohort) for variant in ("static", "no_cascade"))
    full_c = report.mean_metric("os", "cindex")
    static_c = static.mean_metric("os", "cindex")
    cascade_c = cascade.mean_metric("os", "cindex")
    ok = (full_c >= static_c - 0.02 and full_c >= cascade_c - 0.02
          and cascade.checks.get("os_context_grad_zero") is True)
    verdict(7, "ablations do not beat the full model beyond slack", ok,
            f"OS C full {full_c:.3f}, static {static_c:.3f}, "
            f"no_cascade {cascade_c:.3f}, slack 0.02")


def test_08_null_control():
    scenario = Scenario(signal_strength=0.0)
    cohort, _ = simulate_cohort(200, seed=SEED, scenario=scenario)
    report = run_crossval(RunConfig(), cohort)
    c_os = report.mean_metric("os", "cindex")
    c_dfs = report.mean_metric("dfs", "cindex")
    ok = 0.4 <= c_os <= 0.6 and 0.4 <= c_dfs <= 0.6
    verdict(8, "zero-signal cohort stays at chance", ok,
            f"C os {c_os:.3f} / dfs {c_dfs:.3f}, band [0.4, 0.6]")


def test_09_determinism(tmp_path):
    import json

    doc = {
        "model": {"d": 8, "d_t": 4, "d_h": 8, "d_c": 4, "T": 3, "K": 4,
                  "message_dim": 8},
        "train": {"lr": 0.01, "batch_size": 32, "max_epochs": 25, "seed": 5},
        "eval": {"bootstrap_b": 100},
        "simulate": {"n": 120, "region_len": 4, "clinical_len": 3},
        "cv": {"k": 5, "repeats": 1},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--config", str(config),
                     "--out", str(sim)]) == 0
    doc["paths"] = {"cohort": str(sim / "cohort.json")}
    config.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["crossval", "--config", str(config), "--out", str(out1)]) == 0
    assert cli_main(["crossval", "--config", str(config), "--out", str(out2)]) == 0
    b1, b2 = ([(out / name).read_bytes() for name in ("metrics.csv", "curves.csv")]
              for out in (out1, out2))
    verdict(9, "identical config and seed give byte-identical metrics.csv and curves.csv",
            b1 == b2 and all(b1),
            f"{sum(map(len, b1))} bytes compared across two crossval runs")


def test_10_bootstrap_plumbing(full_run):
    lo, hi = bootstrap_ci(lambda s: 0.7, list(range(50)), b=1000, level=0.95,
                          seed=3)
    zero_width = lo == hi == 0.7

    _, report = full_run
    ci = report.ci["os"]
    contains = ci["lo"] <= ci["point"] <= ci["hi"]
    styled = bool(re.fullmatch(
        r"\d\.\d{3} with a 95% CI of \[\d\.\d{3}, \d\.\d{3}\]", ci["formatted"]))
    fmt = format_ci(0.95, 0.711, 0.796) == "95% CI of [0.711, 0.796]"

    verdict(10, "bootstrap interval plumbing", zero_width and contains and styled
            and fmt,
            f"constant metric width {hi - lo:.1e}, cohort CI "
            f"[{ci['lo']:.3f}, {ci['hi']:.3f}] around {ci['point']:.3f}")
