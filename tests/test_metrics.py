"""Evaluation metrics pinned against brute-force oracles and hand examples."""

import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (argsort_later_smaller_counts, arrays, direct_ibs, km_censor_at,
                     pair_auc, pair_cindex, random_survival_instance, tie_table_cindex,
                     unweighted_ibs)
from trajsurv import metrics
from trajsurv.heads import annual_bins
from trajsurv.metrics import (_BASE, IpcwCapWarning, _Concordance, _later_smaller_counts,
                              bootstrap_ci, bootstrap_cindex, cindex_arrays, format_ci,
                              harrell_cindex, index_bootstrap_ci, integrated_brier,
                              km_censoring_survival, mae_uncensored,
                              time_dependent_auc)
from trajsurv.objective import SurvivalLabel


def lab(t, e):
    return SurvivalLabel(float(t), int(e))


class TestHarrellCindex:
    def test_single_concordant_pair(self):
        assert harrell_cindex([2.0, 1.0], [lab(1, 1), lab(2, 1)]) == 1.0

    def test_risk_tie_counts_half(self):
        assert harrell_cindex([1.0, 1.0], [lab(1, 1), lab(2, 1)]) == 0.5

    def test_censored_pair_not_comparable(self):
        # (2,c) vs (3,e) is not comparable; 2 comparable pairs remain.
        c = harrell_cindex([3.0, 1.0, 2.0], [lab(1, 1), lab(2, 0), lab(3, 1)])
        assert c == 1.0

    def test_equal_times_never_comparable(self):
        with pytest.raises(ValueError, match="no comparable pairs"):
            harrell_cindex([1.0, 2.0], [lab(3, 1), lab(3, 1)])

    def test_all_censored_has_no_pairs(self):
        with pytest.raises(ValueError, match="no comparable pairs"):
            harrell_cindex([1.0, 2.0], [lab(1, 0), lab(2, 0)])

    def test_nonfinite_risk_rejected(self):
        with pytest.raises(ValueError):
            harrell_cindex([np.nan, 1.0], [lab(1, 1), lab(2, 1)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            harrell_cindex([1.0], [lab(1, 1), lab(2, 1)])

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 60:
            _, labels, risks, _, _ = random_survival_instance(rng)
            expected = pair_cindex(risks, labels)
            if expected is None:
                continue
            assert harrell_cindex(risks, labels) == pytest.approx(expected, abs=1e-12)
            checked += 1

    def test_reversal_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            _, labels, risks, _, _ = random_survival_instance(rng)
            if pair_cindex(risks, labels) is None:
                continue
            c = harrell_cindex(risks, labels)
            assert harrell_cindex(-risks, labels) == pytest.approx(1.0 - c, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            _, labels, risks, _, _ = random_survival_instance(rng)
            if pair_cindex(risks, labels) is None:
                continue
            assert harrell_cindex(np.exp(risks), labels) == \
                harrell_cindex(risks, labels)


class TestTimeDependentAuc:
    def test_separated_case_and_control(self):
        auc = time_dependent_auc([0.9, 0.1], *arrays([lab(1, 1), lab(5, 0)]), 2.0)
        assert auc == 1.0

    def test_tied_scores(self):
        auc = time_dependent_auc([0.5, 0.5], *arrays([lab(1, 1), lab(5, 0)]), 2.0)
        assert auc == 0.5

    def test_censored_before_horizon_excluded(self):
        auc = time_dependent_auc([0.8, 0.5, 0.3],
                                 *arrays([lab(1, 1), lab(1.5, 0), lab(3, 1)]), 2.0)
        assert auc == 1.0

    def test_missing_when_no_cases(self):
        assert time_dependent_auc([0.5, 0.6], *arrays([lab(4, 1), lab(5, 0)]), 2.0) is None

    def test_missing_when_no_controls(self):
        assert time_dependent_auc([0.5, 0.6], *arrays([lab(1, 1), lab(2, 0)]), 2.0) is None

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError):
            time_dependent_auc([0.5], *arrays([lab(1, 1)]), 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            time_dependent_auc([0.5], *arrays([lab(1, 1), lab(5, 0)]), 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_score_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            time_dependent_auc([bad, 0.1], *arrays([lab(1, 1), lab(5, 0)]), 2.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            _, labels, _, scores, _ = random_survival_instance(rng)
            for horizon in (1.0, 3.0, 5.0):
                expected = pair_auc(scores, labels, horizon)
                got = time_dependent_auc(scores, *arrays(labels), horizon)
                if expected is None:
                    assert got is None
                else:
                    assert got == pytest.approx(expected, abs=1e-12)


@st.composite
def tied_cohorts(draw):
    """2-150 patients with small integer times and risks, so ties are common;
    past 32 patients the dense base block and merge levels both count.

    The event pattern is drawn as a whole cohort as often as patient by
    patient, so all-censored cohorts and cohorts with one event turn up.
    """
    n = draw(st.integers(2, 150))
    times = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    pattern = draw(st.sampled_from(["each", "none", "one", "all"]))
    if pattern == "each":
        events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    elif pattern == "one":
        events = [0] * n
        events[draw(st.integers(0, n - 1))] = 1
    else:
        events = [int(pattern == "all")] * n
    risks = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    scores = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    labels = [lab(t, e) for t, e in zip(times, events)]
    return labels, np.array(risks, dtype=np.float64), np.array(scores) / 4.0


class TestRankMetricsEqualPairEnumeration:
    """Exact (==) agreement with the pair-enumeration oracles, not 1e-12."""

    @settings(max_examples=300, deadline=None)
    @given(tied_cohorts())
    @example(([lab(1, 0), lab(2, 0)], np.array([1.0, 2.0]), np.array([0.0, 1.0])))
    @example(([lab(2, 0), lab(1, 1), lab(2, 0)], np.array([1.0, 1.0, 3.0]),
              np.array([0.5, 0.5, 0.25])))
    def test_cindex_and_auc(self, cohort):
        labels, risks, scores = cohort
        expected = pair_cindex(risks, labels)
        if expected is None:
            with pytest.raises(ValueError, match="no comparable pairs"):
                harrell_cindex(risks, labels)
        else:
            assert harrell_cindex(risks, labels) == expected
        for horizon in (1.0, 2.5, 4.0, 6.0):
            assert time_dependent_auc(scores, *arrays(labels), horizon) == \
                pair_auc(scores, labels, horizon)

    @settings(max_examples=150, deadline=None)
    @given(tied_cohorts())
    def test_censoring_survival(self, cohort):
        labels = cohort[0]
        G = km_censoring_survival(*arrays(labels))
        for t in (0.5, 1.0, 2.0, 3.5, 6.0, 7.0):
            assert G.at(t) == km_censor_at(labels, t)
            assert G.at_left(t) == km_censor_at(labels, t, left=True)


def defined(cindex, *args):
    """The C-index, or the message of the ValueError that says it is undefined."""
    try:
        return cindex(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def concordance_cohorts(draw):
    """Risk, time and event arrays of 2-120 patients with few distinct times.
    "spanning": small integer risks, one equal-risk pair at two times, so the
    tie count takes its general path. "one_time": risks a function of time
    alone, or all distinct, so every equal-risk run holds one time and the
    tie count is 0. "tied": small integer risks, either path."""
    n = draw(st.integers(2, 120))
    kind = draw(st.sampled_from(["spanning", "one_time", "tied"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.integers(0, draw(st.integers(1, 8)), n).astype(np.float64)
    e = (rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))).astype(np.int64)
    if kind == "one_time":
        r = t / 3.0 if draw(st.booleans()) else rng.normal(size=n)
    else:
        r = rng.integers(0, 4, n) / 4.0
    if kind == "spanning":
        r[1], t[1] = r[0], t[0] + 1.0
    return kind, r, t, e


@settings(max_examples=300, deadline=None)
@given(concordance_cohorts(), st.integers(0, 2**32 - 1))
@example(("spanning", np.array([0.5, 0.5]), np.array([1.0, 2.0]), np.array([1, 0])), 0)
@example(("one_time", np.array([1.0, 1.0, 2.0]), np.array([3.0, 3.0, 1.0]),
          np.array([1, 1, 1])), 0)
def test_prepared_cindex_is_the_tie_table_and_pair_count(cohort, seed):
    """The prepared C-index, of the cohort and of three bootstrap draws by
    their multiplicities, is == to the per-cohort oracle and the pair
    enumeration, or all three are undefined."""
    kind, r, t, e = cohort
    prepared = _Concordance(r, t, e)
    if kind != "tied":
        assert (prepared.tie_order is None) == (kind == "one_time")
    rng = np.random.default_rng(seed)
    draws = [np.arange(t.size)] + [rng.integers(0, t.size, t.size) for _ in range(3)]
    for idx in draws:
        labels = [lab(a, b) for a, b in zip(t[idx], e[idx])]
        pairs = pair_cindex(r[idx], labels)
        want = "no comparable pairs" if pairs is None else pairs
        assert defined(tie_table_cindex, r[idx], t[idx], e[idx]) == want
        assert defined(prepared.cindex, np.bincount(idx, minlength=t.size)) == want
    assert defined(cindex_arrays, r, t, e) == defined(tie_table_cindex, r, t, e)


class TestBootstrapCindex:
    """`bootstrap_cindex` against `index_bootstrap_ci` over the oracle, ==."""

    @staticmethod
    def oracle_interval(r, t, e, b, level, seed):
        """The serial loop over the oracle, and its count of undefined draws,
        which sees every draw only when no draw runs in a forked child."""
        undefined = []

        def metric(idx):
            try:
                return tie_table_cindex(r[idx], t[idx], e[idx])
            except ValueError:
                undefined.append(1)
                raise

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_workers", lambda: 1)
            return index_bootstrap_ci(metric, t.size, b, level, seed), len(undefined)

    @pytest.mark.parametrize("n, tied", [(200, True), (400, False)])
    def test_interval_is_the_per_resample_interval(self, n, tied):
        # three risk values over ten times, or continuous risks: both tie paths
        rng = np.random.default_rng(n)
        t = rng.integers(0, 10, n).astype(np.float64)
        e = (rng.random(n) < 0.5).astype(np.int64)
        r = rng.integers(0, 3, n) / 2.0 if tied else rng.normal(size=n)
        assert (_Concordance(r, t, e).tie_order is not None) == tied
        want, undefined = self.oracle_interval(r, t, e, 200, 0.95, 7)
        assert bootstrap_cindex(r, t, e, 200, 0.95, 7) == want
        assert undefined == 0

    def test_draws_without_a_comparable_pair_are_skipped(self):
        # One event among 12, at the earliest time: a draw without it has no
        # comparable pair.
        t = np.arange(12.0)
        e = np.zeros(12, dtype=np.int64)
        e[0] = 1
        r = np.array([2.0, 1.0, 2.0, 0.5] * 3)
        want, undefined = self.oracle_interval(r, t, e, 200, 0.9, 3)
        assert 0 < undefined <= 100
        assert bootstrap_cindex(r, t, e, 200, 0.9, 3) == want

    def test_more_than_half_undefined_is_an_error(self):
        # The one event is comparable only with the one later patient, so a
        # draw is defined only when it holds both: about 4 draws in 10.
        t = np.arange(20.0)
        e = np.zeros(20, dtype=np.int64)
        e[18] = 1
        r = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ValueError, match="bootstrap resamples undefined") as oracle:
            self.oracle_interval(r, t, e, 200, 0.95, 5)
        with pytest.raises(ValueError, match="bootstrap resamples undefined") as got:
            bootstrap_cindex(r, t, e, 200, 0.95, 5)
        assert str(got.value) == str(oracle.value)


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 511, 512, 513, 1025])
def test_later_smaller_counts_match_direct_count(n):
    """Sizes around the 32-wide base block and the power-of-two padding."""
    rng = np.random.default_rng(n)
    for distinct in (2, n):
        ranks = rng.integers(0, distinct, n)
        query = np.flatnonzero(rng.random(n) < 0.6)
        want = sum(int((ranks[p + 1:] < ranks[p]).sum()) for p in query)
        assert _later_smaller_counts(ranks, query) == want


# one below, at and one above each padded size from one block to 128 blocks
_EDGE_SIZES = [1, 2] + [(_BASE << k) + d for k in range(8) for d in (-1, 0, 1)]


@st.composite
def ranks_and_queries(draw):
    """Ranks with 1, 2, 3 or up to n distinct values and an empty, full or
    random query set, at sizes 1 to 5000."""
    n = draw(st.one_of(st.sampled_from(_EDGE_SIZES), st.integers(1, 5000)))
    distinct = draw(st.sampled_from([1, 2, 3, n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ranks = rng.integers(0, distinct, n)
    query = draw(st.sampled_from([np.arange(0), np.arange(n),
                                  np.flatnonzero(rng.random(n) < rng.random())]))
    return ranks, query


@settings(max_examples=200, deadline=None)
@given(ranks_and_queries())
@example((np.array([0]), np.arange(1)))
@example((np.zeros(4097, dtype=np.int64), np.arange(4097)))
def test_later_smaller_counts_equal_the_argsort_merge(case):
    """The value-sort levels count what the stable-argsort levels count."""
    ranks, query = case
    assert _later_smaller_counts(ranks, query) == argsort_later_smaller_counts(ranks, query)


class TestRankMetricMemory:
    """At n=5000 an n x n boolean matrix alone is 25 MB; the guard is 2 MB."""

    N = 5000
    LIMIT = 2 * 1024 * 1024

    def cohort(self):
        rng = np.random.default_rng(17)
        times = np.round(rng.exponential(3.0, size=self.N), 2)
        events = rng.random(self.N) < 0.6
        labels = [lab(t, e) for t, e in zip(times, events)]
        return labels, rng.normal(size=self.N)

    @staticmethod
    def peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_cindex_peak_below_limit(self):
        labels, risks = self.cohort()
        assert self.peak_bytes(lambda: harrell_cindex(risks, labels)) < self.LIMIT

    def test_bootstrap_cindex_peak_below_limit(self):
        # 100 draws, each counted in O(n) from the one prepared order
        labels, risks = self.cohort()
        t, e = arrays(labels)
        peak = self.peak_bytes(lambda: bootstrap_cindex(risks, t, e, 100, 0.95, 3))
        assert peak < self.LIMIT

    def test_auc_peak_below_limit(self):
        labels, scores = self.cohort()
        t, e = arrays(labels)
        assert self.peak_bytes(lambda: time_dependent_auc(scores, t, e, 3.0)) < self.LIMIT


class TestKmCensoring:
    def test_no_censoring_is_identity(self):
        G = km_censoring_survival(*arrays([lab(1, 1), lab(2, 1), lab(3, 1)]))
        for t in (0.0, 1.0, 2.5, 10.0):
            assert G.at(t) == 1.0

    def test_hand_table_single_censoring(self):
        G = km_censoring_survival(*arrays([lab(1, 1), lab(2, 0), lab(3, 1)]))
        assert G.at(1.9) == 1.0
        assert G.at_left(2.0) == 1.0
        assert G.at(2.0) == 0.5
        assert G.at(5.0) == 0.5

    def test_hand_table_two_censorings(self):
        G = km_censoring_survival(*arrays([lab(1, 0), lab(2, 0)]))
        assert G.at(0.5) == 1.0
        assert G.at(1.0) == 0.5
        assert G.at(2.0) == 0.0

    def test_tie_uses_full_at_risk_set(self):
        # Event and censoring at the same instant: both still at risk there.
        G = km_censoring_survival(*arrays([lab(2, 1), lab(2, 0), lab(3, 1)]))
        assert G.at(2.0) == pytest.approx(2.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            km_censoring_survival(*arrays([]))

    def test_matches_product_recursion_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            _, labels, _, _, _ = random_survival_instance(rng)
            G = km_censoring_survival(*arrays(labels))
            for t in (0.0, 0.5, 1.0, 2.5, 3.0, 6.0, 9.0):
                assert G.at(t) == pytest.approx(km_censor_at(labels, t), abs=1e-12)
                assert G.at_left(t) == pytest.approx(
                    km_censor_at(labels, t, left=True), abs=1e-12)


class TestIntegratedBrier:
    BINS = annual_bins(6)

    def step_curve(self, event_bin):
        s = np.ones(self.BINS.count)
        s[event_bin:] = 1e-12
        return s

    def test_perfect_oracle_scores_zero(self):
        labels = [lab(1, 1), lab(3, 1), lab(5, 1)]
        curves = np.stack([self.step_curve(1), self.step_curve(3), self.step_curve(5)])
        ibs = integrated_brier(curves, *arrays(labels), self.BINS, tau=6.0)
        assert ibs == pytest.approx(0.0, abs=1e-12)

    def test_constant_half_single_event(self):
        labels = [lab(2.0, 1)]
        curves = np.full((1, self.BINS.count), 0.5)
        ibs = integrated_brier(curves, *arrays(labels), self.BINS, tau=4.0)
        assert ibs == pytest.approx(0.25, abs=1e-12)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            bins, labels, _, _, curves = random_survival_instance(rng)
            tau = float(min(5.0, bins.horizon))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IpcwCapWarning)
                got = integrated_brier(curves, *arrays(labels), bins, tau)
            assert got == pytest.approx(direct_ibs(curves, labels, bins, tau),
                                        abs=1e-12)

    def test_no_censoring_reduces_to_unweighted(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            bins, labels, _, _, curves = random_survival_instance(rng)
            labels = [lab(l.time, 1) for l in labels]
            tau = float(min(5.0, bins.horizon))
            got = integrated_brier(curves, *arrays(labels), bins, tau)
            assert got == pytest.approx(unweighted_ibs(curves, labels, bins, tau),
                                        abs=1e-12)

    def test_cap_warning_when_censoring_survival_hits_zero(self):
        labels = [lab(1, 1), lab(2, 0)]
        curves = np.full((len(labels), self.BINS.count), 0.5)
        with pytest.warns(IpcwCapWarning):
            val = integrated_brier(curves, *arrays(labels), self.BINS, tau=4.0)
        assert np.isfinite(val)

    def test_tau_validation(self):
        labels = [lab(1, 1)]
        curves = np.full((1, self.BINS.count), 0.5)
        with pytest.raises(ValueError):
            integrated_brier(curves, *arrays(labels), self.BINS, tau=0.0)
        with pytest.raises(ValueError):
            integrated_brier(curves, *arrays(labels), self.BINS, tau=7.0)


class TestMae:
    def test_hand_example(self):
        assert mae_uncensored([2.0, 3.0], *arrays([lab(1, 1), lab(3, 1)])) == 0.5

    def test_all_censored_is_missing(self):
        assert mae_uncensored([2.0], *arrays([lab(1, 0)])) is None

    def test_censored_excluded(self):
        assert mae_uncensored([2.0, 99.0], *arrays([lab(1, 1), lab(5, 0)])) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mae_uncensored([1.0], *arrays([lab(1, 1), lab(2, 1)]))


class TestBootstrap:
    def test_constant_metric_zero_width(self):
        lo, hi = bootstrap_ci(lambda sample: 0.7, list(range(30)), b=1000,
                              level=0.95, seed=5)
        assert lo == hi == 0.7

    def test_fixed_seed_is_reproducible(self):
        data = list(np.random.default_rng(6).normal(size=50))
        run = lambda: bootstrap_ci(lambda s: float(np.mean(s)), data, b=200,
                                   level=0.9, seed=11)
        assert run() == run()

    def test_interval_contains_point_for_mean(self):
        data = list(np.random.default_rng(7).normal(loc=3.0, size=200))
        lo, hi = bootstrap_ci(lambda s: float(np.mean(s)), data, b=500,
                              level=0.95, seed=12)
        assert lo <= float(np.mean(data)) <= hi
        assert lo < hi

    def test_undefined_resamples_discarded(self):
        # Metric defined only when the sample contains a positive value.
        data = [0.0] * 18 + [1.0, 2.0]

        def metric(sample):
            kept = [v for v in sample if v > 0]
            return float(np.mean(kept)) if kept else None

        lo, hi = bootstrap_ci(metric, data, b=400, level=0.95, seed=13)
        assert 0.0 < lo <= hi

    def test_draws_are_pinned(self):
        # An order-sensitive metric, so the draws themselves are pinned.
        data = list(np.random.default_rng(6).normal(size=50))
        metric = lambda s: float(s[0] - s[-1] + np.mean(s))
        assert bootstrap_ci(metric, data, b=200, level=0.9, seed=11) == \
            (-2.3406112353186437, 2.2629814677820996)

    def test_index_resamples_equal_the_item_form(self):
        """Resampling indices into arrays built once draws the same patients
        as resampling (risk, label) items, so the interval is bit-identical."""
        _, labels, risks, _, _ = random_survival_instance(np.random.default_rng(9), 40)
        items = list(zip(risks.tolist(), labels))
        t, e = arrays(labels)
        by_items = bootstrap_ci(
            lambda sample: harrell_cindex([r for r, _ in sample], [l for _, l in sample]),
            items, b=200, level=0.9, seed=21)
        by_index = bootstrap_ci(lambda idx: cindex_arrays(risks[idx], t[idx], e[idx]),
                                range(len(items)), b=200, level=0.9, seed=21)
        assert by_index == by_items

    def test_harrell_cindex_interval_is_the_pair_count_interval(self):
        """200 patients with tied times and risks: resample by resample the
        kernel and the pair enumeration give the same value, or both none."""
        rng = np.random.default_rng(31)
        labels = [lab(t, e) for t, e in zip(rng.integers(0, 8, 200), rng.random(200) < 0.5)]
        items = list(zip((rng.integers(0, 12, 200) / 4.0).tolist(), labels))
        split = lambda sample: ([r for r, _ in sample], [l for _, l in sample])
        by_kernel = bootstrap_ci(lambda s: harrell_cindex(*split(s)), items, 100, 0.95, seed=4)
        by_pairs = bootstrap_ci(lambda s: pair_cindex(*split(s)), items, 100, 0.95, seed=4)
        assert by_kernel == by_pairs

    def test_mostly_undefined_is_error(self):
        with pytest.raises(ValueError, match="undefined"):
            bootstrap_ci(lambda s: None, list(range(10)), b=100, level=0.95, seed=1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci(lambda s: 1.0, [1], b=50, level=0.95, seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci(lambda s: 1.0, [1], b=100, level=1.5, seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci(lambda s: 1.0, [], b=100, level=0.95, seed=0)


class TestForkedDraws:
    """`index_bootstrap_ci` with its draws split over forked workers, the
    count monkeypatched through `metrics._workers`: the serial interval, a
    child's error raised in the caller, and no child left after any call."""

    @pytest.fixture(autouse=True)
    def no_child_outlives_a_call(self):
        yield
        with pytest.raises(ChildProcessError):   # no child at all, zombies included
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def workers(self, monkeypatch):
        def set_count(count):
            monkeypatch.setattr(metrics, "_workers", lambda: count)
        return set_count

    def test_cindex_intervals_do_not_depend_on_the_worker_count(self, workers, monkeypatch):
        # the defined draws' values, as the quantile receives them
        seen = []
        quantile = np.quantile
        monkeypatch.setattr(np, "quantile", lambda a, q: seen.append(a) or quantile(a, q))
        rng = np.random.default_rng(8)
        t = rng.integers(0, 8, 150).astype(np.float64)
        e = (rng.random(150) < 0.5).astype(np.int64)
        r = rng.integers(0, 4, 150) / 2.0   # tie-heavy in time and in risk
        items = list(zip(r.tolist(), [lab(a, b) for a, b in zip(t, e)]))
        split = lambda sample: ([x for x, _ in sample], [y for _, y in sample])
        # one event among 12, at the earliest time: about a third of the
        # draws have no comparable pair
        t_one = np.arange(12.0)
        e_one = np.zeros(12, dtype=np.int64)
        e_one[0] = 1
        r_one = np.array([2.0, 1.0, 2.0, 0.5] * 3)
        calls = [lambda: bootstrap_ci(lambda s: harrell_cindex(*split(s)), items, 200, 0.95, 5),
                 lambda: bootstrap_cindex(r, t, e, 200, 0.95, 5),
                 lambda: bootstrap_ci(lambda s: harrell_cindex(*split(s)),
                                      list(zip(r_one.tolist(), [lab(a, b) for a, b in
                                                                zip(t_one, e_one)])),
                                      200, 0.9, 3),
                 lambda: bootstrap_cindex(r_one, t_one, e_one, 200, 0.9, 3)]
        for call in calls:
            workers(1)
            want = call()
            for count in (2, 3):
                workers(count)
                assert call() == want
                assert np.array_equal(seen[-1], seen[0])
            seen.clear()

    def test_later_chunks_run_in_forked_children(self, workers):
        workers(2)
        lo, hi = bootstrap_ci(lambda s: float(os.getpid()), range(10), 100, 0.98, 0)
        assert os.getpid() in (lo, hi) and lo != hi

    def test_one_cpu_never_forks(self, workers, monkeypatch):
        def no_fork():
            raise AssertionError("forked with one CPU")
        monkeypatch.setattr(os, "fork", no_fork)
        workers(1)
        assert bootstrap_ci(lambda s: float(os.getpid()), range(10), 100, 0.98, 0) == \
            (os.getpid(), os.getpid())

    def test_a_failed_fork_draws_here(self, workers, monkeypatch):
        def no_process():
            raise BlockingIOError("no process to be had")
        data = list(np.random.default_rng(4).normal(size=30))
        call = lambda: bootstrap_ci(lambda s: float(np.mean(s)), data, 300, 0.9, 2)
        workers(1)
        want = call()
        monkeypatch.setattr(os, "fork", no_process)
        workers(3)
        assert call() == want

    def test_a_type_error_in_a_child_is_raised_here(self, workers):
        parent = os.getpid()

        def metric(idx):
            if os.getpid() != parent:
                raise TypeError("a draw in a child")
            return 0.5

        workers(2)
        with pytest.raises(TypeError, match="^a draw in a child$"):
            index_bootstrap_ci(metric, 10, 100, 0.95, 0)

    def test_a_value_error_in_a_child_is_an_undefined_draw(self, workers):
        parent = os.getpid()

        def metric(idx):
            if os.getpid() != parent:
                raise ValueError("undefined")
            return 0.5

        workers(2)   # 50 of 100 undefined: not more than half
        assert index_bootstrap_ci(metric, 10, 100, 0.95, 0) == (0.5, 0.5)
        workers(3)
        with pytest.raises(ValueError, match="^67/100 bootstrap resamples undefined$"):
            index_bootstrap_ci(metric, 10, 100, 0.95, 0)

    def test_an_error_that_cannot_travel_is_named(self, workers):
        class TwoPart(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a}-{b}")

        parent = os.getpid()

        def metric(idx):
            if os.getpid() != parent:
                raise TwoPart("left", "right")
            return 0.5

        workers(2)
        with pytest.raises(RuntimeError, match="TwoPart could not be sent back: left-right"):
            index_bootstrap_ci(metric, 10, 100, 0.95, 0)

    def test_a_child_that_dies_makes_the_call_raise(self, workers):
        parent = os.getpid()

        def metric(idx):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return 0.5

        workers(2)
        with pytest.raises(RuntimeError, match="ended without a result"):
            index_bootstrap_ci(metric, 10, 100, 0.95, 0)

    def test_an_interrupt_here_reaps_the_running_children(self, workers):
        parent = os.getpid()

        def metric(idx):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(0.2)   # each child is still drawing when the caller stops
            return 0.5

        workers(3)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            index_bootstrap_ci(metric, 10, 100, 0.95, 0)
        assert time.perf_counter() - start < 5.0

    def test_a_child_flushes_no_inherited_output(self):
        # stdout to a pipe is block-buffered (unless PYTHONUNBUFFERED is set),
        # so the parent's line is still in its buffer when the children fork.
        code = ("from trajsurv import metrics\n"
                "metrics._workers = lambda: 3\n"
                "print('result line')\n"
                "metrics.bootstrap_ci(lambda s: 1.0, range(10), 100, 0.95, 0)\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert proc.stdout == "result line\n"


def test_format_ci_matches_reporting_style():
    assert format_ci(0.95, 0.711, 0.796) == "95% CI of [0.711, 0.796]"
    assert format_ci(0.9, 0.5, 0.25 + 0.25) == "90% CI of [0.500, 0.500]"
    assert format_ci(0.975, 0.711, 0.796) == "97.5% CI of [0.711, 0.796]"
    assert format_ci(0.999, 0.711, 0.796) == "99.9% CI of [0.711, 0.796]"
