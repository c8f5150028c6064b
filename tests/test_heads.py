"""Survival heads: bins, cascade, hazard/survival transforms, point estimates."""

import numpy as np
import pytest

from trajsurv import autodiff as ad
from trajsurv.heads import (HazardCurve, SurvivalCurve, TimeBins, annual_bins,
                            dfs_head, hazards_from_logits, init_heads, os_head,
                            point_estimate_time, survival_from_hazards)


class TestTimeBins:
    def test_annual_default(self):
        bins = annual_bins(12)
        assert bins.count == 12
        assert bins.horizon == 12.0
        assert np.array_equal(bins.edges, np.arange(13.0))
        assert np.array_equal(bins.midpoints(), np.arange(12) + 0.5)

    def test_must_start_at_zero_and_increase(self):
        with pytest.raises(ValueError):
            TimeBins(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            TimeBins(np.array([0.0, 2.0, 2.0]))
        with pytest.raises(ValueError):
            TimeBins(np.array([0.0]))

    def test_irregular_edges_allowed(self):
        bins = TimeBins(np.array([0.0, 0.5, 2.0, 10.0]))
        assert bins.count == 3
        assert np.allclose(bins.midpoints(), [0.25, 1.25, 6.0])


def heads_with(weights):
    """HeadParams with every array overwritten by the given dense values."""
    p = init_heads(2, 2, 1, np.random.default_rng(0))
    for name, arr in weights.items():
        getattr(p, name).data[:] = arr
    return p


class TestHeads:
    def test_zero_params_zero_outputs(self):
        p = init_heads(3, 2, 4, np.random.default_rng(0))
        for _, leaf in p.named_leaves():
            leaf.data[:] = 0.0
        h_star = ad.constant(np.random.default_rng(1).normal(size=(1, 3)))
        logits, context = dfs_head(h_star, p)
        assert np.array_equal(logits.data, np.zeros((1, 4)))
        assert np.array_equal(context.data, np.zeros((1, 2)))
        assert np.array_equal(os_head(h_star, context, p).data, np.zeros((1, 4)))

    def test_single_bin_dot_product(self):
        p = init_heads(2, 2, 1, np.random.default_rng(0))
        for _, leaf in p.named_leaves():
            leaf.data[:] = 0.0
        p.w_dfs.data[:] = 1.0
        logits, _ = dfs_head(ad.constant([[1.0, 1.0]]), p)
        assert logits.item() == pytest.approx(2.0)

    def test_context_is_tanh_bounded(self):
        p = init_heads(2, 3, 2, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, context = dfs_head(ad.constant(rng.normal(scale=3.0, size=(1, 2))), p)
            assert np.all(np.abs(context.data) < 1.0)
        # At float saturation the bound closes but never overshoots.
        _, extreme = dfs_head(ad.constant([[1e4, -1e4]]), p)
        assert np.all(np.abs(extreme.data) <= 1.0)

    def test_cascade_off_equals_zero_context(self):
        p = init_heads(2, 2, 3, np.random.default_rng(3))
        h_star = ad.constant([[0.7, -0.4]])
        _, context = dfs_head(h_star, p)
        off = os_head(h_star, context, p, cascade_enabled=False)
        on_zero = os_head(h_star, ad.constant(np.zeros((1, 2))), p)
        assert np.array_equal(off.data, on_zero.data)

    def test_cascade_off_blocks_context_gradient(self):
        p = init_heads(2, 2, 3, np.random.default_rng(4))
        h_star = ad.constant([[0.7, -0.4]])

        def os_scalar(enabled):
            logits, context = dfs_head(h_star, p)
            out = os_head(h_star, context, p, cascade_enabled=enabled)
            return ad.sum_all(ad.sigmoid(out))

        leaves = [leaf for _, leaf in p.named_leaves()]
        g_off = ad.backward(os_scalar(False), params=leaves)
        assert np.array_equal(g_off[p.w_ctx].data, np.zeros_like(p.w_ctx.data))
        assert np.array_equal(g_off[p.b_ctx].data, np.zeros_like(p.b_ctx.data))
        g_on = ad.backward(os_scalar(True), params=leaves)
        assert np.any(g_on[p.w_ctx].data != 0.0)

    def test_head_gradients_match_finite_differences(self):
        p = init_heads(3, 2, 4, np.random.default_rng(5))
        h_star = ad.constant(np.random.default_rng(6).normal(size=(1, 3)))

        def f():
            logits, context = dfs_head(h_star, p)
            os_logits = os_head(h_star, context, p)
            return ad.sum_all(ad.sigmoid(ad.concat_cols(logits, os_logits)))

        assert ad.grad_check(f, dict(p.named_leaves())) <= 1e-4

    def test_init_shapes(self):
        p = init_heads(5, 3, 7, np.random.default_rng(7))
        assert p.w_ctx.shape == (5, 3)
        assert p.w_dfs.shape == (5, 7)
        assert p.w_os.shape == (8, 7)
        assert p.context_dim == 3
        assert p.num_bins == 7


class TestHazardTransforms:
    def test_zero_logits_half_hazard(self):
        hc = hazards_from_logits(np.zeros(4))
        assert np.allclose(hc.h, 0.5)

    def test_saturated_low_logit(self):
        hc = hazards_from_logits(np.array([-100.0]))
        assert hc.h[0] < 1e-40
        assert hc.h[0] > 0.0

    def test_log_three_gives_three_quarters(self):
        hc = hazards_from_logits(np.array([np.log(3.0)]))
        assert hc.h[0] == pytest.approx(0.75)

    def test_accepts_tensor_input(self):
        hc = hazards_from_logits(ad.constant([[0.0, 0.0]]))
        assert np.allclose(hc.h, 0.5)

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ValueError):
            hazards_from_logits(np.array([np.nan]))

    def test_hazard_curve_open_interval(self):
        with pytest.raises(ValueError):
            HazardCurve(np.array([0.0]))
        with pytest.raises(ValueError):
            HazardCurve(np.array([1.0]))


class TestSurvival:
    def test_half_hazard(self):
        sc = survival_from_hazards(HazardCurve(np.array([0.5])))
        assert np.allclose(sc.s, [0.5])

    def test_hand_cumprod(self):
        sc = survival_from_hazards(HazardCurve(np.array([0.1, 0.2])))
        assert np.allclose(sc.s, [0.9, 0.72])

    def test_vanishing_hazard_limit(self):
        sc = survival_from_hazards(HazardCurve(np.full(3, 1e-300)))
        assert np.allclose(sc.s, 1.0, atol=1e-12)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            SurvivalCurve(np.array([0.5, 0.6]))   # increasing
        with pytest.raises(ValueError):
            SurvivalCurve(np.array([0.5, 0.0]))   # hits zero
        with pytest.raises(ValueError):
            SurvivalCurve(np.array([1.2, 0.5]))   # above one

    def test_at_time_step_interpolation(self):
        bins = TimeBins(np.array([0.0, 1.0, 2.0, 3.0]))
        sc = SurvivalCurve(np.array([0.9, 0.5, 0.2]))
        assert sc.at_time(0.0, bins) == 0.9
        assert sc.at_time(0.99, bins) == 0.9
        assert sc.at_time(1.0, bins) == 0.5
        assert sc.at_time(7.0, bins) == 0.2


class TestPointEstimate:
    def test_hand_expectation(self):
        bins = TimeBins(np.array([0.0, 1.0, 2.0]))
        est = point_estimate_time(SurvivalCurve(np.array([0.5, 0.25])), bins)
        assert est == pytest.approx(1.125)

    def test_all_mass_in_tail(self):
        bins = TimeBins(np.array([0.0, 1.0, 2.0]))
        est = point_estimate_time(SurvivalCurve(np.array([1.0 - 1e-12, 1.0 - 1e-12])),
                                  bins)
        assert est == pytest.approx(2.0, abs=1e-9)

    def test_immediate_event_limit(self):
        bins = TimeBins(np.array([0.0, 1.0, 2.0]))
        est = point_estimate_time(SurvivalCurve(np.array([1e-12, 1e-13])), bins)
        assert est == pytest.approx(0.5, abs=1e-9)

    def test_bin_count_mismatch_rejected(self):
        bins = annual_bins(3)
        with pytest.raises(ValueError):
            point_estimate_time(SurvivalCurve(np.array([0.5])), bins)


def test_random_draws_always_yield_valid_curves():
    # Smaller-scale version of the acceptance sweep, kept here for fast signal.
    bins = annual_bins(6)
    rng = np.random.default_rng(100)
    for _ in range(100):
        hc = hazards_from_logits(rng.normal(scale=30.0, size=6))
        sc = survival_from_hazards(hc)
        assert np.all(np.diff(sc.s) <= 0)
        assert 0.0 < sc.s[-1] and sc.s[0] <= 1.0
        assert 0.0 <= point_estimate_time(sc, bins) <= bins.horizon
