"""Survival heads: bins, cascade, hazard/survival transforms, point estimates."""

import numpy as np
import pytest

from oracles import scalar_hazards, scalar_point_estimate, scalar_survival
from trajsurv import autodiff as ad
from trajsurv.heads import (TimeBins, annual_bins, dfs_head, hazards_from_logits,
                            heads_backward, init_heads, os_head, point_estimate_time, sigmoid,
                            survival_from_hazards)


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
        getattr(p, name)[:] = arr
    return p


class TestHeads:
    def test_zero_params_zero_outputs(self):
        p = init_heads(3, 2, 4, np.random.default_rng(0))
        for _, leaf in p.named_leaves():
            leaf[:] = 0.0
        h_star = np.random.default_rng(1).normal(size=(1, 3))
        logits, context = dfs_head(h_star, p)
        assert np.array_equal(logits, np.zeros((1, 4)))
        assert np.array_equal(context, np.zeros((1, 2)))
        assert np.array_equal(os_head(h_star, context, p), np.zeros((1, 4)))

    def test_single_bin_dot_product(self):
        p = init_heads(2, 2, 1, np.random.default_rng(0))
        for _, leaf in p.named_leaves():
            leaf[:] = 0.0
        p.w_dfs[:] = 1.0
        logits, _ = dfs_head(np.array([[1.0, 1.0]]), p)
        assert logits.item() == pytest.approx(2.0)

    def test_context_is_tanh_bounded(self):
        p = init_heads(2, 3, 2, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, context = dfs_head(rng.normal(scale=3.0, size=(1, 2)), p)
            assert np.all(np.abs(context) < 1.0)
        # At float saturation the bound closes but never overshoots.
        _, extreme = dfs_head(np.array([[1e4, -1e4]]), p)
        assert np.all(np.abs(extreme) <= 1.0)

    def test_cascade_off_equals_zero_context(self):
        # Heads without the cascade have no context, and their mortality
        # logits are those of heads with it at a zero context, given the
        # same first d_h rows of w_os.
        on = init_heads(2, 2, 3, np.random.default_rng(3))
        off = init_heads(2, None, 3, np.random.default_rng(4))
        off.w_os[:] = on.w_os[:2]
        h_star = np.array([[0.7, -0.4]])
        _, context = dfs_head(h_star, off)
        assert context is None
        assert np.array_equal(os_head(h_star, context, off),
                              os_head(h_star, np.zeros((1, 2)), on))

    def test_cascade_off_blocks_context_gradient(self):
        # Without the cascade no context weights exist to take a gradient;
        # with it, the mortality head's gradient reaches them.
        h_star = np.array([[0.7, -0.4]])
        d_os = np.random.default_rng(5).normal(size=(1, 3))

        def grads(context_dim):
            p = init_heads(2, context_dim, 3, np.random.default_rng(4))
            out = ad.map_arrays(p, np.zeros_like)
            heads_backward(h_star, dfs_head(h_star, p)[1], p, np.zeros((1, 3)), d_os, out)
            return dict(out.named_leaves())

        assert list(grads(None)) == ["heads.w_dfs", "heads.b_dfs", "heads.w_os", "heads.b_os"]
        assert np.any(grads(2)["heads.w_ctx"] != 0.0)

    def test_head_gradients_match_finite_differences(self):
        # sum(tanh([dfs logits | os logits])), over h* and every head
        # parameter, with the cascade and without.
        h_star = np.random.default_rng(6).normal(size=(2, 3))
        for context_dim in (2, None):
            p = init_heads(3, context_dim, 4, np.random.default_rng(5))

            def logits():
                dfs_logits, context = dfs_head(h_star, p)
                return dfs_logits, os_head(h_star, context, p), context

            dfs_logits, os_logits, context = logits()
            grads = ad.map_arrays(p, np.zeros_like)
            dh_star = heads_backward(h_star, context, p, 1.0 - np.tanh(dfs_logits) ** 2,
                                     1.0 - np.tanh(os_logits) ** 2, grads)
            err = ad.grad_check(lambda: sum(np.tanh(x).sum() for x in logits()[:2]),
                                {"h_star": dh_star, **dict(grads.named_leaves())},
                                {"h_star": h_star, **dict(p.named_leaves())})
            assert err <= 1e-4, context_dim

    def test_init_shapes(self):
        p = init_heads(5, 3, 7, np.random.default_rng(7))
        assert p.w_ctx.shape == (5, 3)
        assert p.w_dfs.shape == (5, 7)
        assert p.w_os.shape == (8, 7)
        p = init_heads(5, None, 7, np.random.default_rng(7))
        assert p.w_ctx is None and p.b_ctx is None
        assert p.w_os.shape == (5, 7)


class TestHazardTransforms:
    def test_sigmoid_is_exact_and_finite_at_extremes(self):
        x = np.array([[-1000.0, -30.0, -0.5, 0.0, 0.5, 30.0, 1000.0]])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = sigmoid(x)
        neg = x < 0
        expected = np.where(neg, np.exp(np.minimum(x, 0)) / (1 + np.exp(np.minimum(x, 0))),
                            1 / (1 + np.exp(-np.maximum(x, 0))))
        assert np.array_equal(out, expected)
        assert out[0, 0] == 0.0 and out[0, -1] == 1.0

    def test_zero_logits_half_hazard(self):
        h = hazards_from_logits(np.zeros((2, 4)))
        assert h.shape == (2, 4)
        assert np.allclose(h, 0.5)

    def test_saturated_low_logit(self):
        h = hazards_from_logits(np.array([[-100.0]]))
        assert h[0, 0] < 1e-40
        assert h[0, 0] > 0.0

    def test_log_three_gives_three_quarters(self):
        h = hazards_from_logits(np.array([[np.log(3.0)]]))
        assert h[0, 0] == pytest.approx(0.75)

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ValueError, match="logits must be finite"):
            hazards_from_logits(np.array([[0.0], [np.nan]]))

    def test_hazard_curve_open_interval(self):
        for bad in (0.0, 1.0, np.nan):
            with pytest.raises(ValueError, match="strictly inside"):
                survival_from_hazards(np.array([[0.5], [bad]]))


class TestSurvival:
    def test_half_hazard(self):
        assert np.allclose(survival_from_hazards(np.array([[0.5]])), [[0.5]])

    def test_hand_cumprod(self):
        s = survival_from_hazards(np.array([[0.1, 0.2], [0.5, 0.5]]))
        assert np.allclose(s, [[0.9, 0.72], [0.5, 0.25]])

    def test_vanishing_hazard_limit(self):
        s = survival_from_hazards(np.full((1, 3), 1e-300))
        assert np.allclose(s, 1.0, atol=1e-12)

    def test_curve_validation(self):
        # a negative hazard would make S increase or exceed one
        with pytest.raises(ValueError, match="strictly inside"):
            survival_from_hazards(np.array([[0.5, -0.2]]))
        with pytest.raises(ValueError, match="strictly inside"):
            survival_from_hazards(np.array([[-0.2, 0.5]]))
        # valid hazards whose product underflows to zero
        with pytest.raises(ValueError, match="nonincreasing within"):
            survival_from_hazards(np.full((1, 30), 1.0 - 1e-16))

    def test_at_time_step_interpolation(self):
        bins = TimeBins(np.array([0.0, 1.0, 2.0, 3.0]))
        s = np.array([[0.9, 0.5, 0.2]])
        assert s[0, bins.index([0.0, 0.99, 1.0, 7.0])].tolist() == [0.9, 0.9, 0.5, 0.2]


class TestPointEstimate:
    def test_hand_expectation(self):
        bins = TimeBins(np.array([0.0, 1.0, 2.0]))
        est = point_estimate_time(np.array([[0.5, 0.25]]), bins)
        assert est.shape == (1,)
        assert est[0] == pytest.approx(1.125)

    def test_all_mass_in_tail(self):
        bins = TimeBins(np.array([0.0, 1.0, 2.0]))
        est = point_estimate_time(np.array([[1.0 - 1e-12, 1.0 - 1e-12]]), bins)
        assert est[0] == pytest.approx(2.0, abs=1e-9)

    def test_immediate_event_limit(self):
        bins = TimeBins(np.array([0.0, 1.0, 2.0]))
        est = point_estimate_time(np.array([[1e-12, 1e-13]]), bins)
        assert est[0] == pytest.approx(0.5, abs=1e-9)

    def test_bin_count_mismatch_rejected(self):
        bins = annual_bins(3)
        with pytest.raises(ValueError, match="grid has 3"):
            point_estimate_time(np.array([[0.5]]), bins)


def test_random_draws_always_yield_valid_curves():
    # Smaller-scale version of the acceptance sweep, kept here for fast signal.
    bins = annual_bins(6)
    rng = np.random.default_rng(100)
    s = survival_from_hazards(hazards_from_logits(rng.normal(scale=30.0, size=(100, 6))))
    assert np.all(np.diff(s, axis=1) <= 0)
    assert np.all(0.0 < s[:, -1]) and np.all(s[:, 0] <= 1.0)
    est = point_estimate_time(s, bins)
    assert np.all((0.0 <= est) & (est <= bins.horizon))


@pytest.mark.parametrize("rows", [1, 64])
@pytest.mark.parametrize("scale", [3.0, 60.0])
def test_array_curves_equal_the_scalar_forms(rows, scale):
    """Row by row, == the per-patient scalar forms; scale 60 saturates most
    logits, so both clamps and the underflowing tail are exercised."""
    bins = annual_bins(12)
    rng = np.random.default_rng(rows)
    logits = rng.normal(scale=scale, size=(rows, bins.count))
    logits[0, :3] = [40.0, -40.0, 745.0]
    h = hazards_from_logits(logits)
    s = survival_from_hazards(h)
    est = point_estimate_time(s, bins)
    for i in range(rows):
        hc = scalar_hazards(logits[i])
        sc = scalar_survival(hc)
        assert h[i].tolist() == hc.h.tolist()
        assert s[i].tolist() == sc.s.tolist()
        assert est[i] == scalar_point_estimate(sc, bins)
        for t in (0.0, 0.5, 1.0, 4.99, 12.0, 30.0):
            assert s[i, bins.index(t)] == sc.at_time(t, bins)

