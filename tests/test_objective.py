"""Discrete-time likelihood, loss weighting, AdamW, scheduling, early stop."""

import numpy as np
import pytest

from trajsurv import autodiff as ad
from trajsurv.heads import TimeBins, annual_bins
from trajsurv.acceptance_support import toy_setup
from trajsurv.objective import (LossWeights, OptimizerState, SurvivalLabel, TrainSettings,
                                adamw_step, discrete_nll, end_epoch, label_to_bin, nll_backward)
from trajsurv.training import _mean_loss

import oracles

BINS = annual_bins(12)


def nll(x, time, event):
    return discrete_nll(x, time, event, BINS)[0]


def nll_grad(x, time, event):
    """The gradient of `nll` with respect to the logits x."""
    return nll_backward(discrete_nll(x, time, event, BINS)[1], 1.0)


class TestLabels:
    def test_valid_label(self):
        lab = SurvivalLabel(2.5, 1)
        assert lab.time == 2.5 and lab.event == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            SurvivalLabel(-0.1, 0)

    def test_bad_event_flag_rejected(self):
        with pytest.raises(ValueError):
            SurvivalLabel(1.0, 2)

    def test_loss_weights_validation(self):
        with pytest.raises(ValueError):
            LossWeights(-1.0, 1.0)
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0)


class TestLabelToBin:
    def test_interior(self):
        assert label_to_bin(0.5, BINS) == 0

    def test_left_closed_edges(self):
        assert label_to_bin(1.0, BINS) == 1
        assert label_to_bin(0.0, BINS) == 0

    def test_clamps_past_horizon(self):
        assert label_to_bin(99.0, BINS) == 11
        assert label_to_bin(12.0, BINS) == 11

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            label_to_bin(-1.0, BINS)

    def test_irregular_edges(self):
        bins = TimeBins(np.array([0.0, 0.5, 2.0, 10.0]))
        assert label_to_bin(0.49, bins) == 0
        assert label_to_bin(0.5, bins) == 1
        assert label_to_bin(1.99, bins) == 1
        assert label_to_bin(2.0, bins) == 2


def test_bin_index_matches_label_to_bin():
    rng = np.random.default_rng(3)
    bins = TimeBins(np.array([0.0, 0.5, 2.0, 2.5, 7.0]))
    times = np.concatenate([rng.uniform(0, 9, 40), bins.edges])
    assert bins.index(times).tolist() == [label_to_bin(float(t), bins) for t in times]


def numpy_nll(x, time, event, bins):
    """Direct-summation oracle for the discrete likelihood of hazard logits x:
    ln h = -ln(1 + e^-x) and ln(1 - h) = -ln(1 + e^x)."""
    k = label_to_bin(time, bins)
    if event == 1:
        return np.logaddexp(0.0, -x[k]) + np.logaddexp(0.0, x[:k]).sum()
    return np.logaddexp(0.0, x[:k + 1]).sum()


LOGIT_FIFTH = -np.log(4.0)     # the logit of a hazard of 0.2; a hazard of 0.5 has logit 0


class TestDiscreteNll:
    def logits(self, values):
        x = np.zeros((1, BINS.count))
        x[0, :len(values)] = values
        return x

    def test_event_first_bin_closed_form(self):
        loss = nll(self.logits([0.0]), [0.2], [1])
        assert loss.item() == pytest.approx(0.6931, abs=1e-4)

    def test_censored_first_bin_closed_form(self):
        loss = nll(self.logits([0.0]), [0.2], [0])
        assert loss.item() == pytest.approx(0.6931, abs=1e-4)

    def test_event_second_bin_closed_form(self):
        loss = nll(self.logits([LOGIT_FIFTH, 0.0]), [1.5], [1])
        assert loss.item() == pytest.approx(0.9163, abs=1e-4)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-5.0, 5.0, size=BINS.count)
            time = rng.uniform(0, 14)
            event = int(rng.integers(0, 2))
            loss = nll(x.reshape(1, -1), [time], [event])
            assert loss.item() == pytest.approx(numpy_nll(x, time, event, BINS),
                                                abs=1e-12)

    def test_boundary_hazards_stay_finite(self):
        # Hazards of 1 and 0 in floating point: survival through a certain
        # event in bin 0 costs its whole logit.
        x = np.full((1, BINS.count), -700.0)
        x[0, 0] = 700.0
        loss = nll(x, [1.5], [0])
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(700.0, rel=1e-12)

    @pytest.mark.parametrize("size", (40.0, 700.0))
    def test_saturated_logits_exact_loss_and_gradient(self, size):
        # Logits of alternating sign at +-size; an event in bin 5 reaches bins
        # 0-5, a censoring in bin 4 reaches bins 0-4. Each reached term is
        # ln(1 + e^(+-size)): size + ln(1 + e^-size) when the hazard it asks
        # for is saturated the wrong way, ln(1 + e^-size) otherwise.
        signs = np.where(np.arange(BINS.count) % 2 == 0, 1.0, -1.0)
        x = size * signs[None, :]
        labels = [(5.5, 1), (4.5, 0)]
        wrong_way = (4, 3)     # bins 0, 2, 4 survived at +size; the event adds bin 5 at -size
        for (time, event), wrong in zip(labels, wrong_way):
            loss = nll(x, [time], [event])
            reached = label_to_bin(time, BINS) + 1
            expected = wrong * size + reached * np.log1p(np.exp(-size))
            assert np.isfinite(loss.item())
            assert loss.item() == pytest.approx(expected, rel=1e-12)
            g = nll_grad(x, [time], [event])
            assert np.all(g[0, :reached] != 0.0)
            assert np.all(g[0, reached:] == 0.0)
            assert ad.grad_check(lambda: nll(x, [time], [event]), {"x": g}, {"x": x}) <= 1e-6

    def test_wrong_shape_rejected(self):
        with pytest.raises(ad.ShapeMismatchError):
            nll(np.zeros((1, 3)), [1.0], [1])

    def test_gradient_signs_push_toward_event_bin(self):
        x = np.full((1, BINS.count), np.log(0.4 / 0.6))
        g = nll_grad(x, [2.5], [1])[0]  # event in bin 2
        assert g[2] < 0.0              # raising the event-bin hazard helps
        assert np.all(g[:2] > 0.0)     # earlier hazards are penalized
        assert np.allclose(g[3:], 0.0)  # later bins never enter the likelihood

    def test_gradient_matches_finite_differences(self):
        x = np.random.default_rng(1).uniform(-2.0, 2.0, size=(3, BINS.count))
        time, event = [3.5, 0.5, 14.0], [1, 0, 0]
        err = ad.grad_check(lambda: nll(x, time, event), {"x": nll_grad(x, time, event)},
                            {"x": x})
        assert err <= 1e-4


class TestCombinedLoss:
    """The training loss is alpha * OS NLL + beta * DFS NLL."""

    def parts(self, weights):
        model, cohort = toy_setup()
        bins = model.config.bins()
        logits = model.forward(cohort)
        os_nll, dfs_nll = (discrete_nll(logits[task], cohort.time[task], cohort.event[task],
                                        bins)[0].item() for task in ("os", "dfs"))
        return _mean_loss(model, cohort, weights).item(), os_nll, dfs_nll

    def test_os_only(self):
        loss, os_nll, _ = self.parts(LossWeights(1.0, 0.0))
        assert loss == pytest.approx(os_nll, abs=1e-12)

    def test_equal_weights(self):
        loss, os_nll, dfs_nll = self.parts(LossWeights(1.0, 1.0))
        assert loss == pytest.approx(os_nll + dfs_nll, abs=1e-12)

    def test_weighted(self):
        loss, os_nll, dfs_nll = self.parts(LossWeights(2.0, 1.0))
        assert loss == pytest.approx(2.0 * os_nll + dfs_nll, abs=1e-12)


class TestBatchMean:
    """discrete_nll of B logit rows is the mean of the B per-patient values."""

    def test_mean_of_scalars(self):
        x = np.zeros((3, BINS.count))
        x[2, 0] = LOGIT_FIFTH
        loss = nll(x, [0.2, 0.2, 1.5], [1, 0, 1])
        expected = (2.0 * np.log(2.0) - np.log(0.8) - np.log(0.5)) / 3.0
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_equals_mean_of_per_patient_losses(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-5.0, 5.0, size=(16, BINS.count))
        labels = [(rng.uniform(0, 14), int(rng.integers(0, 2))) for _ in range(16)]
        time, event = zip(*labels)
        out = nll(x, time, event)
        per = [nll(row[None, :], [t], [e]).item()
               for row, (t, e) in zip(x, labels)]
        assert out.item() == pytest.approx(np.mean(per), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nll(np.zeros((0, BINS.count)), [], [])


def named(g):
    """The views by name that `adamw_step` searches for a non-finite value."""
    return [("p", g)]


class TestAdamW:
    def theta(self, v):
        return np.array([v])

    def test_zero_grad_zero_decay_is_identity(self):
        theta = self.theta(1.5)
        state = OptimizerState(lr=0.1)
        adamw_step(theta, np.zeros_like(theta), state, TrainSettings(lr=0.1, weight_decay=0.0),
                   named)
        assert theta.item() == pytest.approx(1.5)

    def test_first_step_hand_example(self):
        theta = self.theta(1.0)
        state = OptimizerState(lr=0.1)
        adamw_step(theta, np.ones_like(theta), state, TrainSettings(lr=0.1, weight_decay=0.0),
                   named)
        # Bias correction makes m-hat = v-hat = 1, so the step is the full lr.
        assert theta.item() == pytest.approx(0.9, abs=1e-6)

    def test_decoupled_decay_scales_parameter(self):
        theta = self.theta(4.0)
        state = OptimizerState(lr=0.1)
        adamw_step(theta, np.zeros_like(theta), state, TrainSettings(lr=0.1, weight_decay=0.1),
                   named)
        assert theta.item() == pytest.approx(4.0 * 0.99, abs=1e-12)

    def test_nonfinite_gradient_names_parameter(self):
        theta = self.theta(1.0)
        state = OptimizerState(lr=0.1)
        with pytest.raises(ad.NonFiniteError, match="op.w_out"):
            adamw_step(theta, np.array([np.nan]), state, TrainSettings(),
                       lambda g: [("op.w_out", g.reshape(1, 1))])

    def test_steps_are_deterministic_bitwise(self):
        def run():
            rng = np.random.default_rng(3)
            theta = rng.normal(size=12)
            state = OptimizerState(lr=0.05)
            for step in range(5):
                adamw_step(theta, rng.normal(size=theta.shape), state, TrainSettings(lr=0.05),
                           named)
            return theta

        assert np.array_equal(run(), run())

    def test_flat_update_equals_the_leafwise_form_bitwise(self):
        # Leaves of several shapes, as in a model, and a scheduled lr.
        rng = np.random.default_rng(4)
        shapes = [(3, 4), (1, 4), (5, 1), (2, 2)]
        leafwise = [(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]
        theta = np.concatenate([p.ravel() for _, p in leafwise])
        settings = TrainSettings(lr=0.05, weight_decay=0.1)
        state, ref = OptimizerState(lr=0.05), {"lr": 0.05}
        for step in range(5):
            grads = {name: rng.normal(size=s) * 10.0 ** -step
                     for (name, _), s in zip(leafwise, shapes)}
            adamw_step(theta, np.concatenate([g.ravel() for g in grads.values()]), state,
                       settings, named)
            oracles.leafwise_adamw_step(leafwise, grads, ref, settings)
            state.lr = ref["lr"] = state.lr * 0.5
        assert np.array_equal(theta, np.concatenate([p.ravel() for _, p in leafwise]))

    def test_parameters_of_another_size_than_the_moments_raise(self):
        theta = np.ones(4)
        state = OptimizerState(lr=0.1)
        adamw_step(theta, np.ones_like(theta), state, TrainSettings(), named)
        grown = np.ones(7)
        with pytest.raises(ValueError, match="moments"):
            adamw_step(grown, np.ones_like(grown), state, TrainSettings(), named)

    def test_nonfinite_gradient_moves_no_leaf(self):
        theta = np.array([1.0, 2.0])
        state = OptimizerState(lr=0.1)
        with pytest.raises(ad.NonFiniteError, match="parameter b"):
            adamw_step(theta, np.array([1.0, np.inf]), state, TrainSettings(),
                       lambda g: [("a", g[:1]), ("b", g[1:])])
        assert theta.tolist() == [1.0, 2.0]

    def test_moments_accumulate_across_steps(self):
        theta = self.theta(0.0)
        state = OptimizerState(lr=0.1)
        for _ in range(3):
            adamw_step(theta, np.ones_like(theta), state,
                       TrainSettings(lr=0.1, weight_decay=0.0), named)
        assert state.step_count == 3
        assert theta.item() < 0.0


def tracker(scheduler_patience=5, patience=20):
    return (OptimizerState(lr=1.0),
            TrainSettings(scheduler_factor=0.5, scheduler_patience=scheduler_patience,
                          patience=patience))


class TestPlateauSchedule:
    def test_improving_losses_keep_lr(self):
        state, settings = tracker(scheduler_patience=2)
        for loss in (1.0, 0.9, 0.8, 0.7):
            assert end_epoch(state, loss, settings) == (True, False)
        assert state.lr == 1.0

    def test_six_stalls_patience_five_halves_once(self):
        state, settings = tracker()
        end_epoch(state, 1.0, settings)
        for _ in range(6):
            end_epoch(state, 1.0, settings)
        assert state.lr == 0.5
        assert state.plateau_stall == 0
        assert state.stop_stall == 6

    def test_improvement_after_five_stalls_resets(self):
        state, settings = tracker()
        end_epoch(state, 1.0, settings)
        for _ in range(5):
            end_epoch(state, 1.0, settings)
        assert end_epoch(state, 0.5, settings) == (True, False)
        assert state.lr == 1.0
        assert state.plateau_stall == state.stop_stall == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="train.scheduler_factor"):
            TrainSettings(scheduler_factor=1.5)
        with pytest.raises(ValueError, match="train.scheduler_patience"):
            TrainSettings(scheduler_patience=0)


class TestEarlyStop:
    def test_improving_never_stops(self):
        state, settings = tracker(patience=3)
        assert not any(end_epoch(state, 1.0 - 0.01 * i, settings)[1] for i in range(50))

    def test_flat_losses_stop_at_patience_plus_one(self):
        state, settings = tracker(patience=10)
        stops = [end_epoch(state, 1.0, settings)[1] for _ in range(11)]
        assert stops == [False] * 10 + [True]

    def test_tolerance_treats_tiny_gains_as_stalls(self):
        state, settings = tracker(patience=2)
        end_epoch(state, 1.0, settings)
        assert end_epoch(state, 1.0 - 1e-12, settings) == (False, False)
        assert end_epoch(state, 1.0 - 1e-12, settings) == (False, True)

    def test_best_val_tracks_minimum(self):
        state, settings = tracker()
        improved = [end_epoch(state, loss, settings)[0] for loss in (1.0, 0.4, 0.7, 0.6)]
        assert improved == [True, True, False, False]
        assert state.best == 0.4
