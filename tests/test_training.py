"""Training loop behavior and the one-batch / per-patient loss agreement."""

import re
import tracemalloc

import numpy as np
import pytest

from trajsurv.cohort import Scenario, make_cohort, record_to_graph, simulate_cohort
from trajsurv.evolution import BACKBONES
from trajsurv.graph import ANATOMICAL_KINDS, NodeKind
from trajsurv.model import ModelConfig, init_model, snapshot_parameters
from trajsurv.objective import LossWeights
from trajsurv.cli import write_training_log
from trajsurv.training import (TrainSettings, _mean_loss, loss_and_grads, patient_loss,
                               train_model)

SCENARIO = Scenario(region_len=4, clinical_len=3)
WIDTHS = {**{kind: 4 for kind in ANATOMICAL_KINDS},
          NodeKind.GLOBAL_CT: 4, NodeKind.CLINICAL: 3}


def small_model(backbone="graphsage", seed=0, **overrides):
    base = dict(backbone=backbone, hidden_dim=8, time_dim=4, summary_dim=8,
                context_dim=4, horizon=3, num_bins=4, message_dim=8)
    base.update(overrides)
    config = ModelConfig(**base)
    return config, init_model(config, WIDTHS, np.random.default_rng(seed))


def small_items(n=6, seed=0, drop_region=True):
    cohort, _ = simulate_cohort(max(n, 10), seed=seed, scenario=SCENARIO)
    cohort = cohort[:n]
    if drop_region:
        # One patient without its tumour region exercises padding rows in the batch.
        present = cohort.present.copy()
        present[0, -1] = False
        cohort = cohort.with_presence(present)
    return cohort, [(record_to_graph(r), r.dfs, r.os) for r in cohort]


VARIANTS = {
    "default": {},
    "static": {"horizon": 1},
    "mean_integrator": {"integrator": "mean"},
    "no_cascade": {"cascade": False},
}


class TestBatchedAgreement:
    """One batch of B patients against B batches of one."""

    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_loss_and_gradients_match_per_patient_route(self, backbone, variant):
        config, model = small_model(backbone, **VARIANTS[variant])
        cohort, items = small_items()
        bins = config.bins()
        weights = LossWeights(1.0, 1.0)
        stacked, gs = loss_and_grads(model, cohort, bins, weights)
        singles = [patient_loss(model, g, d, o, bins, weights) for g, d, o in items]
        assert stacked.item() == pytest.approx(np.mean([s.item() for s in singles]),
                                               abs=1e-12)
        per_patient = [loss_and_grads(model, g, bins, weights)[1] for g, _, _ in items]
        for name, _ in model.named_parameters():
            looped = np.mean([g[name] for g in per_patient], axis=0)
            np.testing.assert_allclose(gs[name], looped, atol=1e-12, rtol=0, err_msg=name)

    def test_unequal_task_weights_also_match(self):
        config, model = small_model("gcn")
        cohort, items = small_items(n=4, seed=2)
        bins = config.bins()
        weights = LossWeights(0.3, 1.7)
        stacked = _mean_loss(model, cohort, bins, weights)
        looped = np.mean([patient_loss(model, g, d, o, bins, weights).item()
                          for g, d, o in items])
        assert stacked.item() == pytest.approx(looped, abs=1e-12)

    def test_single_patient_batch(self):
        config, model = small_model()
        cohort, items = small_items(n=1, drop_region=False)
        bins = config.bins()
        weights = LossWeights(1.0, 1.0)
        stacked = _mean_loss(model, cohort, bins, weights)
        g, dfs, os_label = items[0]
        looped = patient_loss(model, g, dfs, os_label, bins, weights)
        assert stacked.item() == pytest.approx(looped.item(), abs=1e-12)


@pytest.mark.parametrize("backbone", BACKBONES)
def test_missing_region_slots_never_reach_loss_gradients_or_curves(backbone):
    # Values in a missing region's slots, given to `make_cohort` and written
    # into the arrays, change nothing: its row is zero in every operator and
    # the readout.
    config, model = small_model(backbone)
    cohort, _ = small_items(n=4)
    rng = np.random.default_rng(5)
    present = cohort.present.copy()
    present[2, [0, 3]] = False    # the liver and the portal veins

    def noisy(x, scale):
        return np.where(present[:, :, None], x, rng.normal(size=x.shape) * scale)
    bins = config.bins()
    dirty = make_cohort(cohort.ids, noisy(cohort.regions, 1.0), present,
                        noisy(cohort.centroids, 1e3), cohort.clinical, cohort.time, cohort.event)
    missing = ~dirty.present
    assert missing.sum() == 3
    dirty.regions[missing] = rng.normal(size=(3, 4))
    dirty.offsets[missing] = rng.uniform(-1.0, 1.0, size=(3, 3))
    def run(data):
        loss, grads = loss_and_grads(model, data, bins, LossWeights(1.0, 1.0))
        curves = model.predict_curves(data)
        return ([loss] + list(grads.values()) + [curves[task][0] for task in ("dfs", "os")])

    for got, want in zip(run(dirty), run(cohort.with_presence(present))):
        assert np.array_equal(got, want)


def quick_settings(**overrides):
    base = dict(lr=1e-2, batch_size=8, max_epochs=6, patience=20,
                scheduler_patience=5, seed=0)
    base.update(overrides)
    return TrainSettings(**base)


class TestTrainModel:
    def cohort(self, n=20, seed=1):
        cohort, _ = simulate_cohort(n, seed=seed, scenario=SCENARIO)
        cut = int(0.7 * n)
        return cohort[:cut], cohort[cut:]

    def test_loss_decreases_on_learnable_cohort(self):
        train, val = self.cohort()
        _, model = small_model(seed=3)
        result = train_model(model, train, val, quick_settings())
        first_train = result.history[0][1]
        assert min(row[1] for row in result.history) < first_train
        assert result.best_val <= result.history[0][2]

    def test_best_snapshot_restored(self):
        # At lr 0.1 validation is best at epoch 4 of 6, so the parameters
        # the last epoch leaves are not the best ones.
        train, val = self.cohort()
        config, model = small_model(seed=4)
        result = train_model(model, train, val, quick_settings(lr=0.1))
        recomputed = _mean_loss(model, val, config.bins(), LossWeights(1.0, 1.0)).item()
        assert recomputed == pytest.approx(result.best_val, abs=1e-9)
        assert result.best_epoch < result.epochs_run

    def test_early_stop_fires_on_frozen_model(self):
        # Steps of 1e-300 move no weight by a representable amount (the zero
        # biases move by about 1e-300), so validation never improves after epoch 1.
        train, val = self.cohort()
        _, model = small_model(seed=5)
        settings = quick_settings(lr=1e-300, max_epochs=100, patience=3)
        result = train_model(model, train, val, settings)
        assert result.epochs_run == 1 + settings.patience
        assert result.best_epoch == 1

    def test_plateau_halves_learning_rate(self):
        train, val = self.cohort()
        _, model = small_model(seed=6)
        settings = quick_settings(lr=1e-12, max_epochs=5, patience=30,
                                  scheduler_patience=1)
        result = train_model(model, train, val, settings)
        lrs = [row[3] for row in result.history]
        assert lrs[0] == 1e-12
        assert lrs[3] == pytest.approx(0.5e-12)

    def test_log_file_format(self, tmp_path):
        train, val = self.cohort()
        _, model = small_model(seed=7)
        log = tmp_path / "train.log"
        result = train_model(model, train, val, quick_settings(max_epochs=3))
        write_training_log(log, result.history)
        lines = log.read_text().splitlines()
        assert len(lines) == result.epochs_run
        pattern = re.compile(r"^\d+\t\d+\.\d{6}\t\d+\.\d{6}\t\d\.\d{3}e[+-]\d{2}$")
        for line in lines:
            assert pattern.match(line), line

    def test_augmentation_path_runs(self):
        train, val = self.cohort(n=12)
        _, model = small_model(seed=8)
        before = snapshot_parameters(model)
        result = train_model(model, train, val,
                             quick_settings(max_epochs=2, augment=True))
        assert result.epochs_run == 2
        after = snapshot_parameters(model)
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    def test_empty_sets_rejected(self):
        train, val = self.cohort()
        _, model = small_model()
        with pytest.raises(ValueError, match="nonempty"):
            train_model(model, train[:0], val, quick_settings())
        with pytest.raises(ValueError, match="nonempty"):
            train_model(model, train, val[:0], quick_settings())

    def test_same_seed_bitwise_reproducible(self):
        train, val = self.cohort()
        settings = quick_settings(max_epochs=4)
        _, m1 = small_model(seed=9)
        _, m2 = small_model(seed=9)
        r1 = train_model(m1, train, val, settings)
        r2 = train_model(m2, train, val, settings)
        assert r1.history == r2.history
        s1, s2 = snapshot_parameters(m1), snapshot_parameters(m2)
        assert all(np.array_equal(s1[k], s2[k]) for k in s1)

    def test_gat_backbone_trains(self):
        train, val = self.cohort(n=12)
        _, model = small_model("gat", seed=10)
        result = train_model(model, train[:6], val[:3], quick_settings(max_epochs=2))
        assert result.epochs_run == 2
        assert np.isfinite(result.best_val)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("backbone", ["graphsage", "gat"])
def test_training_holds_one_step_tape_at_a_time(backbone):
    """Over three batches and a validation pass, `train_model` peaks within
    1.25x of one forward and backward: the kept state of one step is freed
    before the next forward is built. Holding two peaked at 1.50x
    (graphsage) and 1.75x (gat)."""
    cohort, _ = simulate_cohort(60, seed=2, scenario=SCENARIO)
    train, val = cohort[:48], cohort[48:]
    config, model = small_model(backbone, hidden_dim=32, message_dim=32, summary_dim=32,
                                horizon=48)
    settings = quick_settings(batch_size=16, max_epochs=1)
    step = traced_peak(lambda: loss_and_grads(model, train[:16], config.bins(),
                                              LossWeights(1.0, 1.0)))
    training = traced_peak(lambda: train_model(model, train, val, settings))
    assert training <= 1.25 * step, (training, step)


def featureless_cohort(n=40):
    """n patients with identical features and every region present. Every
    OS and DFS bin of the four annual bins has both events and patients who
    survive it, so the life table d_k / r_k lies strictly inside (0, 1)."""
    os_time = np.tile([0.5, 1.5, 2.5, 3.5, 5.0], n // 5)
    dfs_time = np.minimum(os_time, np.tile([0.2, 0.7, 1.2, 2.2, 3.2], n // 5))
    return make_cohort([f"p{i:02d}" for i in range(n)], np.full((n, 5, 4), 0.3),
                       np.ones((n, 5), dtype=bool), np.zeros((n, 5, 3)), np.full((n, 3), 0.5),
                       {"os": os_time, "dfs": dfs_time},
                       {"os": np.tile([1, 1, 1, 1, 0, 0, 1, 0, 1, 0], n // 10),
                        "dfs": np.tile([1, 0, 1, 1, 0, 1, 1, 0, 1, 1], n // 10)})


def test_featureless_patients_learn_the_life_table():
    # With identical features every patient has the same summary, so each
    # head's logits are one free vector per bin, and the discrete-time NLL
    # is minimised at the life table h_k = d_k / r_k: d_k events in bin k
    # over the r_k patients whose bin is k or later, a patient censored in
    # bin k surviving it. Validation is the training set, so the schedule and
    # the best-epoch restore follow the same table. A 300-patient, default-width
    # probe came within 4.5e-5, and these widths come within 3.1e-5.
    cohort = featureless_cohort()
    config, model = small_model(horizon=2, hidden_dim=4, time_dim=2, summary_dim=4,
                                context_dim=2, message_dim=4)
    train_model(model, cohort, cohort, quick_settings(batch_size=len(cohort), max_epochs=300,
                                                      patience=300, weight_decay=0.0,
                                                      scheduler_patience=10))
    curves = model.predict_curves(cohort)
    bins = config.bins()
    for task in ("os", "dfs"):
        hazard, survival = curves[task]
        k, event = bins.index(cohort.time[task]), cohort.event[task]
        d = np.bincount(k[event == 1], minlength=bins.count)
        r = np.bincount(k, minlength=bins.count)[::-1].cumsum()[::-1]
        assert ((0 < d) & (d < r)).all()
        assert (hazard == hazard[0]).all() and (survival == survival[0]).all()
        np.testing.assert_allclose(hazard[0], d / r, rtol=0, atol=1e-4, err_msg=task)
        np.testing.assert_allclose(survival[0], np.cumprod(1.0 - d / r), rtol=0, atol=1e-4,
                                   err_msg=task)
