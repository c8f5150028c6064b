"""Training loop behavior and the one-batch / per-patient loss agreement."""

import copy
import dataclasses
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trajsurv.autodiff import NonFiniteError
from trajsurv.cohort import Scenario, make_cohort, record_to_graph, simulate_cohort
from trajsurv.crossval import feature_widths
from trajsurv.evolution import BACKBONES
from trajsurv.graph import ANATOMICAL_KINDS, NodeKind
from trajsurv.model import ModelConfig, init_model, load_model, save_model
from trajsurv.objective import LossWeights, OptimizerState
from trajsurv.cli import write_training_log
from trajsurv.training import (TrainSettings, _mean_loss, _train_step, loss_and_grads,
                               patient_loss, train_model)

SCENARIO = Scenario(region_len=4, clinical_len=3)
WIDTHS = {**{kind: 4 for kind in ANATOMICAL_KINDS},
          NodeKind.GLOBAL_CT: 4, NodeKind.CLINICAL: 3}


def small_model(backbone="graphsage", seed=0, **overrides):
    base = dict(backbone=backbone, hidden_dim=8, time_dim=4, summary_dim=8,
                context_dim=4, horizon=3, num_bins=4, message_dim=8)
    base.update(overrides)
    config = ModelConfig(**base)
    return config, init_model(config, WIDTHS, np.random.default_rng(seed))


def gradients(model):
    """A copy of the model's gradient by parameter name: the next backward
    overwrites `model.grad`."""
    return {name: g.copy() for name, g in model.named_gradients()}


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
        stacked = loss_and_grads(model, cohort, weights)
        gs = gradients(model)
        singles = [patient_loss(model, g, d, o, bins, weights) for g, d, o in items]
        assert stacked.item() == pytest.approx(np.mean([s.item() for s in singles]),
                                               abs=1e-12)
        per_patient = []
        for g, _, _ in items:
            loss_and_grads(model, g, weights)
            per_patient.append(gradients(model))
        for name, _ in model.named_parameters():
            looped = np.mean([g[name] for g in per_patient], axis=0)
            np.testing.assert_allclose(gs[name], looped, atol=1e-12, rtol=0, err_msg=name)

    def test_unequal_task_weights_also_match(self):
        config, model = small_model("gcn")
        cohort, items = small_items(n=4, seed=2)
        bins = config.bins()
        weights = LossWeights(0.3, 1.7)
        stacked = _mean_loss(model, cohort, weights)
        looped = np.mean([patient_loss(model, g, d, o, bins, weights).item()
                          for g, d, o in items])
        assert stacked.item() == pytest.approx(looped, abs=1e-12)

    def test_single_patient_batch(self):
        config, model = small_model()
        cohort, items = small_items(n=1, drop_region=False)
        bins = config.bins()
        weights = LossWeights(1.0, 1.0)
        stacked = _mean_loss(model, cohort, weights)
        g, dfs, os_label = items[0]
        looped = patient_loss(model, g, dfs, os_label, bins, weights)
        assert stacked.item() == pytest.approx(looped.item(), abs=1e-12)


@pytest.mark.parametrize("backbone", BACKBONES)
def test_missing_region_slots_never_reach_loss_gradients_or_curves(backbone):
    # Values in a missing region's slots, given to `make_cohort` and written
    # into the arrays, change nothing: its row is zero in every operator and
    # the readout.
    _, model = small_model(backbone)
    cohort, _ = small_items(n=4)
    rng = np.random.default_rng(5)
    present = cohort.present.copy()
    present[2, [0, 3]] = False    # the liver and the portal veins

    def noisy(x, scale):
        return np.where(present[:, :, None], x, rng.normal(size=x.shape) * scale)
    dirty = make_cohort(cohort.ids, noisy(cohort.regions, 1.0), present,
                        noisy(cohort.centroids, 1e3), cohort.clinical, cohort.time, cohort.event)
    missing = ~dirty.present
    assert missing.sum() == 3
    dirty.regions[missing] = rng.normal(size=(3, 4))
    dirty.offsets[missing] = rng.uniform(-1.0, 1.0, size=(3, 3))
    def run(data):
        loss = loss_and_grads(model, data, LossWeights(1.0, 1.0))
        curves = model.predict_curves(data)
        return ([loss] + list(gradients(model).values())
                + [curves[task][0] for task in ("dfs", "os")])

    for got, want in zip(run(dirty), run(cohort.with_presence(present))):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("backbone", BACKBONES)
@pytest.mark.parametrize("integrator", ("lstm", "mean"))
def test_every_parameter_is_a_view_of_theta_and_one_step_moves_it(backbone, integrator,
                                                                   tmp_path):
    # After `init_model`, `load_model`, `copy.deepcopy` and a pickle round
    # trip, each named parameter lies in theta, and the views cover it once;
    # each named gradient lies in `grad` at the place its parameter has in
    # theta. AdamW and the
    # best-epoch snapshot act on theta alone. So after one step without
    # weight decay the parameters with a nonzero gradient, and only they,
    # have moved: a field left outside theta would not.
    def offset(view, base):
        return view.__array_interface__["data"][0] - base.__array_interface__["data"][0]

    _, model = small_model(backbone, integrator=integrator)
    save_model(model, tmp_path / "model.npz")
    for m in (model, load_model(tmp_path / "model.npz"), copy.deepcopy(model),
              pickle.loads(pickle.dumps(model))):
        for name, leaf in m.named_parameters():
            assert np.shares_memory(leaf, m.theta), name
        assert sum(leaf.size for _, leaf in m.named_parameters()) == m.theta.size
        assert m.grad.shape == m.theta.shape
        for (name, leaf), (grad_name, g) in zip(m.named_parameters(), m.named_gradients(),
                                                strict=True):
            assert grad_name == name and np.shares_memory(g, m.grad), name
            assert ((offset(g, m.grad), g.shape, g.strides)
                    == (offset(leaf, m.theta), leaf.shape, leaf.strides)), name
    cohort, _ = small_items(n=6)
    before = {name: leaf.copy() for name, leaf in model.named_parameters()}
    settings = quick_settings(weight_decay=0.0)
    _train_step(model, cohort, LossWeights(1.0, 1.0), OptimizerState(lr=settings.lr), settings)
    grads = dict(model.named_gradients())
    moved = [name for name, leaf in model.named_parameters()
             if not np.array_equal(leaf, before[name])]
    assert moved == [name for name in before if grads[name].any()]
    assert moved


# theta's size at the default widths, with regions of 8 features and 6
# clinical ones, per (integrator, cascade).
THETA_SIZES = {("lstm", True): 16232, ("lstm", False): 15512,
               ("mean", True): 7912, ("mean", False): 7192}


@pytest.mark.parametrize("integrator,cascade", sorted(THETA_SIZES))
def test_each_config_holds_only_its_stages(integrator, cascade):
    # The LSTM exists only for the `lstm` integrator, and the context
    # projection only with the cascade; the mortality logits read d_h + d_c
    # inputs with it and d_h without. The embedding and evolution are the
    # same in every config.
    config = ModelConfig(integrator=integrator, cascade=cascade)
    widths = {**{kind: 8 for kind in ANATOMICAL_KINDS}, NodeKind.GLOBAL_CT: 8,
              NodeKind.CLINICAL: 6}
    model = init_model(config, widths, np.random.default_rng(0))
    default = init_model(ModelConfig(), widths, np.random.default_rng(0))
    names = [name for name, _ in model.named_parameters()]
    shared = [name for name, _ in default.named_parameters()
              if name.startswith(("embed.", "op."))]
    lstm = [f"lstm.{kind}_{gate}" for gate in "ifgo" for kind in "wb"]
    context = ["heads.w_ctx", "heads.b_ctx"]
    assert names == (shared + (lstm if integrator == "lstm" else [])
                     + (context if cascade else [])
                     + ["heads.w_dfs", "heads.b_dfs", "heads.w_os", "heads.b_os"])
    assert (model.lstm is None) == (integrator == "mean")
    assert model.heads.w_os.shape == (32 + 16 * cascade, 12)
    assert model.theta.size == THETA_SIZES[integrator, cascade]


@pytest.mark.parametrize("how", ("deepcopy", "pickle"))
def test_a_step_on_a_copied_model_leaves_the_original_alone(how):
    # A copy is rebuilt through the constructor, so a step on the copy moves
    # the copy's logits and leaves the original's bits alone.
    _, model = small_model("gat")
    copy_of = {"deepcopy": copy.deepcopy, "pickle": lambda m: pickle.loads(pickle.dumps(m))}
    clone = copy_of[how](model)
    assert np.array_equal(clone.theta, model.theta)
    cohort, _ = small_items(n=6)
    before = {task: logits.copy() for task, logits in model.forward(cohort).items()}
    settings = quick_settings()
    _train_step(clone, cohort, LossWeights(1.0, 1.0), OptimizerState(lr=settings.lr), settings)
    moved = clone.forward(cohort)
    for task, logits in model.forward(cohort).items():
        assert np.array_equal(logits, before[task]), task
        assert not np.array_equal(moved[task], before[task]), task


def test_each_model_has_its_own_empty_workspace(tmp_path):
    # A model from `init_model` or `load_model`, a deep copy, a pickle round
    # trip and a `dataclasses.replace` copy each start with an empty
    # workspace of their own, though the model they copy holds a step's.
    _, model = small_model("gat")
    loss_and_grads(model, small_items(n=6)[0], LossWeights(1.0, 1.0))
    assert model.workspace
    save_model(model, tmp_path / "model.npz")
    others = [small_model("gat")[1], load_model(tmp_path / "model.npz"), copy.deepcopy(model),
              pickle.loads(pickle.dumps(model)), dataclasses.replace(model)]
    for other in others:
        assert other.workspace == {}
    assert len({id(m.workspace) for m in [model, *others]}) == len(others) + 1


def test_backward_needs_a_keeping_forward():
    # `backward` takes what the last forward kept out of the workspace, so it
    # raises rather than reuse a stale state: before any forward, after a
    # forward that kept nothing, and a second time after one that kept.
    _, model = small_model()
    cohort, _ = small_items(n=6)
    d_logits = {task: np.ones_like(x) for task, x in model.forward(cohort).items()}
    with pytest.raises(KeyError):
        model.backward(d_logits)
    model.forward(cohort, keep=True)
    model.forward(cohort)
    with pytest.raises(KeyError):
        model.backward(d_logits)
    model.forward(cohort, keep=True)
    model.backward(d_logits)
    with pytest.raises(KeyError):
        model.backward(d_logits)


def test_a_fit_leaves_the_workspace_empty_when_it_returns_or_raises():
    # A fitted model holds no step state; nor does one whose fit diverged
    # in the evolution of its first step, after the workspace had grown.
    _, model = small_model()
    cohort, _ = small_items(n=12)
    train_model(model, cohort[:8], cohort[8:], quick_settings(max_epochs=2))
    assert model.workspace == {}
    model.theta[...] = 1e300
    with pytest.raises(NonFiniteError, match="evolution step 0"):
        train_model(model, cohort[:8], cohort[8:], quick_settings(max_epochs=2))
    assert model.workspace == {}


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
        _, model = small_model(seed=4)
        result = train_model(model, train, val, quick_settings(lr=0.1))
        recomputed = _mean_loss(model, val, LossWeights(1.0, 1.0)).item()
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
        before = model.theta.copy()
        result = train_model(model, train, val,
                             quick_settings(max_epochs=2, augment=True))
        assert result.epochs_run == 2
        assert not np.array_equal(before, model.theta)

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
        assert np.array_equal(m1.theta, m2.theta)

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
    1.25x of one forward and backward: each step writes its kept state over
    the previous step's, in the model's workspace. Holding two peaked at
    1.50x (graphsage) and 1.75x (gat). The step's workspace is emptied
    before the fit, so that the fit's peak counts the buffers it grows."""
    cohort, _ = simulate_cohort(60, seed=2, scenario=SCENARIO)
    train, val = cohort[:48], cohort[48:]
    _, model = small_model(backbone, hidden_dim=32, message_dim=32, summary_dim=32,
                           horizon=48)
    settings = quick_settings(batch_size=16, max_epochs=1)
    step = traced_peak(lambda: loss_and_grads(model, train[:16], LossWeights(1.0, 1.0)))
    model.workspace.clear()
    training = traced_peak(lambda: train_model(model, train, val, settings))
    assert training <= 1.25 * step, (training, step)


@pytest.mark.parametrize("backbone", ["graphsage", "gat"])
def test_validation_holds_one_pass_at_a_time(backbone):
    """`_mean_loss` on 3,200 patients of the default model peaks within
    1.5x of its peak on 64, each from an empty workspace: its forwards run
    in passes of 64 in the model's workspace, so only the joined logits and
    one task's NLL state grow with the cohort. One forward of the whole set
    on fresh arrays peaked at 89 MB against 1.8 MB (graphsage) and 127 MB
    against 2.6 MB (gat)."""
    cohort, _ = simulate_cohort(3200, seed=1)
    model = init_model(ModelConfig(backbone=backbone), feature_widths(cohort),
                       np.random.default_rng(0))
    peaks = []
    for n in (64, 3200):
        model.workspace.clear()
        peaks.append(traced_peak(lambda: _mean_loss(model, cohort[:n], LossWeights())))
    assert peaks[1] <= 1.5 * peaks[0], peaks


# One process's average minor page faults per call on the first
# `sys.argv[2]` of 130 simulated patients, with the default model, over 20
# calls after two warm-up calls: a `_train_step` ("train"), a validation
# pass `_mean_loss` ("validate") or a scoring run's `_predict_fold`
# ("score").
FAULTS_PER_CALL = """
import resource
import sys
import numpy as np
from trajsurv.cohort import simulate_cohort
from trajsurv.crossval import _predict_fold, feature_widths
from trajsurv.model import ModelConfig, init_model
from trajsurv.objective import LossWeights, OptimizerState, TrainSettings
from trajsurv.training import _mean_loss, _train_step

cohort, _ = simulate_cohort(130, seed=1)
cohort = cohort[:int(sys.argv[2])]
config, settings = ModelConfig(), TrainSettings()
model = init_model(config, feature_widths(cohort), np.random.default_rng(0))
state = OptimizerState(lr=settings.lr)
weights = LossWeights(settings.alpha, settings.beta)
call = {"train": lambda: _train_step(model, cohort, weights, state, settings),
        "validate": lambda: _mean_loss(model, cohort, weights),
        "score": lambda: _predict_fold(model, cohort)}[sys.argv[1]]
call()
call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    call()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def faults_per_call(kind: str, patients: int) -> float:
    """`FAULTS_PER_CALL` of `kind` on `patients`, run in a fresh process,
    since the allocator's state that earlier tests leave decides how many
    pages a freed array takes back to the kernel."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_CALL, kind, str(patients)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the minor page faults of Linux's getrusage")
@pytest.mark.parametrize("batch", (16, 64))
def test_training_steps_fault_in_no_kept_state(batch):
    """A training step keeps its state in the model's workspace, and AdamW
    updates in place, so once warm a step faults in almost no pages.
    Allocating that state afresh each step faulted about 500 per step at
    B 64 (cv400's shape); AdamW's five parameter-sized temporaries faulted
    about 127 at B 16, where they are the step's largest arrays."""
    per_step = faults_per_call("train", batch)
    assert per_step < 50, per_step


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the minor page faults of Linux's getrusage")
@pytest.mark.parametrize("kind,patients", [("validate", 64), ("score", 130)])
def test_validation_and_scoring_fault_in_no_forward_state(kind, patients):
    """Validation and scoring write their forwards' state into the model's
    workspace, as a training step does, so once warm a validation pass on
    64 patients and a scoring run on 130 (passes of 64, 64 and 2) each
    fault in almost no pages. On fresh arrays, the validation pass faulted
    416 and the scoring run 832."""
    per_call = faults_per_call(kind, patients)
    assert per_call < 50, per_call


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
