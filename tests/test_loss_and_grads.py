"""`training.loss_and_grads` and the model's `grad` against the model's loss
on the tape.

The tape form (`oracles.tape_mean_loss`) is the package's former way of
differentiating the model: the embedding, the integrator ablation, the heads
and the NLL as per-op tape nodes around the `evolve` and `lstm` nodes. The
hand-written backward must give the same loss and the same gradients bit
for bit at the default widths, and within 1e-12 at widths off the BLAS tile.
"""

import itertools

import numpy as np
import pytest

import oracles
from trajsurv import heads
from trajsurv import model as model_module
from trajsurv.cohort import simulate_cohort
from trajsurv.crossval import _cascade_grad_check, feature_widths
from trajsurv.evolution import BACKBONES
from trajsurv.model import ModelConfig, init_model, score_passes
from trajsurv.objective import LossWeights
from trajsurv.training import _mean_loss, loss_and_grads


def cohort_of(rows):
    """`rows` simulated patients; at 40, about a third of the regions absent."""
    cohort, _ = simulate_cohort(64, seed=3)
    cohort = cohort[:rows]
    if rows == 40:
        present = cohort.present & (np.random.default_rng(1).random(cohort.present.shape) > 0.35)
        present[:, 0] = True
        cohort = cohort.with_presence(present)
    return cohort


def gradients(model):
    """A copy of the model's gradient by parameter name: the next backward
    overwrites `model.grad`."""
    return {name: g.copy() for name, g in model.named_gradients()}


def both(config, rows, weights=LossWeights(0.7, 1.3), seed=5):
    cohort = cohort_of(rows)
    model = init_model(config, feature_widths(cohort), np.random.default_rng(seed))
    loss = loss_and_grads(model, cohort, weights)
    return ((loss, gradients(model)),
            oracles.tape_loss_and_grads(model, cohort, config.bins(), weights), model)


@pytest.mark.parametrize("backbone,integrator,cascade,rows",
                         list(itertools.product(BACKBONES, ("lstm", "mean"), (True, False),
                                                (1, 40, 64))))
def test_loss_and_gradients_are_the_tape_bits(backbone, integrator, cascade, rows):
    config = ModelConfig(backbone=backbone, integrator=integrator, cascade=cascade)
    (loss, grads), (ref_loss, ref_grads), model = both(config, rows)
    assert loss == ref_loss
    assert list(grads) == [name for name, _ in model.named_parameters()] == list(ref_grads)
    for name in grads:
        assert grads[name].shape == ref_grads[name].shape, name
        assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("backbone", BACKBONES)
@pytest.mark.parametrize("integrator", ("lstm", "mean"))
def test_loss_and_gradients_off_the_default_widths(backbone, integrator):
    config = ModelConfig(backbone=backbone, integrator=integrator, hidden_dim=9, time_dim=5,
                         summary_dim=11, context_dim=3, horizon=5, num_bins=7, message_dim=13,
                         attention_dim=6)
    (loss, grads), (ref_loss, ref_grads), _ = both(config, 40)
    assert abs(loss - ref_loss) <= 1e-12
    for name in ref_grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("backbone,integrator",
                         list(itertools.product(BACKBONES, ("lstm", "mean"))))
def test_reused_workspace_gives_fresh_bits(backbone, integrator):
    # One workspace serves a batch, another batch of its size, a larger batch
    # (the buffers grow) and the first batch again (views of the grown
    # buffers); each loss and gradient is == to a call on fresh arrays, one
    # per slot (`oracles.FreshArrays` as the model's workspace). The gradient
    # is copied before the reference call, whose backward overwrites
    # `model.grad` after zeroing it.
    config = ModelConfig(backbone=backbone, integrator=integrator)
    first = cohort_of(40)
    model = init_model(config, feature_widths(first), np.random.default_rng(5))
    weights, reused = LossWeights(0.7, 1.3), model.workspace
    for batch in (first, simulate_cohort(40, seed=4)[0], cohort_of(64), first):
        model.workspace = reused
        loss = loss_and_grads(model, batch, weights)
        grads = gradients(model)
        model.workspace = oracles.FreshArrays()
        ref_loss = loss_and_grads(model, batch, weights)
        ref_grads = dict(model.named_gradients())
        assert loss == ref_loss
        assert list(grads) == list(ref_grads)
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


def test_the_loss_is_validations_loss():
    # Validation takes its NLL once, over the joined logits of its passes,
    # and gives the one-shot loss's bits: at 40 and 65 patients in one pass
    # (the trailing single patient joins the pass before), at 80 in two and
    # at 320 in five.
    config = ModelConfig(hidden_dim=8, time_dim=4, summary_dim=8, context_dim=4, horizon=3,
                         num_bins=4, message_dim=8)
    larger, _ = simulate_cohort(320, seed=3)
    weights = LossWeights(0.3, 1.7)
    for cohort, passes in ((cohort_of(40), 1), (larger[:65], 1), (larger[:80], 2),
                           (larger, 5)):
        assert len(list(score_passes(cohort))) == passes
        model = init_model(config, feature_widths(cohort), np.random.default_rng(0))
        loss = loss_and_grads(model, cohort, weights)
        assert loss == _mean_loss(model, cohort, weights), len(cohort)


@pytest.mark.parametrize("cascade", (True, False))
def test_cascade_check_is_the_os_term_alone(cascade, monkeypatch):
    # The check moves every heads array but the mortality logits' own: a
    # model with the cascade fails it through its context weights, and one
    # without, which has none, passes. The DFS term sends no gradient to
    # the context or the mortality logits. A mortality head that also reads
    # the recurrence logits' weights fails the check. The check leaves the
    # model's own weights as they were.
    config = ModelConfig(cascade=cascade, hidden_dim=8, time_dim=4, summary_dim=8,
                         context_dim=4, horizon=3, num_bins=4, message_dim=8)
    cohort = cohort_of(40)
    model = init_model(config, feature_widths(cohort), np.random.default_rng(2))
    before = model.theta.copy()
    assert _cascade_grad_check(model, cohort) is not cascade
    assert np.array_equal(model.theta, before)
    loss_and_grads(model, cohort, LossWeights(0.0, 1.0))
    dfs_only = dict(model.named_gradients())
    context = ["heads.w_ctx", "heads.b_ctx"] if cascade else []
    assert [name for name in dfs_only if name.startswith("heads.")] == context + [
        "heads.w_dfs", "heads.b_dfs", "heads.w_os", "heads.b_os"]
    for name in context + ["heads.w_os", "heads.b_os"]:
        assert (dfs_only[name] == 0.0).all(), name
    monkeypatch.setattr(model_module, "os_head", lambda h_star, context, params:
                        heads.os_head(h_star, context, params) + h_star @ params.w_dfs)
    assert _cascade_grad_check(model, cohort) is False
