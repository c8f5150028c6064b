"""Mini-batch training loop with plateau scheduling and early stopping."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .cohort import CohortArrays, augment
from .heads import TimeBins
from .model import FullModel, restore_parameters, snapshot_parameters
from .objective import (LossWeights, OptimizerState, SurvivalLabel, TrainSettings,
                        adamw_step, discrete_nll, end_epoch)


@dataclass
class TrainResult:
    best_val: float
    best_epoch: int
    epochs_run: int
    history: list[tuple[int, float, float, float]] = field(default_factory=list)


def _mean_loss(model: FullModel, cohort: CohortArrays, bins: TimeBins, weights: LossWeights):
    """Mean over the slice of alpha * OS NLL + beta * DFS NLL, on one tape,
    against the slice's own times and event flags."""
    logits = model.forward(cohort)
    os_nll = discrete_nll(logits["os"], cohort.time["os"], cohort.event["os"], bins)
    dfs_nll = discrete_nll(logits["dfs"], cohort.time["dfs"], cohort.event["dfs"], bins)
    return ad.add(ad.mul(ad.constant([[weights.alpha]]), os_nll),
                  ad.mul(ad.constant([[weights.beta]]), dfs_nll))


def patient_loss(model: FullModel, graph: CohortArrays, dfs: SurvivalLabel,
                 os_label: SurvivalLabel, bins: TimeBins, weights: LossWeights):
    """The loss of one patient, whose graph is a one-patient cohort, scored
    against the labels `dfs` and `os_label` in place of its own."""
    labels = {"dfs": dfs, "os": os_label}
    labelled = replace(graph, time={t: np.array([y.time]) for t, y in labels.items()},
                       event={t: np.array([y.event]) for t, y in labels.items()})
    return _mean_loss(model, labelled, bins, weights)


def _train_step(model: FullModel, batch: CohortArrays, bins: TimeBins, weights: LossWeights,
                params: list[tuple[str, ad.Tensor]], state: OptimizerState,
                settings: TrainSettings) -> float:
    """One AdamW step on `batch`; returns its loss. The step's tape is bound
    only in this frame, so it is freed on return, before the next forward."""
    loss = _mean_loss(model, batch, bins, weights)
    adamw_step(params, ad.backward(loss, params=[p for _, p in params]), state, settings)
    return loss.item()


def train_model(model: FullModel, train: CohortArrays, val: CohortArrays,
                settings: TrainSettings) -> TrainResult:
    """Fit the model in place; the best-validation snapshot is restored.

    Validation is evaluated once per epoch on the combined loss; the plateau
    schedule and early stopping both watch it. With augmentation on, each
    training patient contributes its original graph plus four randomized
    variants, re-drawn every epoch from epoch-derived seeds. Every batch is
    a slice of the shuffled training set. Each step runs in `_train_step`,
    so training holds one step's kept backward state at a time, and none
    during validation.
    """
    if not len(train) or not len(val):
        raise ValueError("need nonempty train and validation sets")
    bins = model.config.bins()
    weights = LossWeights(settings.alpha, settings.beta)
    params = model.named_parameters()
    state = OptimizerState(lr=settings.lr)
    rng = np.random.default_rng(np.random.SeedSequence([settings.seed, 1]))

    best = snapshot_parameters(model)
    best_epoch = 0
    history = []

    # A diverging run is reported once, by the NonFiniteError of the
    # evolution or AdamW check; numpy's overflow warnings on the way there
    # would only repeat it on stderr.
    with np.errstate(all="ignore"):
        for epoch in range(1, settings.max_epochs + 1):
            order = rng.permutation(len(train))
            items = train.take(order)
            if settings.augment:
                items = augment(items, [int(np.random.SeedSequence(
                    [settings.seed, 2, epoch, int(i)]).generate_state(1)[0]) for i in order])

            train_losses = [
                _train_step(model, items.take(slice(start, start + settings.batch_size)),
                            bins, weights, params, state, settings)
                for start in range(0, len(items), settings.batch_size)]

            with ad.no_grad(p for _, p in params):
                val_loss = _mean_loss(model, val, bins, weights).item()
            history.append((epoch, float(np.mean(train_losses)), val_loss, state.lr))

            improved, stop = end_epoch(state, val_loss, settings)
            if improved:
                best = snapshot_parameters(model)
                best_epoch = epoch
            if stop:
                break

    restore_parameters(model, best)
    return TrainResult(state.best, best_epoch, epochs_run=epoch, history=history)
