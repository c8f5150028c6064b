"""Mini-batch training loop with plateau scheduling and early stopping."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cohort import CohortArrays, augment
from .heads import TimeBins
from .model import FullModel, score_passes
from .objective import (LossWeights, OptimizerState, SurvivalLabel, TrainSettings,
                        adamw_step, discrete_nll, end_epoch, nll_backward)


@dataclass
class TrainResult:
    best_val: float
    best_epoch: int
    epochs_run: int
    history: list[tuple[int, float, float, float]] = field(default_factory=list)


def _weighted_nll(logits: dict[str, np.ndarray], cohort: CohortArrays, bins: TimeBins,
                  weights: LossWeights):
    """alpha * OS NLL + beta * DFS NLL of the logits, against the slice's own
    times and event flags, and each task's kept NLL state."""
    os_nll, os_kept = discrete_nll(logits["os"], cohort.time["os"], cohort.event["os"], bins)
    dfs_nll, dfs_kept = discrete_nll(logits["dfs"], cohort.time["dfs"], cohort.event["dfs"],
                                     bins)
    return weights.alpha * os_nll + weights.beta * dfs_nll, {"os": os_kept, "dfs": dfs_kept}


def _mean_loss(model: FullModel, cohort: CohortArrays, weights: LossWeights) -> np.float64:
    """Mean over the slice of alpha * OS NLL + beta * DFS NLL on the model's
    bins: validation's loss, taken once over the joined logits of forwards
    that keep nothing, one per pass of `score_passes`."""
    parts = [model.forward(part) for part in score_passes(cohort)]
    logits = {task: np.concatenate([part[task] for part in parts]) for task in parts[0]}
    del parts   # so that the NLL's arrays are all the join adds to the peak
    return _weighted_nll(logits, cohort, model.config.bins(), weights)[0]


def loss_and_grads(model: FullModel, cohort: CohortArrays, weights: LossWeights) -> np.float64:
    """`_mean_loss` of the slice, from one forward that keeps what backward
    needs in the model's `workspace`; its gradient is left in `model.grad`
    (by name in `model.named_gradients()`), valid until the next backward."""
    logits = model.forward(cohort, keep=True)
    loss, nll_kept = _weighted_nll(logits, cohort, model.config.bins(), weights)
    task_weights = {"os": weights.alpha, "dfs": weights.beta}
    model.backward({task: nll_backward(nll_kept[task], task_weights[task]) for task in logits})
    return loss


def patient_loss(model: FullModel, graph: CohortArrays, dfs: SurvivalLabel,
                 os_label: SurvivalLabel, bins: TimeBins, weights: LossWeights):
    """The loss of one patient, whose graph is a one-patient cohort, scored
    against the labels `dfs` and `os_label` in place of its own, on `bins`."""
    labels = {"dfs": dfs, "os": os_label}
    labelled = replace(graph, time={t: np.array([y.time]) for t, y in labels.items()},
                       event={t: np.array([y.event]) for t, y in labels.items()})
    return _weighted_nll(model.forward(labelled), labelled, bins, weights)[0]


def _train_step(model: FullModel, batch: CohortArrays, weights: LossWeights,
                state: OptimizerState, settings: TrainSettings) -> float:
    """One AdamW step on `batch`; returns its loss."""
    loss = loss_and_grads(model, batch, weights)
    adamw_step(model.theta, model.grad, state, settings, lambda _: model.named_gradients())
    return float(loss)


def train_model(model: FullModel, train: CohortArrays, val: CohortArrays,
                settings: TrainSettings) -> TrainResult:
    """Fit the model in place; the best-validation snapshot is restored.

    Validation is evaluated once per epoch on the combined loss; the plateau
    schedule and early stopping both watch it. With augmentation on, each
    training patient contributes its original graph plus four randomized
    variants, re-drawn every epoch from epoch-derived seeds. Every batch is
    a slice of the shuffled training set. Steps and validation passes write
    their forward state into the model's `workspace` (`autodiff.slot`),
    emptied when the fit ends or raises, and a step its gradient into
    `grad`. The best-epoch snapshot is a copy of `theta`.
    """
    if not len(train) or not len(val):
        raise ValueError("need nonempty train and validation sets")
    weights = LossWeights(settings.alpha, settings.beta)
    state = OptimizerState(lr=settings.lr)
    rng = np.random.default_rng(np.random.SeedSequence([settings.seed, 1]))

    best = model.theta.copy()
    best_epoch = 0
    history = []

    # A diverging run is reported once, by the NonFiniteError of the
    # evolution or AdamW check; numpy's overflow warnings on the way there
    # would only repeat it on stderr.
    with np.errstate(all="ignore"):
        try:
            for epoch in range(1, settings.max_epochs + 1):
                order = rng.permutation(len(train))
                items = train.take(order)
                if settings.augment:
                    items = augment(items, [int(np.random.SeedSequence(
                        [settings.seed, 2, epoch, int(i)]).generate_state(1)[0]) for i in order])

                train_losses = [
                    _train_step(model, items.take(slice(start, start + settings.batch_size)),
                                weights, state, settings)
                    for start in range(0, len(items), settings.batch_size)]

                val_loss = float(_mean_loss(model, val, weights))
                history.append((epoch, float(np.mean(train_losses)), val_loss, state.lr))

                improved, stop = end_epoch(state, val_loss, settings)
                if improved:
                    best = model.theta.copy()
                    best_epoch = epoch
                if stop:
                    break
        finally:
            model.workspace.clear()

    model.theta[...] = best
    return TrainResult(state.best, best_epoch, epochs_run=epoch, history=history)
