"""Censored discrete-time likelihood, the two-task loss, and optimization.

The per-patient loss is the standard discrete-time survival likelihood: an
event in bin k contributes -[ln h_k + sum_{j<k} ln(1-h_j)]; a censoring in
bin k contributes survival through bin k inclusive, -sum_{j<=k} ln(1-h_j).
It is computed from the logits x of h = sigmoid(x), as ln h = ln sigmoid(x) and
ln(1-h) = ln sigmoid(-x): exact at any logit, with no clamp. A batch's loss
is the mean over its patients.
Optimization is AdamW with decoupled weight decay, a reduce-on-plateau
learning-rate schedule, and early stopping with best-snapshot retention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import NonFiniteError, ShapeMismatchError
from .heads import TimeBins
from .model import check

IMPROVE_TOL = 1e-8
# AdamW's moment decay rates and denominator offset (Loshchilov & Hutter 2019).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True, slots=True)
class SurvivalLabel:
    """Observed follow-up in years and event flag (1 = event, 0 = censored)."""

    time: float
    event: int

    def __post_init__(self):
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(f"survival time must be finite and >= 0, got {self.time}")
        if self.event not in (0, 1):
            raise ValueError(f"event flag must be 0 or 1, got {self.event}")


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or (self.alpha == 0 and self.beta == 0):
            raise ValueError("loss weights must be nonnegative and not both zero")


@dataclass(frozen=True)
class TrainSettings:
    lr: float = 1e-3
    batch_size: int = 64
    alpha: float = 1.0
    beta: float = 1.0
    max_epochs: int = 500
    patience: int = 20
    scheduler_factor: float = 0.5
    scheduler_patience: int = 5
    weight_decay: float = 0.01
    augment: bool = False
    seed: int = 0

    def __post_init__(self):
        check([
            (self.lr > 0, "train.lr must be positive"),
            (self.batch_size >= 1, "train.batch_size must be >= 1"),
            (self.max_epochs >= 1 and self.patience >= 1,
             "train.max_epochs and patience must be >= 1"),
            (0 < self.scheduler_factor < 1, "train.scheduler_factor must be in (0,1)"),
            (self.scheduler_patience >= 1, "train.scheduler_patience must be >= 1"),
            (self.seed >= 0, "train.seed must be >= 0"),
        ])
        try:
            LossWeights(self.alpha, self.beta)
        except ValueError as exc:
            raise ValueError(f"train.alpha/beta: {exc}") from exc


def label_to_bin(time: float, bins: TimeBins) -> int:
    """Largest k with edges[k] <= time; times at or past the horizon clamp to K-1."""
    if time < 0:
        raise ValueError(f"negative time {time}")
    return int(bins.index(time))


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log σ(x) = min(x, 0) - log(1 + e^-|x|): finite and exact at any logit."""
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def discrete_nll(logits: np.ndarray, time: np.ndarray, event: np.ndarray, bins: TimeBins):
    """Mean negative log-likelihood of a batch given its B x K hazard logits
    and each patient's observed time (binned by `bins.index`) and event
    flag, and what `nll_backward` needs: the logits and the two masks."""
    K = bins.count
    if logits.shape != (len(time), K) or not len(time):
        raise ShapeMismatchError("discrete-nll", logits.shape, (len(time), K))
    k = bins.index(time)[:, None]
    event = np.asarray(event)[:, None]
    cols = np.arange(K)[None, :]
    event_mask = (cols == k) & (event == 1)
    surv_mask = cols < k + 1 - event
    log_h, log_s = log_sigmoid(logits), log_sigmoid(-logits)
    loss = -(event_mask * log_h + surv_mask * log_s).sum() * (1.0 / len(time))
    return loss, (logits, event_mask, surv_mask)


def nll_backward(kept, weight: float) -> np.ndarray:
    """The gradient of `weight` times the NLL with respect to the logits,
    from what `discrete_nll` kept. d/dx log σ(x) = σ(-x) = exp(log σ(x) - x),
    which cannot overflow. The log-sigmoids are made again, and the terms in
    the tape's order (x - (-y) as x + y), so the bits are the tape's."""
    logits, event_mask, surv_mask = kept
    scale = -(weight * (1.0 / len(logits)))
    return ((scale * event_mask) * np.exp(log_sigmoid(logits) - logits)
            - (scale * surv_mask) * np.exp(log_sigmoid(-logits) + logits))


@dataclass
class OptimizerState:
    """AdamW's (m, v) pair, each a vector laid out as the parameter vector;
    the scheduled learning rate; and the best validation loss with the
    evaluations since it, counted once for the schedule and once to stop."""

    lr: float
    moments: tuple[np.ndarray, np.ndarray] | None = None
    step_count: int = 0
    best: float = np.inf
    plateau_stall: int = 0
    stop_stall: int = 0


def adamw_step(theta: np.ndarray, grad: np.ndarray, state: OptimizerState,
               settings: TrainSettings,
               named: Callable[[np.ndarray], list[tuple[str, np.ndarray]]]) -> None:
    """Decoupled-weight-decay Adam update of the parameter vector `theta`, in
    place, from its gradient `grad`, a vector of the same layout.

    The update is elementwise, so every element sees the same operations as
    in a parameter-by-parameter update, and the result is the same bit for
    bit. It runs in two vector-sized scratch arrays, so that at small
    batches the allocator does not hand their pages back to the kernel
    after every step. A non-finite gradient stops the step before any
    parameter moves; the error names the first parameter, in the order of
    `named(grad)` (its views by name), that holds one.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    if not np.isfinite(grad).all():
        name = next(name for name, g in named(grad) if not np.isfinite(g).all())
        raise NonFiniteError(f"non-finite gradient for parameter {name}")
    if state.moments is None:
        state.moments = (np.zeros_like(theta), np.zeros_like(theta))
    m, v = state.moments
    if not m.size == theta.size == grad.size:
        raise ValueError(f"parameters hold {theta.size} values, their gradient {grad.size} "
                         f"and the moments {m.size}")
    # theta -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + weight_decay * theta),
    # with the moments' updates and that step formed in `update` and `scratch`.
    update, scratch = np.empty((2, theta.size))
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=update)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(grad, grad, out=scratch), 1.0 - ADAM_BETA2, out=scratch)
    np.divide(m, bc1, out=update)
    np.sqrt(np.divide(v, bc2, out=scratch), out=scratch)
    scratch += ADAM_EPS
    update /= scratch
    update += np.multiply(theta, settings.weight_decay, out=scratch)
    update *= state.lr
    theta -= update


def end_epoch(state: OptimizerState, val_loss: float,
              settings: TrainSettings) -> tuple[bool, bool]:
    """(improved, stop) after one epoch's validation loss. Improving on the
    best by more than `IMPROVE_TOL` resets both counters; otherwise the lr
    is cut by `scheduler_factor` once the plateau counter exceeds
    `scheduler_patience` (restarting it), and stop is due at `patience`."""
    if val_loss < state.best - IMPROVE_TOL:
        state.best = val_loss
        state.plateau_stall = state.stop_stall = 0
        return True, False
    state.plateau_stall += 1
    state.stop_stall += 1
    if state.plateau_stall > settings.scheduler_patience:
        state.lr *= settings.scheduler_factor
        state.plateau_stall = 0
    return False, state.stop_stall >= settings.patience
