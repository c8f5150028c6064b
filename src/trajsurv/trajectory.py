"""LSTM trajectory integrator: snapshot sequence -> summary vector h*.

The snapshots z_0..z_{T-1}, one node stacked step-major as `evolve` returns
them (T B x d, B rows per step), are consumed by a single-layer LSTM from a
zero initial state; h* is the elementwise mean of all hidden states so no
single step dominates.
The whole recurrence is one tape node, the `lstm` primitive of `autodiff`,
whose backward rule runs backpropagation through time; the parameters stay
the eight `lstm.*` leaves, one weight and one bias per gate. The
integrator-ablation mode bypasses the LSTM and averages the raw snapshots
instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .evolution import uniform_weight


@dataclass
class LstmParams:
    """Gate weights act on [z_t ; h_{t-1}] (width d + d_h); biases are 1 x d_h."""

    w_i: Tensor
    b_i: Tensor
    w_f: Tensor
    b_f: Tensor
    w_g: Tensor
    b_g: Tensor
    w_o: Tensor
    b_o: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.w_i.cols

    @property
    def input_dim(self) -> int:
        return self.w_i.rows - self.hidden_dim

    def named_leaves(self) -> list[tuple[str, Tensor]]:
        return [("lstm.w_i", self.w_i), ("lstm.b_i", self.b_i),
                ("lstm.w_f", self.w_f), ("lstm.b_f", self.b_f),
                ("lstm.w_g", self.w_g), ("lstm.b_g", self.b_g),
                ("lstm.w_o", self.w_o), ("lstm.b_o", self.b_o)]


def init_lstm(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> LstmParams:
    leaves = []
    for _ in range(4):      # gates i, f, g, o, in field order
        leaves += [uniform_weight(rng, input_dim + hidden_dim, hidden_dim),
                   ad.parameter(np.zeros((1, hidden_dim)))]
    return LstmParams(*leaves)


def integrate(snapshots: Tensor, steps: int, params: LstmParams) -> Tensor:
    """Trajectory summary h*: mean of the LSTM hidden states h_1..h_T over
    the `steps` stacked snapshots."""
    return ad.lstm(snapshots, steps, params.w_i, params.b_i, params.w_f, params.b_f,
                   params.w_g, params.b_g, params.w_o, params.b_o)


def integrate_mean(snapshots: Tensor, steps: int) -> Tensor:
    """Integrator ablation: elementwise mean of the `steps` stacked snapshots."""
    if steps < 1 or snapshots.rows % steps:
        raise ValueError(f"cannot integrate {snapshots.rows} snapshot rows as {steps} steps")
    rows, d = snapshots.rows // steps, snapshots.cols
    total = ad.matmul(ad.constant(np.ones((1, steps))), ad.reshape(snapshots, steps, rows * d))
    return ad.mul(ad.reshape(total, rows, d), ad.constant(np.full((rows, d), 1.0 / steps)))
