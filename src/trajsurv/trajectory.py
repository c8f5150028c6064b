"""LSTM trajectory integrator: snapshot sequence -> summary vector h*.

The snapshots z_0..z_{T-1}, one node stacked step-major as `evolve` returns
them (T B x d, B rows per step), are consumed by a single-layer LSTM from a
zero initial state; h* is the elementwise mean of all hidden states so no
single step dominates.
`integrate` runs the whole recurrence as one tape node, `lstm`. Its
backward rule, `_bw_lstm`, runs backpropagation through time and is
registered in `autodiff._BACKWARD` below; the parameters stay the eight
`lstm.*` leaves, one weight and one bias per gate. The integrator-ablation
mode bypasses the LSTM and averages the raw snapshots instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tensor, uniform_weight, zero_bias


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
                   zero_bias(hidden_dim)]
    return LstmParams(*leaves)


def integrate(snapshots: Tensor, steps: int, params: LstmParams) -> Tensor:
    """Trajectory summary h*: the mean hidden state h_1..h_T of the LSTM over
    the `steps` stacked snapshots, as one node.

    `snapshots` holds the T snapshots of B rows stacked step-major, (T B x d),
    as `evolution.evolve` returns them. The cell is c' = f*c + i*g,
    h' = o*tanh(c') from h = c = 0, each gate acting on [z_t ; h_{t-1}]. The
    gates are held as (T, 4, B, d_h) in the order i f o g, so a step's gates
    are one contiguous block and its three sigmoids one contiguous part of
    it. The input projection of all T snapshots is one batched matmul outside
    the recurrence, and each step adds one (B x d_h) @ (4, d_h, d_h) product.
    The node's parents are the snapshots and then `params.named_leaves()`.
    Gates and cells are kept for backward only when some parent requires grad.
    """
    weights = (params.w_i, params.w_f, params.w_o, params.w_g)
    biases = (params.b_i, params.b_f, params.b_o, params.b_g)
    d_h, d = params.hidden_dim, params.input_dim
    for w, b in zip(weights, biases):
        if w.shape != (d + d_h, d_h) or b.shape != (1, d_h):
            raise ShapeMismatchError("lstm", params.w_i.shape, w.shape, b.shape)
    if steps < 1 or snapshots.rows % steps or snapshots.cols != d:
        raise ShapeMismatchError("lstm", snapshots.shape, (steps, d))
    rows = snapshots.rows // steps
    w = np.stack([p.data for p in weights])           # (4, d + d_h, d_h)
    z = snapshots.data.reshape(steps, rows, d)
    gates = np.matmul(z[:, None], w[:, :d])
    gates += np.stack([p.data for p in biases])
    w_h = w[:, d:]
    cells = np.zeros((steps + 1, rows, d_h))      # c_0 .. c_T
    hidden = np.zeros((steps + 1, rows, d_h))     # h_0 .. h_T
    tanh_c = np.empty((steps, rows, d_h))
    # 1 / (1 + e^-x) overflows only to 1 / inf = 0, the correctly rounded value.
    with np.errstate(over="ignore"):
        for t in range(steps):
            a = gates[t]
            if t:
                a += np.matmul(hidden[t], w_h)
            s = a[:3]
            np.negative(s, out=s)
            np.exp(s, out=s)
            s += 1.0
            np.reciprocal(s, out=s)
            np.tanh(a[3], out=a[3])
            c = cells[t + 1]
            np.multiply(a[1], cells[t], out=c)
            c += a[0] * a[3]
            np.tanh(c, out=tanh_c[t])
            np.multiply(a[2], tanh_c[t], out=hidden[t + 1])
    out = hidden[1:].sum(axis=0) * (1.0 / steps)
    node = Tensor._node(out, "lstm", (snapshots,) + tuple(p for _, p in params.named_leaves()))
    if node.requires_grad:
        node.ctx = (z, w, gates, cells, hidden, tanh_c)
    return node


def _gate_grads(node, g) -> np.ndarray:
    """The (T, 4, B, d_h) gradient of the pre-activation gates [i f o g] of
    the `lstm` node, by backpropagation through time from the upstream `g`."""
    z, w, gates, cells, hidden, tanh_c = node.ctx
    steps = gates.shape[0]
    w_h_t = w[:, z.shape[2]:].transpose(0, 2, 1)
    dh_out = g * (1.0 / steps)          # every h_t enters the mean once
    da = np.empty_like(gates)
    dh = dh_out
    dc_next = 0.0
    for t in range(steps - 1, -1, -1):
        a, dat = gates[t], da[t]
        tc = tanh_c[t]
        dc = dh * a[2] * (1.0 - tc * tc) + dc_next
        np.multiply(dc, a[3], out=dat[0])
        np.multiply(dc, cells[t], out=dat[1])
        np.multiply(dh, tc, out=dat[2])
        dat[:3] *= a[:3] * (1.0 - a[:3])
        np.multiply(dc * a[0], 1.0 - a[3] * a[3], out=dat[3])
        dc_next = dc * a[1]
        if t:
            dh = dh_out + np.matmul(dat, w_h_t).sum(axis=0)
    return da


def _bw_lstm(node, g):
    """The gradients of the snapshots and of the eight `lstm.*` leaves. No
    (T, 4, ...) product is ever stacked; each gradient is summed in the order
    of the sum over such a stack, so its bits are that sum's."""
    z, w, _, _, hidden, _ = node.ctx
    steps, d = z.shape[0], z.shape[2]
    da = _gate_grads(node, g)
    # Summed step by step, in the order of a sum over the stacked (T, 4, ., d_h)
    # products, which would hold T copies of the weights at once.
    dw_x, dw_h = np.matmul(z[0].T, da[0]), np.matmul(hidden[0].T, da[0])
    for t in range(1, steps):
        dw_x += np.matmul(z[t].T, da[t])
        dw_h += np.matmul(hidden[t].T, da[t])
    db = da.sum(axis=(0, 2))
    dz = None
    if node.parents[0].requires_grad:
        # Gate by gate, i f o g: the stacked (T, 4, B, d) product would be 4x dz.
        w_x_t = w[:, :d].transpose(0, 2, 1)
        dz = np.matmul(da[:, 0], w_x_t[0])
        for k in (1, 2, 3):
            dz += np.matmul(da[:, k], w_x_t[k])
        dz = dz.reshape(-1, d)
    grads = [dz]
    # Gate order i f o g back to the parents' order i, f, g, o.
    for k in (0, 1, 3, 2):
        grads += [np.concatenate([dw_x[k], dw_h[k]]), db[k:k + 1]]
    return tuple(grads)


ad._BACKWARD["lstm"] = _bw_lstm


def integrate_mean(snapshots: Tensor, steps: int) -> Tensor:
    """Integrator ablation: elementwise mean of the `steps` stacked snapshots."""
    if steps < 1 or snapshots.rows % steps:
        raise ValueError(f"cannot integrate {snapshots.rows} snapshot rows as {steps} steps")
    rows, d = snapshots.rows // steps, snapshots.cols
    total = ad.matmul(ad.constant(np.ones((1, steps))), ad.reshape(snapshots, steps, rows * d))
    return ad.mul(ad.reshape(total, rows, d), ad.constant(np.full((rows, d), 1.0 / steps)))
