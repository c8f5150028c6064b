"""LSTM trajectory integrator: snapshot sequence -> summary vector h*.

The snapshots z_0..z_{T-1}, one array stacked step-major as `evolve` returns
them (T B x d, B rows per step), are consumed by a single-layer LSTM from a
zero initial state; h* is the elementwise mean of all hidden states so no
single step dominates.
`integrate` runs the whole recurrence; asked to, it keeps the gates and
cells, from which `integrate_backward` runs backpropagation through time.
The parameters are the eight `lstm.*` arrays, one weight and one bias per
gate. The integrator-ablation mode bypasses the LSTM and averages the raw
snapshots instead.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import ShapeMismatchError, uniform_weight, zero_bias


@dataclass
class LstmParams:
    """Gate weights act on [z_t ; h_{t-1}] (width d + d_h); biases are 1 x d_h."""

    w_i: np.ndarray
    b_i: np.ndarray
    w_f: np.ndarray
    b_f: np.ndarray
    w_g: np.ndarray
    b_g: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.w_i.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w_i.shape[0] - self.hidden_dim

    def named_leaves(self) -> list[tuple[str, np.ndarray]]:
        return [(f"lstm.{field.name}", getattr(self, field.name)) for field in fields(self)]


GATES = ("i", "f", "o", "g")        # as `integrate` stacks them: the sigmoids, then g


def init_lstm(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> LstmParams:
    leaves = []
    for _ in range(4):      # gates i, f, g, o, in field order
        leaves += [uniform_weight(rng, input_dim + hidden_dim, hidden_dim),
                   zero_bias(hidden_dim)]
    return LstmParams(*leaves)


def integrate(snapshots: np.ndarray, steps: int, params: LstmParams, keep: bool = False):
    """Trajectory summary h*: the mean hidden state h_1..h_T of the LSTM over
    the `steps` stacked snapshots.

    `snapshots` holds the T snapshots of B rows stacked step-major, (T B x d),
    as `evolution.evolve` returns them. The cell is c' = f*c + i*g,
    h' = o*tanh(c') from h = c = 0, each gate acting on [z_t ; h_{t-1}]. The
    gates are held as (T, 4, B, d_h) in `GATES` order, i f o g, so a step's gates
    are one contiguous block and its three sigmoids one contiguous part of
    it. The input projection of all T snapshots is one batched matmul outside
    the recurrence, and each step adds one (B x d_h) @ (4, d_h, d_h) product.
    Returns h* and, with `keep`, what `integrate_backward` needs (None
    without): the snapshots, weights, gates and cells.
    """
    weights = [getattr(params, f"w_{gate}") for gate in GATES]
    biases = [getattr(params, f"b_{gate}") for gate in GATES]
    d_h, d = params.hidden_dim, params.input_dim
    for w, b in zip(weights, biases):
        if w.shape != (d + d_h, d_h) or b.shape != (1, d_h):
            raise ShapeMismatchError("lstm", params.w_i.shape, w.shape, b.shape)
    if steps < 1 or snapshots.shape[0] % steps or snapshots.shape[1] != d:
        raise ShapeMismatchError("lstm", snapshots.shape, (steps, d))
    rows = snapshots.shape[0] // steps
    w = np.stack(weights)           # (4, d + d_h, d_h)
    z = snapshots.reshape(steps, rows, d)
    gates = np.matmul(z[:, None], w[:, :d])
    gates += np.stack(biases)
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
    return out, ((z, w, gates, cells, hidden, tanh_c) if keep else None)


def _gate_grads(kept, g) -> np.ndarray:
    """The (T, 4, B, d_h) gradient of the pre-activation gates, in `GATES`
    order, by backpropagation through time from the gradient `g` of h*."""
    z, w, gates, cells, hidden, tanh_c = kept
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


def integrate_backward(kept, g: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The gradient of the snapshots and of each `lstm.*` parameter, by name
    in `named_leaves` order, from the gradient `g` of h* and what `integrate`
    kept. No (T, 4, ...) product is ever stacked; each gradient is summed in
    the order of the sum over such a stack, so its bits are that sum's."""
    z, w, _, _, hidden, _ = kept
    steps, d = z.shape[0], z.shape[2]
    da = _gate_grads(kept, g)
    # Summed step by step, in the order of a sum over the stacked (T, 4, ., d_h)
    # products, which would hold T copies of the weights at once.
    dw_x, dw_h = np.matmul(z[0].T, da[0]), np.matmul(hidden[0].T, da[0])
    for t in range(1, steps):
        dw_x += np.matmul(z[t].T, da[t])
        dw_h += np.matmul(hidden[t].T, da[t])
    db = da.sum(axis=(0, 2))
    # Gate by gate: the stacked (T, 4, B, d) product would be 4x dz.
    w_x_t = w[:, :d].transpose(0, 2, 1)
    dz = np.matmul(da[:, 0], w_x_t[0])
    for k in range(1, len(GATES)):
        dz += np.matmul(da[:, k], w_x_t[k])
    stacked = {"w": np.concatenate([dw_x, dw_h], axis=1), "b": db[:, None]}   # in `GATES` order
    return dz.reshape(-1, d), {f"lstm.{f.name}": stacked[f.name[0]][GATES.index(f.name[-1])]
                               for f in fields(LstmParams)}


def integrate_mean(snapshots: np.ndarray, steps: int) -> np.ndarray:
    """Integrator ablation: elementwise mean of the `steps` stacked snapshots,
    their sum as a (1 x T) row of ones times the (T x B d) steps."""
    if steps < 1 or snapshots.shape[0] % steps:
        raise ValueError(f"cannot integrate {snapshots.shape[0]} snapshot rows as {steps} steps")
    rows, d = snapshots.shape[0] // steps, snapshots.shape[1]
    total = np.ones((1, steps)) @ snapshots.reshape(steps, rows * d)
    return total.reshape(rows, d) * (1.0 / steps)


def integrate_mean_backward(g: np.ndarray, steps: int) -> np.ndarray:
    """The gradient of the stacked snapshots from the gradient `g` of their mean."""
    return (np.ones((steps, 1)) @ (g * (1.0 / steps)).reshape(1, -1)).reshape(-1, g.shape[1])
