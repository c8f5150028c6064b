"""LSTM trajectory integrator: snapshot sequence -> summary vector h*.

The snapshots z_0..z_{T-1}, the (T, B, d) array `evolve` returns, are
consumed by a single-layer LSTM from a zero initial state; h* is the
elementwise mean of all hidden states so no single step dominates.
`integrate` runs the whole recurrence and writes the gates, cells and
hidden states into the workspace it is handed, from which
`integrate_backward` runs backpropagation through time. A kept state serves
one backward, which consumes it: the gate gradients are written over the
gates and the snapshots' gradient over the snapshots, and tanh(c) is made
again from the kept cells. The parameters are one weight stack and one
bias stack over the four gates; the model file names their eight gate
slices `lstm.w_i` .. `lstm.b_o`. A model built for the integrator ablation
has no LSTM at all: `integrate_mean` averages the raw snapshots instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeMismatchError, slot, uniform_weight

GATES = ("i", "f", "o", "g")        # the stacks' order: the sigmoids, then g


@dataclass
class LstmParams:
    """The gate weights `w`, (4, d + d_h, d_h), act on [z_t ; h_{t-1}]; the
    biases `b` are (4, 1, d_h). Both stack the gates in `GATES` order."""

    w: np.ndarray
    b: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.w.shape[2]

    @property
    def input_dim(self) -> int:
        return self.w.shape[1] - self.hidden_dim

    def named_leaves(self) -> list[tuple[str, np.ndarray]]:
        """The eight arrays of the model file, `lstm.w_i`, `lstm.b_i`, ..,
        `lstm.b_o` in gate order i f g o: views of each gate's slice of the
        stacks, so writing one writes the stack."""
        return [(f"lstm.{kind}_{gate}", getattr(self, kind)[GATES.index(gate)])
                for gate in "ifgo" for kind in "wb"]


def init_lstm(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> LstmParams:
    """Zero biases, and each gate's weights drawn in `named_leaves` order."""
    params = LstmParams(np.empty((4, input_dim + hidden_dim, hidden_dim)),
                        np.zeros((4, 1, hidden_dim)))
    for name, leaf in params.named_leaves():
        if ".w_" in name:
            leaf[:] = uniform_weight(rng, input_dim + hidden_dim, hidden_dim)
    return params


def integrate(snapshots: np.ndarray, params: LstmParams, out: dict[str, np.ndarray]):
    """Trajectory summary h*: the mean hidden state h_1..h_T of the LSTM over
    the (T, B, d) snapshots, as `evolution.evolve` returns them.

    The cell is c' = f*c + i*g, h' = o*tanh(c') from h = c = 0, each gate
    acting on [z_t ; h_{t-1}]. The gates are held as (T, 4, B, d_h) in
    `GATES` order, i f o g, so a step's gates are one contiguous block and
    its three sigmoids one contiguous part of it. The input projection of
    all T snapshots is one batched matmul outside the recurrence, and each
    step adds one (B x d_h) @ (4, d_h, d_h) product. It writes the gates,
    (T, 4, B, d_h), and the cells and hidden states, (T + 1, B, d_h), into
    the workspace `out` (`autodiff.slot`); tanh(c') is written into h' and
    multiplied by o there, so it has no buffer. It returns h* with what
    `integrate_backward` needs: the snapshots, weights, gates, cells and
    hidden states, which that backward consumes.
    """
    w, d_h, d = params.w, params.hidden_dim, params.input_dim
    if (w.shape[0] != 4 or params.b.shape != (4, 1, d_h) or snapshots.ndim != 3
            or not snapshots.shape[0] or snapshots.shape[2] != d):
        raise ShapeMismatchError("lstm", snapshots.shape, w.shape, params.b.shape)
    steps, rows = snapshots.shape[:2]
    gates = np.matmul(snapshots[:, None], w[:, :d],
                      out=slot(out, "lstm.gates", (steps, 4, rows, d_h)))
    gates += params.b
    w_h = w[:, d:]
    cells = slot(out, "lstm.cells", (steps + 1, rows, d_h))      # c_0 .. c_T
    hidden = slot(out, "lstm.hidden", (steps + 1, rows, d_h))    # h_0 .. h_T
    cells[0] = hidden[0] = 0.0
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
            h = np.tanh(c, out=hidden[t + 1])        # then o * tanh(c), in place
            h *= a[2]
    h_star = hidden[1:].sum(axis=0) * (1.0 / steps)
    return h_star, (snapshots, w, gates, cells, hidden)


def _gate_grads(kept, g) -> np.ndarray:
    """The (T, 4, B, d_h) gradient of the pre-activation gates, in `GATES`
    order, by backpropagation through time from the gradient `g` of h*,
    written over the kept gates: step t's once its activations, their
    derivatives and dc*f are read. tanh(c_t) is made again from the kept
    cell by the forward's ufunc, so its bits are the forward's."""
    z, w, gates, cells, _ = kept
    steps = gates.shape[0]
    w_h_t = w[:, z.shape[2]:].transpose(0, 2, 1)
    dh_out = g * (1.0 / steps)          # every h_t enters the mean once
    dh = dh_out
    dc_next = 0.0
    for t in range(steps - 1, -1, -1):
        a = gates[t]
        tc = np.tanh(cells[t + 1])
        dc = dh * a[2] * (1.0 - tc * tc) + dc_next
        slopes = a[:3] * (1.0 - a[:3])
        dg = dc * a[0] * (1.0 - a[3] * a[3])
        dc_next = dc * a[1]
        np.multiply(dc, a[3], out=a[0])
        np.multiply(dc, cells[t], out=a[1])
        np.multiply(dh, tc, out=a[2])
        a[:3] *= slopes
        a[3] = dg
        if t:
            dh = dh_out + np.matmul(a, w_h_t).sum(axis=0)
    return gates


def integrate_backward(kept, g: np.ndarray, grads: LstmParams) -> np.ndarray:
    """The gradient of the snapshots from the gradient `g` of h* and what
    `integrate` kept, written over the kept snapshots; the parameters'
    gradients are written into the stacks of `grads`. It consumes the kept
    state: the gate gradients overwrite the gates, and the snapshot
    gradient the snapshots once the weight gradients have read them, so it
    allocates nothing of the gates' or the snapshots' size. Each weight
    gradient is summed step by step in the order of the sum over the
    stacked (T, 4, ., d_h) products, so its bits are that sum's. A bias
    gradient is a row of ones times the steps' summed gate gradients,
    equal to their column sum up to roundoff."""
    z, w, _, _, hidden = kept
    d = z.shape[2]
    da = _gate_grads(kept, g)
    # Summed in contiguous arrays, since adding into the stacks' strided
    # halves is slower.
    dw_x, dw_h = np.matmul(z[0].T, da[0]), np.matmul(hidden[0].T, da[0])
    for t in range(1, len(z)):
        dw_x += np.matmul(z[t].T, da[t])
        dw_h += np.matmul(hidden[t].T, da[t])
    grads.w[:, :d], grads.w[:, d:] = dw_x, dw_h
    np.matmul(np.ones(da.shape[2]), da.sum(axis=0), out=grads.b[:, 0])
    # Step by step and gate by gate: the stacked (T, 4, B, d) product would be 4x dz.
    w_x_t = w[:, :d].transpose(0, 2, 1)
    term = np.empty(z.shape[1:])
    for t in range(len(z)):
        np.matmul(da[t, 0], w_x_t[0], out=z[t])
        for k in range(1, len(GATES)):
            z[t] += np.matmul(da[t, k], w_x_t[k], out=term)
    return z


def integrate_mean(snapshots: np.ndarray) -> np.ndarray:
    """Integrator ablation: elementwise mean of the (T, B, d) snapshots,
    their sum as a (1 x T) row of ones times the (T x B d) steps."""
    if snapshots.ndim != 3 or not snapshots.shape[0]:
        raise ValueError(f"cannot integrate snapshots of shape {snapshots.shape}")
    steps, rows, d = snapshots.shape
    total = np.ones((1, steps)) @ snapshots.reshape(steps, rows * d)
    return total.reshape(rows, d) * (1.0 / steps)


def integrate_mean_backward(g: np.ndarray, steps: int) -> np.ndarray:
    """The gradient of the (T, B, d) snapshots from the gradient `g` of their
    mean: g times 1 / T at every step, as one read-only broadcast."""
    return np.broadcast_to(g * (1.0 / steps), (steps, *g.shape))
