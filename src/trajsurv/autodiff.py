"""Dense 2-D tensors with reverse-mode automatic differentiation.

Every trainable part of the pipeline (node embeddings, the residual graph
operator, the LSTM integrator, the survival heads) is expressed through the
11 primitives in this module, so one tape implementation serves the whole
model: matmul, add, mul, negate, concat-cols, reshape, log-sigmoid, tanh,
sum-all, and the fused evolve and lstm nodes. Each is a key of `_BACKWARD`,
and the losses of the model use every one of them.
Tensors are immutable values once they participate in a tape; only leaf
parameters are ever updated, and only between tapes (by the optimizer).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Mapping

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform for the requested op."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")
        self.op = op
        self.shapes = shapes


class NonFiniteError(ArithmeticError):
    """A value or gradient came out NaN/Inf."""


class Tensor:
    """A rows x cols matrix of float64 values, optionally recorded on a tape.

    Interior nodes carry their op kind, parent references and any cached
    context needed by the backward rule; leaves have op None. Gradients are
    never stored on the tensor itself -- `backward` returns them in a map.
    """

    __slots__ = ("data", "op", "parents", "ctx", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeMismatchError("tensor", arr.shape)
        self.data = arr
        self.op: str | None = None
        self.parents: tuple[Tensor, ...] = ()
        self.ctx = None
        self.requires_grad = requires_grad

    @classmethod
    def _node(cls, data: np.ndarray, op: str, parents: tuple["Tensor", ...], ctx=None) -> "Tensor":
        t = cls.__new__(cls)
        t.data = data
        t.op = op
        t.requires_grad = False
        for p in parents:
            if p.requires_grad:
                t.requires_grad = True
                break
        # A node nothing differentiates through keeps no parents, so its
        # inputs are freed as soon as the caller drops them.
        t.parents = parents if t.requires_grad else ()
        t.ctx = ctx
        return t

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError("item", self.shape)
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor({self.rows}x{self.cols}, {self.op or 'leaf'})"


def parameter(data) -> Tensor:
    """A trainable leaf."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def constant(data) -> Tensor:
    """A non-trainable leaf (inputs, masks, adjacency and the like)."""
    return Tensor(data)


@contextmanager
def no_grad(leaves: Iterable[Tensor]):
    """Treat `leaves` as constants inside the block.

    Nothing computed there can be differentiated, so no tape is kept and a
    forward pass frees each intermediate once the next one is built.
    """
    leaves = list(leaves)
    saved = [leaf.requires_grad for leaf in leaves]
    for leaf in leaves:
        leaf.requires_grad = False
    try:
        yield
    finally:
        for leaf, flag in zip(leaves, saved):
            leaf.requires_grad = flag


# ---------------------------------------------------------------------------
# Primitives. Each returns a new node; backward rules live in _BACKWARD.
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    return Tensor._node(a.data @ b.data, "matmul", (a, b))


def _elementwise_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape:
        return
    # Broadcast-row pattern: one operand is a single row with matching cols.
    if a.cols == b.cols and (a.rows == 1 or b.rows == 1):
        return
    raise ShapeMismatchError(op, a.shape, b.shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _elementwise_shapes("add", a, b)
    return Tensor._node(a.data + b.data, "add", (a, b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _elementwise_shapes("mul", a, b)
    return Tensor._node(a.data * b.data, "mul", (a, b))


def negate(a: Tensor) -> Tensor:
    return Tensor._node(-a.data, "negate", (a,))


def concat_cols(*tensors: Tensor) -> Tensor:
    if not tensors:
        raise ShapeMismatchError("concat-cols", ())
    rows = tensors[0].rows
    for t in tensors[1:]:
        if t.rows != rows:
            raise ShapeMismatchError("concat-cols", tensors[0].shape, t.shape)
    widths = tuple(t.cols for t in tensors)
    return Tensor._node(np.concatenate([t.data for t in tensors], axis=1),
                        "concat-cols", tuple(tensors), widths)


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    """The entries of `a` in row-major order as a rows x cols matrix."""
    if rows * cols != a.data.size:
        raise ShapeMismatchError("reshape", a.shape, (rows, cols))
    return Tensor._node(a.data.reshape(rows, cols), "reshape", (a,))


def log_sigmoid(a: Tensor) -> Tensor:
    # log σ(x) = min(x, 0) - log(1 + e^-|x|): finite and exact at any logit.
    x = a.data
    return Tensor._node(np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x))), "log-sigmoid", (a,))


def tanh(a: Tensor) -> Tensor:
    return Tensor._node(np.tanh(a.data), "tanh", (a,))


def sum_all(a: Tensor) -> Tensor:
    return Tensor._node(np.array([[a.data.sum()]]), "sum-all", (a,))


class Blocks:
    """A constant block-diagonal matrix, held as its stack of dense blocks.

    `blocks` of shape (B, r, c) stands for the (B r x B c) matrix whose b-th
    diagonal block is blocks[b]. Applying it to a (B c x m) matrix is one
    batched `np.matmul`, so its cost and memory grow linearly in B. The
    transpose is the transposed stack, built once, on first use.
    """

    def __init__(self, blocks):
        self.blocks = np.asarray(blocks, dtype=np.float64)
        if self.blocks.ndim != 3:
            raise ShapeMismatchError("blocks", self.blocks.shape)
        count, r, c = self.blocks.shape
        self.shape = (count * r, count * c)
        self._transpose: Blocks | None = None

    @property
    def T(self) -> "Blocks":
        if self._transpose is None:
            self._transpose = Blocks(np.ascontiguousarray(self.blocks.transpose(0, 2, 1)))
        return self._transpose

    def apply(self, x: np.ndarray) -> np.ndarray:
        """This matrix times x: block b times rows b c .. (b + 1) c - 1 of x."""
        count, _, c = self.blocks.shape
        m = x.shape[1]
        return np.matmul(self.blocks, x.reshape(count, c, m)).reshape(self.shape[0], m)


def segment_softmax(scores: np.ndarray, ops: dict) -> tuple[np.ndarray, ...]:
    """Softmax of per-arc scores (B 20 x 1) over the in-arcs of each target.

    The per-target maximum is subtracted first, so exp never overflows; the
    weights are exp(shifted - log(total)), where total is the per-target sum
    of exp(shifted). An arc slot without a target (a missing region's) is
    shifted by its own score. `ops` are gat's blocks and arc indices from
    `evolution.adjacency`. Returns the weights, exp(shifted) and total; the
    backward rule of `evolve` reuses the last two.
    """
    into = ops["at_dst"].blocks > 0.0                      # (B, arcs, nodes)
    top = np.where(into, scores.reshape(into.shape[:2])[:, :, None], -np.inf).max(axis=1)
    shifted = scores - np.where(ops["arc_used"], top.reshape(-1, 1)[ops["arc_target"]], scores)
    exp_shifted = np.exp(shifted)
    total = ops["sum_dst"].apply(exp_shifted) + ops["no_arcs"]
    return np.exp(shifted - ops["at_dst"].apply(np.log(total))), exp_shifted, total


def evolve(h0: Tensor, steps: int, ops: dict, pool: Blocks, w_self: Tensor, b_msg: Tensor,
           w_out: Tensor, b_out: Tensor, time_table: Tensor, w_neigh: Tensor | None = None,
           attn_u: Tensor | None = None, attn_b: Tensor | None = None,
           attn_v: Tensor | None = None) -> Tensor:
    """The first `steps` residual evolution steps from H0 and their readouts, as one node.

    Step t sets H <- H + max(pre_t(H), 0) W_out + b_out and reads out the
    snapshot pool H; the snapshots come stacked step-major, (T B x d). The
    backbone follows from the leaves given: gcn has no `w_neigh`, gat has the
    `attn_*` leaves. pre_t and the blocks `ops` are those of
    `evolution.adjacency`; the equations are in the `evolution` docstring.
    The row blocks of the weights and the time rows e_t W are slices, and
    every operation runs in the order of the per-op tape form, so the values
    are the same bits. A state that is not finite after step t raises
    NonFiniteError naming t. Each step's input state and activations, and
    gat's arc terms, are kept for backward only when some parent requires
    grad.
    """
    d, d_t = w_out.cols, time_table.cols
    e = time_table.data
    w_sh, w_st = w_self.data[:d], w_self.data[d:]
    self_rows = e @ w_st
    parents = [h0, w_self, b_msg, w_out, b_out, time_table]
    if w_neigh is not None:
        parents.append(w_neigh)
        w_nh, w_nt, w_na = np.split(w_neigh.data, [d, d + d_t])
        neigh_rows = e @ w_nt
        if attn_u is None:
            fixed = ops["attr_mean"] @ w_na + b_msg.data
        else:
            parents += [attn_u, attn_b, attn_v]
            u_dh, u_dt, u_sh, u_st, u_a = np.split(attn_u.data, np.cumsum([d, d_t, d, d_t]))
            score_rows = e @ (u_dt + u_st)
            score_arcs = ops["attr"] @ u_a + attn_b.data
            msg_arcs = ops["attr"] @ w_na
            fixed = b_msg.data
    node = Tensor._node(np.empty((steps * pool.shape[0], d)), "evolve", tuple(parents))
    out = node.data.reshape(steps, pool.shape[0], d)
    saved = []
    h = h0.data
    # In-place updates of fresh temporaries keep the tape form's operation
    # order, and so its values, with fewer allocations.
    for t in range(steps):
        kept = [h]
        own = h @ w_sh
        own += self_rows[t]
        if w_neigh is None:
            pre = ops["norm"].apply(own)
            pre += b_msg.data
        else:
            x_n = h @ w_nh
            x_n += neigh_rows[t]
            if attn_u is None:
                pre = ops["mean"].apply(x_n)
            else:
                q_dst = h @ u_dh
                q_dst += score_rows[t]
                hidden = ops["at_dst"].apply(q_dst)
                hidden += ops["at_src"].apply(h @ u_sh)
                hidden += score_arcs
                np.tanh(hidden, out=hidden)
                alpha, exp_shifted, total = segment_softmax(hidden @ attn_v.data, ops)
                msgs = ops["at_src"].apply(x_n)
                msgs += msg_arcs
                pre = ops["sum_dst"].apply(msgs * alpha)
                kept += [hidden, alpha, exp_shifted, total, msgs]
            pre += own
            pre += fixed
        act = np.maximum(pre, 0.0, out=pre)
        update = act @ w_out.data
        update += b_out.data
        h = h + update
        if not np.isfinite(h).all():
            raise NonFiniteError(f"node states diverged at evolution step {t}")
        out[t] = pool.apply(h)
        if node.requires_grad:
            saved.append(kept + [act])
    if node.requires_grad:
        node.ctx = (ops, pool, saved)
    return node


def lstm(snapshots: Tensor, steps: int, w_i: Tensor, b_i: Tensor, w_f: Tensor, b_f: Tensor,
         w_g: Tensor, b_g: Tensor, w_o: Tensor, b_o: Tensor) -> Tensor:
    """Mean hidden state of a single-layer LSTM over T snapshots, as one node.

    `snapshots` holds the T snapshots of B rows stacked step-major, (T B x d),
    as `evolve` returns them. The cell is c' = f*c + i*g, h' = o*tanh(c')
    from h = c = 0, each gate acting on [z_t ; h_{t-1}] through its
    (d + d_h) x d_h weight and 1 x d_h bias. The gates are held as
    (T, 4, B, d_h) in the order i f o g, so a step's gates are one contiguous
    block and its three sigmoids one contiguous part of it. The input
    projection of all T snapshots is one batched matmul outside the
    recurrence, and each step adds one (B x d_h) @ (4, d_h, d_h) product.
    Gates and cells are kept for backward only when some parent requires grad.
    """
    weights = (w_i, w_f, w_o, w_g)
    biases = (b_i, b_f, b_o, b_g)
    d_h = w_i.cols
    d = w_i.rows - d_h
    for w, b in zip(weights, biases):
        if w.shape != (d + d_h, d_h) or b.shape != (1, d_h):
            raise ShapeMismatchError("lstm", w_i.shape, w.shape, b.shape)
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
    node = Tensor._node(out, "lstm", (snapshots, w_i, b_i, w_f, b_f, w_g, b_g, w_o, b_o))
    if node.requires_grad:
        node.ctx = (z, w, gates, cells, hidden, tanh_c)
    return node


# ---------------------------------------------------------------------------
# Backward rules: (node, upstream grad) -> per-parent gradients.
# ---------------------------------------------------------------------------


def _reduce_to(grad: np.ndarray, shape) -> np.ndarray:
    # Undo broadcast-row expansion performed by an elementwise op.
    if grad.shape == shape:
        return grad
    return grad.sum(axis=0, keepdims=True)


# matmul and mul skip the half that belongs to a constant parent.
def _bw_matmul(node, g):
    a, b = node.parents
    return (g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None)


def _bw_add(node, g):
    a, b = node.parents
    return (_reduce_to(g, a.shape), _reduce_to(g, b.shape))


def _bw_mul(node, g):
    a, b = node.parents
    return (_reduce_to(g * b.data, a.shape) if a.requires_grad else None,
            _reduce_to(g * a.data, b.shape) if b.requires_grad else None)


def _bw_negate(node, g):
    return (-g,)


def _bw_concat_cols(node, g):
    out = []
    start = 0
    for w in node.ctx:
        out.append(g[:, start:start + w])
        start += w
    return tuple(out)


def _bw_reshape(node, g):
    return (g.reshape(node.parents[0].shape),)


def _bw_log_sigmoid(node, g):
    # d/dx log σ(x) = σ(-x) = exp(log σ(x) - x), which cannot overflow.
    return (g * np.exp(node.data - node.parents[0].data),)


def _bw_tanh(node, g):
    y = node.data
    return (g * (1.0 - y * y),)


def _bw_sum_all(node, g):
    (a,) = node.parents
    return (np.full_like(a.data, g[0, 0]),)


def _bw_evolve(node, g):
    # Backpropagation through time over the kept states. Every product and
    # every sum runs in the order in which backward sums the per-op tape form
    # (tests/oracles.py), so the gradients are the same bits as that form's.
    ops, pool, saved = node.ctx
    h0, w_self, b_msg, w_out, b_out, time_table, *neigh = node.parents
    d, d_t = w_out.cols, time_table.cols
    steps = len(saved)
    gat = len(neigh) > 1
    w_sh, w_st = w_self.data[:d], w_self.data[d:]
    if neigh:
        w_nh, w_nt, _ = np.split(neigh[0].data, [d, d + d_t])
    # Row t of each: the gradient of the time rows step t adds, e_t W_st,
    # e_t W_nt and e_t (U_dt + U_st).
    d_self = np.zeros((time_table.rows, w_out.rows))
    d_neigh = np.zeros_like(d_self)
    if gat:
        u_dh, u_dt, u_sh, u_st, _ = np.split(neigh[1].data, np.cumsum([d, d_t, d, d_t]))
        d_score_rows = np.zeros((time_table.rows, u_dh.shape[1]))
        spread = np.ones((1, w_out.rows))
    gz = g.reshape(steps, -1, d)
    sums = {}

    def add(key, term):
        # The first term, then each next one added, from the last step back.
        if key in sums:
            sums[key] += term
        else:
            sums[key] = term.copy()

    dh = pool.T.apply(gz[-1])
    for t in range(steps - 1, -1, -1):
        h, *arcs, act = saved[t]
        add("b_out", dh.sum(axis=0, keepdims=True))
        add("w_out", act.T @ dh)
        dp = dh @ w_out.data.T
        dp *= act > 0.0
        if neigh and not gat:
            add("fixed", dp)            # A W_na + b_msg, one term for all steps
        else:
            add("b_msg", dp.sum(axis=0, keepdims=True))
        d_own = dp if neigh else ops["norm"].T.apply(dp)
        add("w_sh", h.T @ d_own)
        d_self[t] = d_own.sum(axis=0)
        back = [d_own @ w_sh.T]
        if gat:
            hidden, alpha, exp_shifted, total, msgs = arcs
            weighted = ops["at_dst"].apply(dp)
            d_msgs = weighted * alpha
            d_exp = alpha * ((weighted * msgs) @ spread.T)
            d_scores = d_exp + ops["at_dst"].apply(
                ops["sum_dst"].apply(-d_exp) / total) * exp_shifted
            add("attn_v", hidden.T @ d_scores)
            d_arc = d_scores @ neigh[3].data.T
            d_arc *= 1.0 - hidden * hidden
            add("score_arcs", d_arc)
            add("msg_arcs", d_msgs)
            d_xn = ops["at_src"].T.apply(d_msgs)
        elif neigh:
            d_xn = ops["mean"].T.apply(dp)
        if neigh:
            add("w_nh", h.T @ d_xn)
            d_neigh[t] = d_xn.sum(axis=0)
            back.append(d_xn @ w_nh.T)
        if gat:
            d_dst, d_src = ops["sum_dst"].apply(d_arc), ops["at_src"].T.apply(d_arc)
            add("u_dh", h.T @ d_dst)
            add("u_sh", h.T @ d_src)
            d_score_rows[t] = d_dst.sum(axis=0)
            back += [d_dst @ u_dh.T, d_src @ u_sh.T]
        # The readout of H_t comes first, then the update H_t + U_{t+1}.
        if t:
            dh = pool.T.apply(gz[t - 1]) + dh
        for term in back:
            dh += term
    e = time_table.data
    d_time = d_self @ w_st.T
    grads = [dh if h0.requires_grad else None, np.concatenate([sums["w_sh"], e.T @ d_self]),
             sums["fixed"].sum(axis=0, keepdims=True) if "fixed" in sums else sums["b_msg"],
             sums["w_out"], sums["b_out"], d_time]
    if neigh:
        d_time += d_neigh @ w_nt.T
        arc_terms = (ops["attr"].T @ sums["msg_arcs"] if gat
                     else ops["attr_mean"].T @ sums["fixed"])
        grads.append(np.concatenate([sums["w_nh"], e.T @ d_neigh, arc_terms]))
    if gat:
        d_time += d_score_rows @ (u_dt + u_st).T
        d_u_t = e.T @ d_score_rows
        grads += [np.concatenate([sums["u_dh"], d_u_t, sums["u_sh"], d_u_t,
                                  ops["attr"].T @ sums["score_arcs"]]),
                  sums["score_arcs"].sum(axis=0, keepdims=True), sums["attn_v"]]
    return tuple(grads)


def _bw_lstm(node, g):
    # Backpropagation through time over the cached [i f o g] gate blocks.
    z, w, gates, cells, hidden, tanh_c = node.ctx
    steps, _, rows, d_h = gates.shape
    d = z.shape[2]
    w_h_t = w[:, d:].transpose(0, 2, 1)
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
    # Summed step by step, in the order of a sum over the stacked (T, 4, ., d_h)
    # products, which would hold T copies of the weights at once.
    dw_x, dw_h = np.matmul(z[0].T, da[0]), np.matmul(hidden[0].T, da[0])
    for t in range(1, steps):
        dw_x += np.matmul(z[t].T, da[t])
        dw_h += np.matmul(hidden[t].T, da[t])
    db = da.sum(axis=(0, 2))
    grads = [np.matmul(da, w[:, :d].transpose(0, 2, 1)).sum(axis=1).reshape(-1, d)
             if node.parents[0].requires_grad else None]
    # Gate order i f o g back to the parents' order i, f, g, o.
    for k in (0, 1, 3, 2):
        grads += [np.concatenate([dw_x[k], dw_h[k]]), db[k:k + 1]]
    return tuple(grads)


# Keyed by the op name a tape node carries: these keys are the primitives.
_BACKWARD: dict[str, Callable] = {
    "matmul": _bw_matmul,
    "add": _bw_add,
    "mul": _bw_mul,
    "negate": _bw_negate,
    "concat-cols": _bw_concat_cols,
    "reshape": _bw_reshape,
    "log-sigmoid": _bw_log_sigmoid,
    "tanh": _bw_tanh,
    "sum-all": _bw_sum_all,
    "evolve": _bw_evolve,
    "lstm": _bw_lstm,
}


def _topo_order(output: Tensor) -> list[Tensor]:
    # Iterative post-order DFS (tensors hash by identity); parent order is
    # fixed, so the ordering and hence gradient accumulation is deterministic.
    order: list[Tensor] = []
    visited: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and p not in visited:
                stack.append((p, False))
    return order


def backward(output: Tensor, params: Iterable[Tensor] | None = None) -> dict[Tensor, Tensor]:
    """Gradients of a scalar output with respect to every trainable leaf.

    Leaves listed in `params` but unreachable from `output` get zero
    gradients. Keys are the leaf tensors themselves (identity semantics).
    """
    if output.shape != (1, 1):
        raise ShapeMismatchError("backward", output.shape)

    grads: dict[Tensor, np.ndarray] = {output: np.ones((1, 1))}
    result: dict[Tensor, Tensor] = {}
    if output.requires_grad:
        for node in reversed(_topo_order(output)):
            g = grads.pop(node, None)
            if g is None:
                continue
            if node.op is None:
                result[node] = Tensor(g)
                continue
            for parent, pg in zip(node.parents, _BACKWARD[node.op](node, g)):
                if not parent.requires_grad:
                    continue
                # Rules may hand back their upstream array, so sums are new arrays.
                acc = grads.get(parent)
                grads[parent] = pg if acc is None else acc + pg
    if params is not None:
        for p in params:
            if p.requires_grad and p not in result:
                result[p] = Tensor(np.zeros_like(p.data))
    return result


def grad_check(f: Callable[[], Tensor], params, step: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `f` rebuilds its tape from the current contents of `params` on every
    call; the leaves are perturbed in place and restored. The relative error
    for one coordinate is |autodiff - fd| / max(1, |fd|).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if isinstance(params, Mapping):
        leaves = list(params.items())
    else:
        leaves = [(f"param{i}", p) for i, p in enumerate(params)]

    out = f()
    auto = backward(out, params=[t for _, t in leaves])
    worst = 0.0
    for label, leaf in leaves:
        ad = auto[leaf].data
        it = np.nditer(leaf.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = leaf.data[idx]
            leaf.data[idx] = saved + step
            fp = f().item()
            leaf.data[idx] = saved - step
            fm = f().item()
            leaf.data[idx] = saved
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NonFiniteError(f"non-finite value while perturbing {label}{idx}")
            fd = (fp - fm) / (2.0 * step)
            rel = abs(ad[idx] - fd) / max(1.0, abs(fd))
            if rel > worst:
                worst = rel
    return worst
