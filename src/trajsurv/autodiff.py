"""Dense 2-D tensors with reverse-mode automatic differentiation.

Every trainable part of the pipeline (node embeddings, the residual graph
operator, the LSTM integrator, the survival heads) is expressed through the
primitives in this module, so one tape implementation serves the whole model.
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


class DomainError(ValueError):
    """Input outside the mathematical domain of the op (e.g. log of x <= 0)."""


class NonFiniteError(ArithmeticError):
    """A value or gradient came out NaN/Inf."""


class Tensor:
    """A rows x cols matrix of float64 values, optionally recorded on a tape.

    Interior nodes carry their op kind, parent references and any cached
    context needed by the backward rule; leaves have op None. Gradients are
    never stored on the tensor itself -- `backward` returns them in a map.
    """

    __slots__ = ("data", "op", "parents", "ctx", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
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
        self.name = name

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
        t.name = None
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
        tag = self.name or self.op or "leaf"
        return f"Tensor({self.rows}x{self.cols}, {tag})"


def parameter(data, name: str | None = None) -> Tensor:
    """A trainable leaf."""
    t = Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)
    return t


def constant(data, name: str | None = None) -> Tensor:
    """A non-trainable leaf (inputs, masks, adjacency and the like)."""
    return Tensor(data, requires_grad=False, name=name)


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


def sub(a: Tensor, b: Tensor) -> Tensor:
    _elementwise_shapes("sub", a, b)
    return Tensor._node(a.data - b.data, "sub", (a, b))


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


def relu(a: Tensor) -> Tensor:
    return Tensor._node(np.maximum(a.data, 0.0), "relu", (a,))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    if not np.isfinite(out).all():
        raise NonFiniteError("exp overflowed on input outside representable range")
    return Tensor._node(out, "exp", (a,))


def log(a: Tensor) -> Tensor:
    if (a.data <= 0.0).any():
        raise DomainError("log of non-positive value")
    return Tensor._node(np.log(a.data), "log", (a,))


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


def spmm(s: Blocks, x: Tensor) -> Tensor:
    """Constant block-diagonal matrix times a tape tensor; only x gets a gradient."""
    if s.shape[1] != x.rows:
        raise ShapeMismatchError("spmm", s.shape, x.shape)
    return Tensor._node(s.apply(x.data), "spmm", (x,), s)


def lstm(snapshots: list[Tensor], w_i: Tensor, b_i: Tensor, w_f: Tensor, b_f: Tensor,
         w_g: Tensor, b_g: Tensor, w_o: Tensor, b_o: Tensor) -> Tensor:
    """Mean hidden state of a single-layer LSTM over T snapshots, as one node.

    The cell is c' = f*c + i*g, h' = o*tanh(c') from h = c = 0, each gate
    acting on [z_t ; h_{t-1}] through its (d + d_h) x d_h weight and 1 x d_h
    bias. The gates are held as (T, 4, B, d_h) in the order i f o g, so a
    step's gates are one contiguous block and its three sigmoids one
    contiguous part of it. The input projection of all T snapshots is one
    batched matmul outside the recurrence, and each step adds one
    (B x d_h) @ (4, d_h, d_h) product. Gates and cells are kept for backward
    only when some parent requires grad.
    """
    weights = (w_i, w_f, w_o, w_g)
    biases = (b_i, b_f, b_o, b_g)
    d_h = w_i.cols
    d = w_i.rows - d_h
    for w, b in zip(weights, biases):
        if w.shape != (d + d_h, d_h) or b.shape != (1, d_h):
            raise ShapeMismatchError("lstm", w_i.shape, w.shape, b.shape)
    if not snapshots:
        raise ShapeMismatchError("lstm", ())
    rows = snapshots[0].rows
    for z in snapshots:
        if z.shape != (rows, d):
            raise ShapeMismatchError("lstm", snapshots[0].shape, z.shape, (rows, d))
    steps = len(snapshots)
    w = np.stack([p.data for p in weights])           # (4, d + d_h, d_h)
    z = np.stack([s.data for s in snapshots])         # (T, B, d)
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
    parents = (*snapshots, w_i, b_i, w_f, b_f, w_g, b_g, w_o, b_o)
    node = Tensor._node(out, "lstm", parents)
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


def _bw_sub(node, g):
    a, b = node.parents
    return (_reduce_to(g, a.shape), _reduce_to(-g, b.shape))


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


def _bw_relu(node, g):
    # Subgradient at exactly 0 is taken as 0.
    return (g * (node.parents[0].data > 0.0),)


def _bw_exp(node, g):
    return (g * node.data,)


def _bw_log(node, g):
    return (g / node.parents[0].data,)


def _bw_sum_all(node, g):
    (a,) = node.parents
    return (np.full_like(a.data, g[0, 0]),)


def _bw_spmm(node, g):
    return (node.ctx.T.apply(g),)


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
    snapshots = node.parents[:steps]
    if any(s.requires_grad for s in snapshots):
        grads = list(np.matmul(da, w[:, :d].transpose(0, 2, 1)).sum(axis=1))
    else:
        grads = [None] * steps
    # Gate order i f o g back to the parents' order i, f, g, o.
    for k in (0, 1, 3, 2):
        grads += [np.concatenate([dw_x[k], dw_h[k]]), db[k:k + 1]]
    return tuple(grads)


# Keyed by the op name a tape node carries: these keys are the primitives.
_BACKWARD: dict[str, Callable] = {
    "matmul": _bw_matmul,
    "add": _bw_add,
    "sub": _bw_sub,
    "mul": _bw_mul,
    "negate": _bw_negate,
    "concat-cols": _bw_concat_cols,
    "reshape": _bw_reshape,
    "log-sigmoid": _bw_log_sigmoid,
    "tanh": _bw_tanh,
    "relu": _bw_relu,
    "exp": _bw_exp,
    "log": _bw_log,
    "sum-all": _bw_sum_all,
    "spmm": _bw_spmm,
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
        leaves = [(getattr(p, "name", None) or f"param{i}", p) for i, p in enumerate(params)]

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
