"""Independent reference implementations, and the tape they are written on.

The tape is reverse-mode differentiation over 2-D tensors, the way the
package once differentiated its model: `Tensor` nodes, the nine primitives
the model used (matmul, add, mul, negate, concat-cols, reshape,
log-sigmoid, tanh, sum-all) with their rules in `_BACKWARD`, `_topo_order`
and `backward`, plus `no_grad`. `evolve_node` and `lstm_node` put the
package's `evolve` and `integrate` on it as one node each, their state
kept in `FreshArrays`, whose rules call `evolve_backward` and
`integrate_backward`; `MODEL_RULES` is the table of those eleven ops. The
tape holds the (T, B, d) snapshots as one (T B x d) matrix.
`tape_mean_loss` is the whole model's loss on the tape, as
`training._mean_loss` computed it: the reference that
`training.loss_and_grads` is held `==` to. `leaves_of` wraps a parameter
dataclass's arrays as tape leaves that share their memory (the LSTM's as
its eight named gate slices, `LstmLeaves`), and `tape_grad_check` runs
`autodiff.grad_check` on a tape builder.

Everything else is written as plain per-patient loops, deliberately sharing
no code with the library: pair enumeration for the rank metrics, an explicit
product recursion for Kaplan-Meier, and direct summation for the weighted
Brier integral. Used to pin the vectorized implementations to 1e-12.
`argsort_later_smaller_counts` is the C-index's merge count in its first
numpy form, one stable argsort and one gather per merge level.
`tie_table_cindex` is the array C-index with every cohort ranked on its
own: two rank argsorts, a sorted (risk, time) key table binary-searched for
the risk ties, and the (time, risk) order for the library's merge count.
The curve classes and functions below are the per-patient scalar forms of
the (n, K) curve transforms, the reference the arrays are held to with ==.
`curve_rows` is a report's curves in their first form, one `CurveRow` per
(patient, task, bin) built from the fold outcomes.
`concat_step` is the evolution step in its first form, dense and per node.
`lstm_step` and `tape_integrate` are the LSTM integrator as per-op tape
nodes, `stacked_snapshot_grad` is the integrator's snapshot gradient as
one stacked (T, 4, B, d) product summed over its gates, and
`leafwise_adamw_step` is AdamW one leaf at a time.
`list_kfold` is the repeated stratified k-fold split in its list form,
dealing patients one at a time.
`per_region_simulate` is the cohort simulator in its per-region form: one
draw per region kind into dicts keyed by `NodeKind`, stacked at the end,
and the censoring calibration's mixture summed one group at a time.
`tape_evolve` is the evolution rollout as per-op tape nodes: `rows_of`
selectors for the weight blocks and time rows, `residual_update` for a step
and `readout` for a snapshot. Its gat arcs are the dense one-hot gathers of
`arc_blocks`, built from the arc template, not the index form they check.
The per-op forms use three tape ops the model never did: `spmm`, `exp` and
`log`. They are defined here, and their rules join the table.
"""

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from trajsurv import autodiff as ad
from trajsurv.autodiff import ShapeMismatchError
from trajsurv.cohort import CohortError, FoldSpec, _geometric_time, make_cohort
from trajsurv.crossval import TASKS, CurveRow
from trajsurv.evolution import Blocks, adjacency, evolve, evolve_backward, mean_pool
from trajsurv.graph import ANATOMICAL_KINDS, NodeKind, SLOTS, slots_in_use
from trajsurv.metrics import _later_smaller_counts
from trajsurv.objective import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, label_to_bin
from trajsurv.trajectory import LstmParams, _gate_grads, integrate, integrate_backward


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


# The `ctx` of an interior node whose backward rule has run.
_CONSUMED = object()


def backward(output: Tensor, params: Iterable[Tensor] | None = None) -> dict[Tensor, Tensor]:
    """Gradients of a scalar output with respect to every trainable leaf.

    Leaves listed in `params` but unreachable from `output` get zero
    gradients. Keys are the leaf tensors themselves (identity semantics).
    Each interior node's rule is the last reader of its `ctx`, so the `ctx`
    is released as soon as the rule has run: a tape is backpropagated once,
    and a second `backward` through it raises RuntimeError.
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
            if node.ctx is _CONSUMED:
                raise RuntimeError(f"backward: a {node.op} node of this tape was already "
                                   "backpropagated; run the forward pass again")
            parent_grads = _BACKWARD[node.op](node, g)
            node.ctx = _CONSUMED
            for parent, pg in zip(node.parents, parent_grads):
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


def tape_grad_check(f: Callable[[], Tensor], params, step: float = 1e-5) -> float:
    """`autodiff.grad_check` of the tape builder `f` over the leaves `params`,
    a list or a name -> leaf mapping, against the tape's gradients. `f`
    rebuilds its tape from the current contents of the leaves on every call."""
    leaves = (dict(params) if isinstance(params, Mapping)
              else {f"param{i}": p for i, p in enumerate(params)})
    # The analytic tape dies with this call, before the first perturbed one.
    grads = backward(f(), params=list(leaves.values()))
    return ad.grad_check(lambda: f().item(), {k: grads[p].data for k, p in leaves.items()},
                         {k: p.data for k, p in leaves.items()}, step)


class LstmLeaves:
    """`leaves_of` an `LstmParams`: its eight `lstm.*` gate slices as tape
    leaves that share their memory, each also an attribute by its name in
    the model file (`w_i`, `b_i`, ...), beside the params they slice."""

    def __init__(self, params):
        self.params, self.input_dim, self.hidden_dim = (params, params.input_dim,
                                                        params.hidden_dim)
        self.leaves = [(name, Tensor(a, requires_grad=True)) for name, a in params.named_leaves()]
        for name, leaf in self.leaves:
            setattr(self, name.removeprefix("lstm."), leaf)

    def named_leaves(self):
        return list(self.leaves)


def leaves_of(params):
    """The parameter dataclass `params` with each array wrapped as a tape leaf
    that shares its memory: a step of either moves both."""
    if isinstance(params, LstmParams):
        return LstmLeaves(params)
    return dataclasses.replace(params, **{
        f.name: Tensor(getattr(params, f.name), requires_grad=True)
        for f in dataclasses.fields(params) if isinstance(getattr(params, f.name), np.ndarray)})


def arrays_of(params):
    """The inverse of `leaves_of`: the dataclass of the leaves' arrays."""
    if isinstance(params, LstmLeaves):
        return params.params
    return dataclasses.replace(params, **{
        f.name: getattr(params, f.name).data
        for f in dataclasses.fields(params) if isinstance(getattr(params, f.name), Tensor)})


class FreshArrays(dict):
    """A workspace that hands out no buffer: `autodiff.slot` never finds one
    in it, so a forward handed it keeps its state in fresh arrays, one per
    slot, as a forward asked to keep without a workspace once did."""

    def get(self, name, default=None):
        return default


def evolve_node(h0, cohort, params):
    """`evolution.evolve` as one tape node over H0 and the leaves of `params`
    (a `leaves_of` dataclass), its (T, B, d) snapshots held as (T B x d);
    its rule is `evolve_backward`."""
    arrays = arrays_of(params)
    value, kept = evolve(h0.data, cohort, arrays, FreshArrays())
    names, leaves = zip(*params.named_leaves())
    return Tensor._node(value.reshape(-1, value.shape[2]), "evolve", (h0,) + leaves,
                        (names, kept, value.shape, arrays))


def lstm_node(snapshots, steps, params):
    """`trajectory.integrate` as one tape node over the (T B x d) snapshots,
    read as `steps` steps, and the leaves of `params` (a `leaves_of`
    LSTM); its rule is `integrate_backward`."""
    arrays = arrays_of(params)
    value, kept = integrate(snapshots.data.reshape(steps, -1, snapshots.cols), arrays,
                            FreshArrays())
    names, leaves = zip(*params.named_leaves())
    return Tensor._node(value, "lstm", (snapshots,) + leaves, (names, kept, value.shape, arrays))


def _fused_rule(backward_fn):
    """The tape rule of a stage's backward: the input's gradient, then each
    leaf's, read by the names the node was built with from the zeroed
    arrays the stage wrote, laid out as the node's parameters. The output's
    gradient is handed over in the shape the stage returned, and the
    input's comes back in the tape's shape."""
    def rule(node, g):
        names, kept, shape, params = node.ctx
        grads = ad.map_arrays(params, np.zeros_like)
        d_input = backward_fn(kept, g.reshape(shape), grads)
        named = dict(grads.named_leaves())
        return (d_input.reshape(node.parents[0].shape),) + tuple(named[name] for name in names)
    return rule


_BACKWARD["evolve"] = _fused_rule(evolve_backward)
_BACKWARD["lstm"] = _fused_rule(integrate_backward)
MODEL_RULES = frozenset(_BACKWARD)


def tape_embed(cohort, weights, biases):
    """`graph.embed_nodes` on the tape, with the leaves keyed by `NodeKind`."""
    inputs = ([cohort.regions[:, j] for j in range(len(ANATOMICAL_KINDS))]
              + [cohort.global_features, cohort.clinical])
    rows = [add(matmul(constant(x), weights[kind]), biases[kind])
            for kind, x in zip(NodeKind, inputs)]
    h0 = reshape(concat_cols(*rows), SLOTS * len(cohort), rows[0].cols)
    mask = np.broadcast_to(slots_in_use(cohort.present).reshape(-1, 1), h0.shape)
    return mul(h0, constant(mask))


def tape_integrate_mean(snapshots, steps):
    """`trajectory.integrate_mean` on the tape."""
    rows, d = snapshots.rows // steps, snapshots.cols
    total = matmul(constant(np.ones((1, steps))), reshape(snapshots, steps, rows * d))
    return mul(reshape(total, rows, d), constant(np.full((rows, d), 1.0 / steps)))


def tape_dfs_head(h_star, params):
    """`heads.dfs_head` on the tape: (logits, context), the context None for
    heads without the cascade."""
    context = (None if params.w_ctx is None
               else tanh(add(matmul(h_star, params.w_ctx), params.b_ctx)))
    return add(matmul(h_star, params.w_dfs), params.b_dfs), context


def tape_os_head(h_star, dfs_context, params):
    """`heads.os_head` on the tape: h* alone without a context."""
    joint = h_star if dfs_context is None else concat_cols(h_star, dfs_context)
    return add(matmul(joint, params.w_os), params.b_os)


def tape_nll(logits, time, event, bins):
    """`objective.discrete_nll` on the tape."""
    K = bins.count
    k = bins.index(time)[:, None]
    event = np.asarray(event)[:, None]
    cols = np.arange(K)[None, :]
    event_mask = ((cols == k) & (event == 1)).astype(np.float64)
    surv_mask = (cols < k + 1 - event).astype(np.float64)
    ll = sum_all(add(mul(constant(event_mask), log_sigmoid(logits)),
                     mul(constant(surv_mask), log_sigmoid(negate(logits)))))
    return mul(negate(ll), constant([[1.0 / len(time)]]))


def tape_mean_loss(model, cohort, bins, weights):
    """`training._mean_loss` on the tape, as it once was: the loss tensor and
    the model's leaves by name. It reads the integrator and the cascade from
    the config, not from which stages the model holds, so a model built with
    a stage its config switches off does not match it."""
    cfg = model.config
    embedding, evolution = model.embedding, leaves_of(model.evolution)
    lstm = leaves_of(model.lstm) if cfg.integrator == "lstm" else None
    heads = leaves_of(model.heads)
    embed_w = {kind: Tensor(w, requires_grad=True) for kind, w in embedding.weights.items()}
    embed_b = {kind: Tensor(b, requires_grad=True) for kind, b in embedding.biases.items()}
    h0 = tape_embed(cohort, embed_w, embed_b)
    snapshots = evolve_node(h0, cohort, evolution)
    if lstm is not None:
        h_star = lstm_node(snapshots, cfg.horizon, lstm)
    else:
        h_star = tape_integrate_mean(snapshots, cfg.horizon)
    dfs_logits, context = tape_dfs_head(h_star, heads)
    os_logits = tape_os_head(h_star, context if cfg.cascade else None, heads)
    leaves = {}
    for kind in embed_w:
        leaves[f"embed.{kind.value}.w"] = embed_w[kind]
        leaves[f"embed.{kind.value}.b"] = embed_b[kind]
    for part in (evolution, lstm, heads):
        if part is not None:
            leaves.update(part.named_leaves())
    os_nll = tape_nll(os_logits, cohort.time["os"], cohort.event["os"], bins)
    dfs_nll = tape_nll(dfs_logits, cohort.time["dfs"], cohort.event["dfs"], bins)
    loss = add(mul(constant([[weights.alpha]]), os_nll), mul(constant([[weights.beta]]), dfs_nll))
    return loss, leaves


def tape_loss_and_grads(model, cohort, bins, weights):
    """The tape's loss and its gradient per parameter name, zeros for the
    parameters the loss does not reach."""
    loss, leaves = tape_mean_loss(model, cohort, bins, weights)
    grads = backward(loss, params=list(leaves.values()))
    return loss.item(), {name: grads[leaf].data for name, leaf in leaves.items()}


def spmm(s, x):
    """Constant block-diagonal matrix times a tape tensor; only x gets a gradient."""
    if s.shape[1] != x.rows:
        raise ShapeMismatchError("spmm", s.shape, x.shape)
    return Tensor._node(s.apply(x.data), "spmm", (x,), s)


def exp(a):
    return Tensor._node(np.exp(a.data), "exp", (a,))


def log(a):
    return Tensor._node(np.log(a.data), "log", (a,))


_BACKWARD.update({
    "spmm": lambda node, g: (node.ctx.T.apply(g),),
    "exp": lambda node, g: (g * node.data,),
    "log": lambda node, g: (g / node.parents[0].data,),
})


@dataclass(frozen=True)
class HazardCurve:
    """One patient's per-bin conditional event probabilities, each in (0, 1)."""

    h: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.h, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "h", v)
        if v.size == 0 or not np.isfinite(v).all() or (v <= 0).any() or (v >= 1).any():
            raise ValueError("hazards must be finite and strictly inside (0, 1)")


@dataclass(frozen=True)
class SurvivalCurve:
    """S(k) = probability of surviving beyond bin k; positive, nonincreasing."""

    s: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.s, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "s", v)
        if v.size == 0 or not np.isfinite(v).all():
            raise ValueError("survival values must be finite")
        if v[0] > 1.0 or v[-1] <= 0.0 or (np.diff(v) > 0).any():
            raise ValueError("survival curve must be nonincreasing within (0, 1]")

    def at_time(self, t, bins):
        """Step interpolation: the value of the bin containing t."""
        return float(self.s[label_to_bin(t, bins)])


def scalar_hazards(logits):
    """One row of logits to its clamped sigmoid hazards, element by element."""
    x = np.asarray(logits, dtype=np.float64).reshape(-1)
    if not np.isfinite(x).all():
        raise ValueError("logits must be finite")
    h = []
    for v in x:
        e = np.exp(-abs(v))
        h.append(min(max(1.0 / (1.0 + e) if v >= 0 else e / (1.0 + e), 1e-300),
                     1.0 - 1e-16))
    return HazardCurve(np.array(h))


def scalar_survival(hc):
    s, out = 1.0, []
    for h in hc.h:
        s *= 1.0 - h
        out.append(s)
    return SurvivalCurve(np.array(out))


def scalar_point_estimate(curve, bins):
    """Expected event time with the tail mass placed at the final edge."""
    s = curve.s
    if s.shape[0] != bins.count:
        raise ValueError(f"curve has {s.shape[0]} bins, grid has {bins.count}")
    mass = np.concatenate(([1.0], s[:-1])) - s
    return float(mass @ bins.midpoints() + s[-1] * bins.edges[-1])


def curve_rows(outcomes):
    """The curve rows of the repeat-0 outcomes that did not fail, in outcome
    order: patient by patient, task by task, bin by bin."""
    return [CurveRow(pid, task, k, h, s) for o in outcomes
            if o.failure is None and o.ids is not None
            for i, pid in enumerate(o.ids.tolist()) for task in TASKS
            for k, (h, s) in enumerate(zip(*(a[i].tolist() for a in o.curves[task])))]


def pair_cindex(risks, labels):
    """Enumerate ordered pairs; comparable iff the earlier time is an event."""
    num = 0.0
    den = 0
    n = len(labels)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if labels[i].time < labels[j].time and labels[i].event == 1:
                den += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    return None if den == 0 else num / den


def _dense_ranks(x):
    """Rank of each value among the distinct values of `x`, smallest 0."""
    order = np.argsort(x)
    ranked = x[order]
    rank = np.empty(x.size, dtype=np.intp)
    rank[order] = np.concatenate(([0], np.cumsum(ranked[1:] != ranked[:-1])))
    return rank


def tie_table_cindex(r, t, e):
    """The C-index of risk, time and event arrays, ranked from scratch."""
    if not r.shape == t.shape == e.shape or t.size < 2:
        raise ValueError("need matching risks and at least two patients")
    if not np.isfinite(r).all():
        raise ValueError("risk scores must be finite")
    t_rank, r_rank = _dense_ranks(t), _dense_ranks(r)
    t_counts = np.bincount(t_rank)
    events = np.flatnonzero(e == 1)
    # comparable: for each event, the patients with a strictly later time
    n_comp = int((t.size - np.cumsum(t_counts)[t_rank[events]]).sum())
    if n_comp == 0:
        raise ValueError("no comparable pairs")
    # tied: among those, the ones with the same risk rank (sorted queries)
    m = t_counts.size
    key = r_rank * m + t_rank
    tie_keys, asked = np.sort(key), np.sort(key[events])
    tied = int((np.searchsorted(tie_keys, (asked // m + 1) * m)
                - np.searchsorted(tie_keys, asked, side="right")).sum())
    # concordant: in (time, rank) order an event outranks exactly the later
    # patients with a smaller rank, because equal times sort by rank
    order = np.argsort(t_rank * t.size + r_rank)
    concordant = _later_smaller_counts(r_rank[order], np.flatnonzero(e[order] == 1))
    return float((concordant + 0.5 * tied) / n_comp)


def argsort_later_smaller_counts(ranks, query):
    """Sum over positions p in `query` of #{j > p : ranks[j] < ranks[p]}.

    Codes 2r (queried) or 2r + 1, padded to a power of two; a dense
    comparison inside 32-aligned blocks, then at each merge level one stable
    argsort merges the two sorted halves of each row, and a left code moved
    from index i to k has k - i smaller right codes ahead.
    """
    base = 32
    n = ranks.size
    size = 1 << max(base.bit_length() - 1, (n - 1).bit_length())
    code = np.full(size, 2 * n + 1, dtype=np.int32)
    code[:n] = 2 * ranks + 1
    code[query] -= 1
    rows = code.reshape(-1, base)
    pairs = rows[:, :, None] > rows[:, None, :]
    pairs &= np.triu(np.ones((base, base), dtype=bool), 1)
    pairs &= (rows % 2 == 0)[:, :, None]
    total = int(np.count_nonzero(pairs))
    merged = np.sort(rows, axis=1)
    for w in (base << np.arange((size // base).bit_length() - 1)).tolist():
        merged = merged.reshape(-1, 2 * w)
        order = np.argsort(merged, axis=1, kind="stable")
        merged = np.take_along_axis(merged, order, axis=1)
        ahead = np.arange(2 * w) - order
        total += int(ahead[(order < w) & (merged % 2 == 0)].sum())
    return total


def pair_auc(scores, labels, horizon):
    """Case/control enumeration with censored-at-or-before-horizon exclusion."""
    cases = [s for s, lab in zip(scores, labels)
             if lab.event == 1 and lab.time <= horizon]
    controls = [s for s, lab in zip(scores, labels) if lab.time > horizon]
    if not cases or not controls:
        return None
    num = 0.0
    for c in cases:
        for u in controls:
            if c > u:
                num += 1.0
            elif c == u:
                num += 0.5
    return num / (len(cases) * len(controls))


def km_censor_at(labels, t, left=False):
    """G(t) (or the left limit) by explicit product over censoring times."""
    g = 1.0
    for u in sorted({lab.time for lab in labels if lab.event == 0}):
        inside = u < t if left else u <= t
        if not inside:
            continue
        at_risk = sum(1 for lab in labels if lab.time >= u)
        d = sum(1 for lab in labels if lab.time == u and lab.event == 0)
        g *= 1.0 - d / at_risk
    return g


def direct_ibs(curves, labels, bins, tau, cap=100.0):
    """Direct-summation IPCW Brier integral on the same 100-point grid."""
    def capped(g):
        w = 1.0 / g if g > 0.0 else np.inf
        return min(w, cap)

    grid = np.linspace(0.0, tau, 100)
    bs = []
    for t in grid:
        total = 0.0
        for curve, lab in zip(curves, labels):
            s = float(curve[label_to_bin(t, bins)])
            if lab.event == 1 and lab.time <= t:
                total += s * s * capped(km_censor_at(labels, lab.time, left=True))
            elif lab.time > t:
                total += (1.0 - s) ** 2 * capped(km_censor_at(labels, t))
        bs.append(total / len(labels))
    return float(np.trapezoid(bs, grid) / tau)


def unweighted_ibs(curves, labels, bins, tau):
    """No-censoring special case: plain integrated squared error."""
    grid = np.linspace(0.0, tau, 100)
    bs = []
    for t in grid:
        total = 0.0
        for curve, lab in zip(curves, labels):
            s = float(curve[label_to_bin(t, bins)])
            target = 0.0 if lab.time <= t else 1.0
            if lab.time <= t and lab.event == 0:
                continue
            total += (target - s) ** 2
        bs.append(total / len(labels))
    return float(np.trapezoid(bs, grid) / tau)


def arrays(labels):
    """The observed times and event flags of `labels` as float64 and int64 arrays."""
    return (np.array([lab.time for lab in labels], dtype=np.float64),
            np.array([lab.event for lab in labels], dtype=np.int64))


def random_survival_instance(rng, max_n=20):
    """A small cohort with deliberate time and risk ties plus random curves,
    one survival row per patient."""
    from trajsurv.heads import annual_bins
    from trajsurv.objective import SurvivalLabel

    bins = annual_bins(6)
    n = int(rng.integers(2, max_n + 1))
    times = rng.integers(1, 7, size=n).astype(np.float64)
    if rng.random() < 0.5:
        times += rng.integers(0, 2, size=n) * 0.5
    events = rng.integers(0, 2, size=n)
    labels = [SurvivalLabel(float(t), int(e)) for t, e in zip(times, events)]
    risks = rng.integers(0, 5, size=n).astype(np.float64)
    scores = np.round(rng.random(size=n), 1)
    curves = np.stack([scalar_survival(HazardCurve(rng.uniform(0.05, 0.6, size=bins.count))).s
                       for _ in range(n)])
    return bins, labels, risks, scores, curves


def concat_step(backbone, h, e_t, src, dst, attr, w):
    """One residual update as first specified: each node state is concatenated
    with e_t (x = [H | e_t]) and x itself is propagated, with dense matrices
    and per-node loops. `w` maps op.* parameter names (without the prefix) to
    arrays; arcs run src[k] -> dst[k] with attributes attr[k]."""
    n = h.shape[0]
    x = np.hstack([h, np.repeat(e_t, n, axis=0)])
    if backbone == "gcn":
        adj = np.eye(n)
        for s, t in zip(src, dst):
            adj[t, s] = 1.0
        deg = adj.sum(axis=1)
        pre = (adj / np.sqrt(np.outer(deg, deg))) @ x @ w["w_self"] + w["b_msg"]
    else:
        agg = np.zeros((n, x.shape[1] + attr.shape[1]))
        for i in range(n):
            arcs = [k for k in range(len(dst)) if dst[k] == i]
            if not arcs:
                continue
            msgs = np.array([np.concatenate([x[src[k]], attr[k]]) for k in arcs])
            if backbone == "graphsage":
                weights = np.full(len(arcs), 1.0 / len(arcs))
            else:
                scores = np.array([
                    np.tanh(np.concatenate([x[i], x[src[k]], attr[k]]) @ w["attn_u"]
                            + w["attn_b"][0]) @ w["attn_v"][:, 0] for k in arcs])
                e = np.exp(scores - scores.max())
                weights = e / e.sum()
            agg[i] = weights @ msgs
        pre = x @ w["w_self"] + agg @ w["w_neigh"] + w["b_msg"]
    return np.maximum(pre, 0.0) @ w["w_out"] + w["b_out"]


def star_operators(cohort, offset_scale=100.0):
    """The operators of a one-patient cohort, written out from the edge rules with loops.

    Slots follow `NodeKind` order: regions 0-4, the summary node 5 and the
    clinical node 6. Every present region k has a spatial edge 5 - k carrying
    clip((centroid_k - mean present centroid) / offset_scale, -1, 1) and a
    context edge 6 - k carrying 0; each edge gives two arcs, the reverse one
    with its attribute negated. Returns the dense 7 x 7 in-neighbour mean,
    the 7 x 3 mean in-arc attribute, the 7 x 7 gcn normalisation over the
    slots in use, and the arcs as (source, target, attribute) triples.
    """
    present = [k for k in range(5) if cohort.present[0, k]]
    centroids = {k: cohort.centroids[0, k] for k in present}
    centre = sum(centroids[k] for k in present) / len(present)
    arcs = []
    for k in present:
        offset = np.clip((centroids[k] - centre) / offset_scale, -1.0, 1.0)
        for hub, attr in ((5, offset), (6, np.zeros(3))):
            arcs.append((hub, k, attr))
            arcs.append((k, hub, -attr))
    used = present + [5, 6]
    mean = np.zeros((7, 7))
    attr_mean = np.zeros((7, 3))
    for t in range(7):
        into = [(s, a) for s, d, a in arcs if d == t]
        for s, a in into:
            mean[t, s] += 1.0 / len(into)
            attr_mean[t] += a / len(into)
    adj = np.zeros((7, 7))
    for i in used:
        adj[i, i] = 1.0
    for s, d, _ in arcs:
        adj[d, s] = 1.0
    deg = adj.sum(axis=1)
    norm = np.zeros((7, 7))
    for i in used:
        for j in used:
            norm[i, j] = adj[i, j] / np.sqrt(deg[i] * deg[j])
    return {"mean": mean, "attr_mean": attr_mean, "norm": norm, "arcs": arcs}


def _sigmoid(x):
    """The gate nonlinearity on the tape, as exp(log sigmoid(x))."""
    return exp(log_sigmoid(x))


def lstm_step(z, h, c, params):
    """One LSTM cell on the tape, op by op, as the integrator was first
    written: c' = f*c + i*g, h' = o*tanh(c'), each gate its own matmul on
    [z | h]."""
    if z.cols != params.input_dim or h.cols != params.hidden_dim:
        raise ShapeMismatchError("lstm-step", z.shape, h.shape,
                                    (params.input_dim, params.hidden_dim))
    zh = concat_cols(z, h)
    i = _sigmoid(add(matmul(zh, params.w_i), params.b_i))
    f = _sigmoid(add(matmul(zh, params.w_f), params.b_f))
    g = tanh(add(matmul(zh, params.w_g), params.b_g))
    o = _sigmoid(add(matmul(zh, params.w_o), params.b_o))
    c2 = add(mul(f, c), mul(i, g))
    h2 = mul(o, tanh(c2))
    return h2, c2


def tape_integrate(snapshots, steps, params):
    """The per-op tape form of `trajectory.integrate`: the stacked snapshots
    split into steps by `rows_of`, `lstm_step` from a zero state, then the
    mean of h_1..h_T as a chain of adds and one scale."""
    rows = snapshots.rows // steps
    zeros = np.zeros((rows, params.hidden_dim))
    h, c = constant(zeros), constant(zeros)
    acc = None
    for t in range(steps):
        h, c = lstm_step(rows_of(snapshots, t * rows, (t + 1) * rows), h, c, params)
        acc = h if acc is None else add(acc, h)
    return mul(acc, constant(np.full(acc.shape, 1.0 / steps)))


def stacked_snapshot_grad(kept, g):
    """The snapshot gradient of `integrate` from what it kept and the
    gradient `g` of h*, as it was first computed: the (T, 4, B, d) product of
    every gate's gradient with its input weights, summed over the gate axis."""
    z, w = kept[:2]
    d = z.shape[2]
    return np.matmul(_gate_grads(kept, g), w[:, :d].transpose(0, 2, 1)).sum(axis=1)


def leafwise_adamw_step(params, grads, state, settings):
    """AdamW one leaf at a time, with moments keyed by leaf: the form the
    flat-vector `objective.adamw_step` must match bit for bit. `state` is a
    dict holding the learning rate "lr", the step count "t" and the moments
    by leaf name."""
    state["t"] = t = state.get("t", 0) + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params:
        g = grads[name]
        m, v = state.get(name, (np.zeros_like(p), np.zeros_like(p)))
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        state[name] = (m, v)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p -= state["lr"] * (update + settings.weight_decay * p)


def rows_of(x, start, stop):
    """Rows start..stop-1 of x on the tape, through a dense selector."""
    if not 0 <= start < stop <= x.rows:
        raise ShapeMismatchError("rows", (start, stop), x.rows)
    return spmm(Blocks(np.eye(stop - start, x.rows, start)[None]), x)


def weight_blocks(params, name):
    """Weight `name` split by rows into its H, e_t (and A) blocks, on the tape."""
    d, d_t = params.w_out.cols, params.time_table.cols
    heights = {"w_self": (d, d_t), "w_neigh": (d, d_t, 3),
               "attn_u": (d, d_t, d, d_t, 3)}[name]
    stops = np.cumsum(heights).tolist()
    return [rows_of(getattr(params, name), stop - h, stop) for h, stop in zip(heights, stops)]


# The arc template: four arcs per region k, global -> k (attribute
# +offset_k), clinical -> k (0), k -> global (-offset_k), k -> clinical (0).
_ARC_REGION = np.repeat(np.arange(5), 4)
_ARC_SIGN = np.tile([1.0, 0.0, -1.0, 0.0], 5)
_ARC_SRC = np.array([(5, 6, k, k) for k in range(5)]).ravel()
_ARC_DST = np.array([(k, k, 5, 6) for k in range(5)]).ravel()


def arc_blocks(cohort):
    """gat's arcs as dense blocks: per patient the (20, 7) one-hot target and
    source gathers, zero on an absent region's arcs, the target sum as the
    target gather's transpose, (B, 7, 20), the (20B x 3) arc attributes, and
    `no_arcs` (7B x 1), 1 on rows without in-arcs."""
    used = cohort.present[:, _ARC_REGION].astype(np.float64)[:, :, None]
    at_dst = Blocks(used * np.eye(7)[_ARC_DST])
    attr = used * _ARC_SIGN[:, None] * cohort.offsets[:, _ARC_REGION]
    return {"at_dst": at_dst, "at_src": Blocks(used * np.eye(7)[_ARC_SRC]),
            "sum_dst": at_dst.T, "attr": attr.reshape(-1, 3),
            "no_arcs": (~slots_in_use(cohort.present)).astype(np.float64).reshape(-1, 1)}


def tape_segment_softmax(scores, ops):
    """`evolution.segment_softmax` on the tape over the blocks of
    `arc_blocks`, per-target maximum as a constant."""
    per_arc = scores.data.reshape(ops["at_dst"].blocks.shape[0], -1)
    in_arcs = ops["at_dst"].blocks > 0.0
    top = np.where(in_arcs, per_arc[:, :, None], -np.inf).max(axis=1)
    shift = np.where(in_arcs.any(axis=2),
                     np.take_along_axis(top, in_arcs.argmax(axis=2), axis=1), per_arc)
    # x - y is x + (-y), the same bits.
    shifted = add(scores, constant(-shift.reshape(-1, 1)))
    total = add(spmm(ops["sum_dst"], exp(shifted)), constant(ops["no_arcs"]))
    return exp(add(shifted, negate(spmm(ops["at_dst"], log(total)))))


def _attention(ops, params, w_na):
    """gat's neighbour term as a function of (H, H W_nh + 1 (e_t W_nt), t)."""
    u_dh, u_dt, u_sh, u_st, u_a = weight_blocks(params, "attn_u")
    attr = constant(ops["attr"])
    score_rows = matmul(params.time_table, add(u_dt, u_st))
    score_arcs = add(matmul(attr, u_a), params.attn_b)
    msg_arcs = matmul(attr, w_na)
    spread = constant(np.ones((1, w_na.cols)))

    def neighbours(h, x_n, t):
        dst = spmm(ops["at_dst"], add(matmul(h, u_dh), rows_of(score_rows, t, t + 1)))
        src = spmm(ops["at_src"], matmul(h, u_sh))
        hidden = tanh(add(add(dst, src), score_arcs))
        alpha = tape_segment_softmax(matmul(hidden, params.attn_v), ops)
        msgs = add(spmm(ops["at_src"], x_n), msg_arcs)
        return spmm(ops["sum_dst"], mul(msgs, matmul(alpha, spread)))

    return neighbours


def residual_update(cohort, params):
    """dH of step t as a function of (H, t), as per-op tape nodes: the
    evolution step as the `evolve` primitive is held to it."""
    e = params.time_table
    ops = arc_blocks(cohort) if params.backbone == "gat" else adjacency(cohort, params.backbone)
    w_sh, w_st = weight_blocks(params, "w_self")
    self_rows = matmul(e, w_st)
    if params.backbone == "gcn":
        norm = ops["norm"]

        def pre(h, t):
            own = add(matmul(h, w_sh), rows_of(self_rows, t, t + 1))
            return add(spmm(norm, own), params.b_msg)
    else:
        w_nh, w_nt, w_na = weight_blocks(params, "w_neigh")
        neigh_rows = matmul(e, w_nt)
        if params.backbone == "graphsage":
            fixed = add(matmul(constant(ops["attr_mean"]), w_na), params.b_msg)

            def neighbours(h, x_n, t):
                return spmm(ops["mean"], x_n)
        else:
            fixed = params.b_msg
            neighbours = _attention(ops, params, w_na)

        def pre(h, t):
            x_n = add(matmul(h, w_nh), rows_of(neigh_rows, t, t + 1))
            own = add(matmul(h, w_sh), rows_of(self_rows, t, t + 1))
            return add(add(own, neighbours(h, x_n, t)), fixed)

    def update(h, t):
        # relu(x) as x times the constant mask x > 0: the same values, a zero's
        # sign aside, and the same gradient.
        x = pre(h, t)
        return add(matmul(mul(x, constant(x.data > 0.0)), params.w_out), params.b_out)

    return update


def readout(h, pool):
    """Patient-level snapshots on the tape: per patient, the mean of its rows in use."""
    if h.rows == 0:
        raise ValueError("readout of empty node-state matrix")
    return spmm(pool, h)


def tape_evolve(h0, cohort, params, horizon):
    """The per-op tape form of `evolution.evolve`: `residual_update` and a
    readout per step, the snapshots as a list of T tensors."""
    update = residual_update(cohort, params)
    pool = mean_pool(cohort.present)
    h, snapshots = h0, []
    for t in range(horizon):
        h = add(h, update(h, t))
        snapshots.append(readout(h, pool))
    return snapshots


def _list_strata(indices, keys, k):
    """Joint (OS, DFS) event-indicator cells; sparse cells collapse to the OS margin."""
    cells = {}
    for i in indices:
        cells.setdefault(keys[i], []).append(i)
    strata = {}
    for os_event in (0, 1):
        children = {key: v for key, v in cells.items() if key[0] == os_event}
        if not children:
            continue
        if any(len(v) < k for v in children.values()):
            merged = []
            for key in sorted(children):
                merged.extend(children[key])
            strata[(os_event, -1)] = merged
        else:
            strata.update(children)
    return [strata[key] for key in sorted(strata)]


def _list_deal(strata, k, rng):
    """Shuffle each stratum and deal round-robin, carrying the fold pointer
    across strata."""
    folds = [[] for _ in range(k)]
    ptr = 0
    for members in strata:
        order = rng.permutation(len(members))
        for j in order:
            folds[ptr % k].append(members[j])
            ptr += 1
    return folds


def list_kfold(cohort, k, repeats, seed):
    """`stratified_repeated_kfold` with lists, sets and one patient dealt at a time."""
    n = len(cohort)
    too_small = (f"cohort of {n} patients cannot form {k} folds with "
                 "nonempty test, inner training and validation sets")
    if k > n:
        raise CohortError(too_small)
    all_idx = list(range(n))
    keys = list(zip(cohort.event["os"].tolist(), cohort.event["dfs"].tolist()))
    folds = []
    for rep in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
        outer = _list_deal(_list_strata(all_idx, keys, k), k, rng)
        for f in range(k):
            test = sorted(outer[f])
            in_test = set(test)
            rest = [i for i in all_idx if i not in in_test]
            inner_rng = np.random.default_rng(np.random.SeedSequence([seed, rep, f]))
            buckets = _list_deal(_list_strata(rest, keys, 5), 5, inner_rng)
            val = sorted(buckets[0])
            train = sorted(set(rest) - set(val))
            if not (test and train and val):
                raise CohortError(too_small)
            folds.append(FoldSpec(rep, f, test, train, val))
    return folds


_REGION_CENTERS = {
    NodeKind.LIVER_PARENCHYMA: np.array([60.0, 50.0, 40.0]),
    NodeKind.FUTURE_LIVER_REMNANT: np.array([30.0, 62.0, 46.0]),
    NodeKind.HEPATIC_VEINS: np.array([72.0, 66.0, 54.0]),
    NodeKind.PORTAL_VEINS: np.array([46.0, 34.0, 52.0]),
    NodeKind.METASTATIC_TUMORS: np.array([56.0, 44.0, 34.0]),
}


def _mixture_pmf(hazards, k_max=400):
    k = np.arange(k_max)
    pmf = np.zeros(k_max)
    for h in hazards:
        pmf += 0.5 * (1.0 - h) ** k * h
    return pmf


def _calibrate_censoring(scenario):
    target = scenario.censoring_rate
    pmf = _mixture_pmf(scenario.group_hazards("os"))
    k = np.arange(pmf.shape[0])

    def expected(c_max):
        return float(pmf @ np.minimum(k / c_max, 1.0))

    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def per_region_simulate(n, seed, scenario):
    """`simulate_cohort` with one draw per region kind, kept in dicts."""
    if n < 10:
        raise ValueError("need at least 10 patients")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))

    region_patterns = {}
    for kind in ANATOMICAL_KINDS:
        p = rng.normal(size=scenario.region_len)
        region_patterns[kind] = p / np.linalg.norm(p)
    p = rng.normal(size=scenario.clinical_len)
    clinical_pattern = p / np.linalg.norm(p)

    groups = rng.integers(0, 2, size=n)
    u = rng.uniform(size=n)
    h_os = scenario.group_hazards("os")[groups]
    h_dfs = scenario.group_hazards("dfs")[groups]
    t_os = _geometric_time(u, h_os).astype(np.float64)
    t_dfs = _geometric_time(u, h_dfs).astype(np.float64)

    sign = 2.0 * groups - 1.0
    region_feats = {
        kind: sign[:, None] * scenario.signal_strength * region_patterns[kind]
        + rng.normal(size=(n, scenario.region_len))
        for kind in ANATOMICAL_KINDS
    }
    clinical_raw = (sign[:, None] * scenario.signal_strength * clinical_pattern
                    + rng.normal(size=(n, scenario.clinical_len)))
    span = clinical_raw.max(axis=0) - clinical_raw.min(axis=0)
    span[span < 1e-12] = 1.0
    clinical = (clinical_raw - clinical_raw.min(axis=0)) / span

    centroids = {
        kind: _REGION_CENTERS[kind] + rng.normal(0.0, 10.0, size=(n, 3))
        for kind in ANATOMICAL_KINDS
    }

    if scenario.censoring_rate > 0.0:
        c_max = _calibrate_censoring(scenario)
        censor = rng.uniform(0.0, c_max, size=n)
    else:
        censor = np.full(n, np.inf)

    observed = {"dfs": t_dfs <= censor, "os": t_os <= censor}
    return make_cohort([f"sim{i:04d}" for i in range(n)],
                       np.stack([region_feats[kind] for kind in ANATOMICAL_KINDS], axis=1),
                       np.ones((n, len(ANATOMICAL_KINDS)), dtype=bool),
                       np.stack([centroids[kind] for kind in ANATOMICAL_KINDS], axis=1),
                       clinical,
                       {"dfs": np.where(observed["dfs"], t_dfs, censor),
                        "os": np.where(observed["os"], t_os, censor)},
                       {task: flags.astype(np.int64) for task, flags in observed.items()}), groups
