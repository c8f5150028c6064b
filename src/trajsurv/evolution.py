"""Time-conditioned residual evolution of patient-graph node states.

Starting from the embedded node states H0, a message-passing operator is
applied T times. Each step conditions every node on a trainable time
embedding e_t, computes an update through one hidden message layer plus a
linear output projection, and adds it residually (so zero weights leave the
state untouched). The mean-pooled state after each update is one snapshot of
the patient's latent trajectory.

Everything runs on a cohort slice of B patients in the 7-slot star layout
(see `graph.py`): node states are one matrix with 7 rows per patient.
`adjacency` builds each backbone's constants from the slots in use and one
star template, once per forward. The neighbour mean, the gcn normalisation
and the readout are `Blocks`, stacks of B per-patient dense blocks applied
with one batched matmul.
`evolve` runs one step and readout per row of the time table and returns
the (T, B, d) snapshots. It writes each step's states into the workspace it
is handed, from which `evolve_backward` runs backpropagation through time.

Each step's message layer acts on [H | e_t] and arc attributes A, with its
weights split by rows, W_self = [W_sh; W_st] and W_neigh = [W_nh; W_nt; W_na],
so every operator propagates a projection of H alone:

- graphsage: pre = H W_sh + M(H W_nh) + (A W_na + b_msg) + 1 (e_t W_st)
  + r (e_t W_nt), with M the in-neighbour mean, (B, 7, 7), and r = M 1;
- gcn: pre = N(H W_sh) + s (e_t W_st) + b_msg, N = D^-1/2 (A + I) D^-1/2,
  (B, 7, 7), and s = N 1;
- gat: arc j -> i is scored from H_i U_dh + H_j U_sh + (A U_a + b_attn) +
  e_t (U_dt + U_st); its message H_j W_nh + A W_na + e_t W_nt is weighted by
  the softmax over the in-arcs of i and summed into i, and
  pre = H W_sh + 1 (e_t W_st) + (that sum) + b_msg.

gat's per-arc values are (20B x m), four arcs per region k in the order
global -> k, clinical -> k, k -> global, k -> clinical, so their (B, 5, 4, m)
view follows the arc template; `gather` and `scatter` read and sum them by
index.

A node with no in-arcs, such as a missing region's padding row, has an empty
row in M and in the gat sum, so r is 0 there and only the self path remains;
no operator has a nonzero column for a padding row, and gcn gives it no
self-loop. r (e_t W) is computed as M(1 (e_t W)) inside M's operand, and
likewise s. The weight blocks are row slices of the weights, and the arc
terms and the T x m tables E W of all time rows are built once per forward;
step t reads row t of each table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import NonFiniteError, ShapeMismatchError, slot, uniform_weight, zero_bias
from .graph import (ANATOMICAL_KINDS, CLINICAL_SLOT, EDGE_ATTR_DIM, GLOBAL_SLOT, SLOTS,
                    slots_in_use)

if TYPE_CHECKING:
    from .cohort import CohortArrays

BACKBONES = ("graphsage", "gcn", "gat")


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

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """This matrix times x: block b times rows b c .. (b + 1) c - 1 of x,
        written into the C-contiguous `out` when one is given."""
        count, r, c = self.blocks.shape
        m = x.shape[1]
        into = None if out is None else out.reshape(count, r, m)
        return np.matmul(self.blocks, x.reshape(count, c, m), out=into).reshape(self.shape[0], m)


@dataclass
class EvolutionParams:
    """Residual operator weights plus the trainable T x d_t time-embedding
    table, whose row t conditions evolution step t.

    The operator is one message layer (ReLU) followed by a linear output
    projection back to width d. graphsage/gat consume [x_j ; a_ij] neighbor
    messages through w_neigh; gcn uses the symmetric-normalized adjacency and
    ignores edge attributes; gat additionally carries single-head additive
    attention parameters.
    """

    backbone: str
    w_self: np.ndarray
    w_neigh: np.ndarray | None
    b_msg: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    time_table: np.ndarray
    attn_u: np.ndarray | None = None
    attn_b: np.ndarray | None = None
    attn_v: np.ndarray | None = None

    def named_leaves(self) -> list[tuple[str, np.ndarray]]:
        pairs = [("op.w_self", self.w_self), ("op.b_msg", self.b_msg),
                 ("op.w_out", self.w_out), ("op.b_out", self.b_out),
                 ("op.time_table", self.time_table)]
        for label, t in (("op.w_neigh", self.w_neigh), ("op.attn_u", self.attn_u),
                         ("op.attn_b", self.attn_b), ("op.attn_v", self.attn_v)):
            if t is not None:
                pairs.append((label, t))
        return pairs


def init_evolution(backbone: str, hidden_dim: int, time_dim: int, steps: int,
                   message_dim: int, rng: np.random.Generator,
                   attention_dim: int) -> EvolutionParams:
    d_in = hidden_dim + time_dim
    w_neigh = None
    attn_u = attn_b = attn_v = None
    if backbone in ("graphsage", "gat"):
        w_neigh = uniform_weight(rng, d_in + EDGE_ATTR_DIM, message_dim)
    if backbone == "gat":
        attn_u = uniform_weight(rng, 2 * d_in + EDGE_ATTR_DIM, attention_dim)
        attn_b = zero_bias(attention_dim)
        attn_v = uniform_weight(rng, attention_dim, 1)
    return EvolutionParams(
        backbone=backbone,
        w_self=uniform_weight(rng, d_in, message_dim),
        w_neigh=w_neigh,
        b_msg=zero_bias(message_dim),
        w_out=uniform_weight(rng, message_dim, hidden_dim),
        b_out=zero_bias(hidden_dim),
        time_table=uniform_weight(rng, steps, time_dim),
        attn_u=attn_u,
        attn_b=attn_b,
        attn_v=attn_v,
    )


# The star template. Arcs come four per region k: global -> k (attribute
# +offset_k), clinical -> k (0), k -> global (-offset_k) and k -> clinical
# (0). `_ENDS[TARGET]` and `_ENDS[SOURCE]` are their (5, 4) end slots, and
# `_STAR` links every region to both hubs.
_REGIONS = len(ANATOMICAL_KINDS)
_SIGN = np.array([1.0, 0.0, -1.0, 0.0])
TARGET, SOURCE = 0, 1
_ENDS = np.array([[(k, k, GLOBAL_SLOT, CLINICAL_SLOT) for k in range(_REGIONS)],
                  [(GLOBAL_SLOT, CLINICAL_SLOT, k, k) for k in range(_REGIONS)]])
_STAR = np.zeros((SLOTS, SLOTS))
_STAR[_ENDS[TARGET], _ENDS[SOURCE]] = 1.0


def gather(x: np.ndarray, present: np.ndarray, end: int, fill=0.0) -> np.ndarray:
    """Per arc, the row of x (7B x m) at the arc's `end` (TARGET or SOURCE),
    as (20B x m); an absent region's arcs get `fill`."""
    rows = x.reshape(len(present), SLOTS, -1)[:, _ENDS[end]]
    return np.where(present[:, :, None, None], rows, fill).reshape(-1, x.shape[1])


def scatter(v: np.ndarray, present: np.ndarray, end: int, op=np.add,
            fill=0.0) -> np.ndarray:
    """Per node, `op` over the per-arc values v (20B x m) of the arcs whose
    `end` it is, as (7B x m). An absent region's arcs count as `fill`, so a
    padding row gets `op(fill, fill)`."""
    m = v.shape[1]
    v = np.where(present[:, :, None, None], v.reshape(len(present), _REGIONS, 4, m), fill)
    near = v[:, :, 2 * end:2 * end + 2]       # the two arcs ending at region k
    hubs = v[:, :, 2 - 2 * end:4 - 2 * end]   # ending at the global / clinical hub
    return np.concatenate([op(near[:, :, 0], near[:, :, 1]), op.reduce(hubs, axis=1)],
                          axis=1).reshape(-1, m)


def adjacency(cohort: CohortArrays, backbone: str) -> dict:
    """The backbone's constants for a cohort slice.

    graphsage: `mean` (B, 7, 7) averages in-neighbours (1/in-degree per arc)
    and `attr_mean` (7B x 3) is the matching mean of arc attributes. gcn:
    `norm` (B, 7, 7) is the symmetric normalisation D^-1/2 (A + I) D^-1/2
    over the slots in use. gat: `attr` (20B x 3) holds the arc attributes.
    Every block is zero in the rows and columns of a missing region, and its
    arcs' attributes are zero, so its neighbour term is zero.
    """
    slots = slots_in_use(cohort.present)
    used = slots[:, :, None] & slots[:, None, :]
    if backbone == "gcn":
        adj = (_STAR + np.eye(SLOTS)) * used
        inv_sqrt = 1.0 / np.sqrt(np.maximum(adj.sum(axis=2), 1.0))
        return {"norm": Blocks(inv_sqrt[:, :, None] * adj * inv_sqrt[:, None, :])}
    present = cohort.present.astype(np.float64)[:, :, None, None]
    attr = (present * _SIGN[:, None] * cohort.offsets[:, :, None]).reshape(-1, EDGE_ATTR_DIM)
    if backbone == "gat":
        return {"attr": attr}
    adj = _STAR * used
    deg = np.maximum(adj.sum(axis=2, keepdims=True), 1.0)
    attr_sum = scatter(attr, cohort.present, TARGET).reshape(deg.shape[0], SLOTS, -1)
    return {"mean": Blocks(adj / deg),
            "attr_mean": (attr_sum / deg).reshape(-1, EDGE_ATTR_DIM)}


def mean_pool(present: np.ndarray) -> Blocks:
    """Per patient, the (1, 7) block averaging its rows in use."""
    slots = slots_in_use(present)
    return Blocks((slots / slots.sum(axis=1, keepdims=True))[:, None, :])


def segment_softmax(scores: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, ...]:
    """Softmax of per-arc scores (20B x 1) over the in-arcs of each target.

    The per-target maximum is subtracted first, so exp never overflows; the
    weights are exp(shifted - log(total)), where total is the sum of
    exp(shifted) over the arcs into the same target. An absent region's arc
    is shifted by its own score and has total 1. Returns the weights,
    exp(shifted) and total, all per arc; `evolve_backward` reuses the last
    two.
    """
    top = scatter(scores, present, TARGET, np.maximum, -np.inf)
    shifted = scores - gather(top, present, TARGET, scores.reshape(len(present), _REGIONS, 4, 1))
    exp_shifted = np.exp(shifted)
    total = gather(scatter(exp_shifted, present, TARGET), present, TARGET, 1.0)
    return np.exp(shifted - np.log(total)), exp_shifted, total


def evolve(h0: np.ndarray, cohort: CohortArrays, params: EvolutionParams,
           out: dict[str, np.ndarray]):
    """Roll the residual operator forward from H0, one step per time-table row.

    Step t sets H <- H + max(pre_t(H), 0) W_out + b_out and reads out the
    snapshot pool H, so the result holds z_0..z_{T-1} as (T, B, d). Every
    operation runs in the order of the per-op tape form (tests/oracles.py),
    so the values are the same bits. A state that is not finite after step
    t raises NonFiniteError naming t. It writes the states, activations and
    snapshots into the workspace `out` (`autodiff.slot`) and returns the
    snapshots with what `evolve_backward` needs: each step's input state and
    activations, and gat's arc terms.
    """
    if h0.shape[0] == 0:
        raise ValueError("evolve of an empty node-state matrix")
    backbone, present = params.backbone, cohort.present
    ops, pool = adjacency(cohort, backbone), mean_pool(present)
    e = params.time_table
    (steps, d_t), d = e.shape, params.w_out.shape[1]
    w_sh, w_st = params.w_self[:d], params.w_self[d:]
    self_rows = e @ w_st
    if backbone != "gcn":
        w_nh, w_nt, w_na = np.split(params.w_neigh, [d, d + d_t])
        neigh_rows = e @ w_nt
    if backbone == "graphsage":
        fixed = ops["attr_mean"] @ w_na + params.b_msg
    elif backbone == "gat":
        u_dh, u_dt, u_sh, u_st, u_a = np.split(params.attn_u, np.cumsum([d, d_t, d, d_t]))
        score_rows = e @ (u_dt + u_st)
        score_arcs = ops["attr"] @ u_a + params.attn_b
        msg_arcs = ops["attr"] @ w_na
        fixed = params.b_msg
    snapshots = slot(out, "evolve.snapshots", (steps, len(present), d))
    states = slot(out, "evolve.states", (steps,) + h0.shape)
    acts = slot(out, "evolve.acts", (steps, h0.shape[0], params.w_out.shape[0]))
    saved = []
    h = h0
    # In-place updates of fresh temporaries keep the tape form's operation
    # order, and so its values, with fewer allocations. H + U is written as
    # U + H, the same bits, so that the new state needs no temporary.
    for t in range(steps):
        kept = [h]
        own = h @ w_sh
        own += self_rows[t]
        if backbone == "gcn":
            pre = ops["norm"].apply(own, out=acts[t])
            pre += params.b_msg
        else:
            x_n = h @ w_nh
            x_n += neigh_rows[t]
            if backbone == "graphsage":
                pre = ops["mean"].apply(x_n, out=acts[t])
            else:
                q_dst = h @ u_dh
                q_dst += score_rows[t]
                hidden = gather(q_dst, present, TARGET)
                hidden += gather(h @ u_sh, present, SOURCE)
                hidden += score_arcs
                np.tanh(hidden, out=hidden)
                alpha, exp_shifted, total = segment_softmax(hidden @ params.attn_v, present)
                msgs = gather(x_n, present, SOURCE)
                msgs += msg_arcs
                pre = scatter(msgs * alpha, present, TARGET)
                kept += [hidden, alpha, exp_shifted, total, msgs]
            pre += own
            pre += fixed
        act = np.maximum(pre, 0.0, out=acts[t])
        update = np.matmul(act, params.w_out, out=states[t])
        update += params.b_out
        update += h
        h = update
        if not np.isfinite(h).all():
            raise NonFiniteError(f"node states diverged at evolution step {t}")
        pool.apply(h, out=snapshots[t])
        saved.append(kept + [act])
    return snapshots, (params, present, ops, pool, saved)


def evolve_backward(kept, g: np.ndarray, grads: EvolutionParams) -> np.ndarray:
    """dH0 from the gradient `g` of the (T, B, d) snapshots and what `evolve`
    kept; each `op.*` parameter's gradient is summed into its zeroed array
    in `grads`.

    Backpropagation through time over the kept states, each step's term added
    into its parameter's row block, split as `evolve` splits the weights.
    Every product and sum runs in the order in which the tape sums the per-op
    form (tests/oracles.py), except that each column sum is a product with a
    row of ones, which BLAS computes in its own order: the gradients are that
    form's up to roundoff.
    """
    params, present, ops, pool, saved = kept
    neigh, gat = params.backbone != "gcn", params.backbone == "gat"
    d, d_t = params.w_out.shape[1], params.time_table.shape[1]
    e, w_out = params.time_table, params.w_out
    w_sh, w_st = np.split(params.w_self, [d])
    gw_sh, gw_st = np.split(grads.w_self, [d])
    # Row t of each: the gradient of the time rows step t adds, e_t W_st,
    # e_t W_nt and e_t (U_dt + U_st).
    d_self = np.zeros((e.shape[0], w_out.shape[0]))
    d_neigh = np.zeros_like(d_self)
    if neigh:
        w_nh, w_nt, _ = np.split(params.w_neigh, [d, d + d_t])
        gw_nh, gw_nt, gw_na = np.split(grads.w_neigh, [d, d + d_t])
        # Summed over the steps: the gradient of the arc term that every step
        # adds alike, graphsage's A W_na + b_msg and gat's A W_na.
        attr = ops["attr"] if gat else ops["attr_mean"]
        d_attr = np.zeros((attr.shape[0], w_out.shape[0]))
    if gat:
        u_dh, u_dt, u_sh, u_st, _ = np.split(params.attn_u, np.cumsum([d, d_t, d, d_t]))
        gu_dh, gu_dt, gu_sh, gu_st, gu_a = np.split(grads.attn_u, np.cumsum([d, d_t, d, d_t]))
        d_score_rows = np.zeros((e.shape[0], u_dh.shape[1]))
        d_score_arcs = np.zeros((attr.shape[0], u_dh.shape[1]))     # of A U_a + b_attn
        spread = np.ones((1, w_out.shape[0]))
    dh = pool.T.apply(g[-1])
    ones = np.ones((1, dh.shape[0]))
    for t in range(len(saved) - 1, -1, -1):
        h, *arcs, act = saved[t]
        grads.b_out += ones @ dh
        grads.w_out += act.T @ dh
        dp = dh @ w_out.T
        dp *= act > 0.0
        if neigh and not gat:
            d_attr += dp
        else:
            grads.b_msg += ones @ dp
        d_own = dp if neigh else ops["norm"].T.apply(dp)
        gw_sh += h.T @ d_own
        d_self[t] = ones @ d_own
        back = [d_own @ w_sh.T]
        if gat:
            hidden, alpha, exp_shifted, total, msgs = arcs
            weighted = gather(dp, present, TARGET)
            d_msgs = weighted * alpha
            d_exp = alpha * ((weighted * msgs) @ spread.T)
            d_scores = d_exp + gather(scatter(-d_exp, present, TARGET), present,
                                      TARGET) / total * exp_shifted
            grads.attn_v += hidden.T @ d_scores
            d_arc = d_scores @ params.attn_v.T
            d_arc *= 1.0 - hidden * hidden
            d_score_arcs += d_arc
            d_attr += d_msgs
            d_xn = scatter(d_msgs, present, SOURCE)
        elif neigh:
            d_xn = ops["mean"].T.apply(dp)
        if neigh:
            gw_nh += h.T @ d_xn
            d_neigh[t] = ones @ d_xn
            back.append(d_xn @ w_nh.T)
        if gat:
            d_dst, d_src = scatter(d_arc, present, TARGET), scatter(d_arc, present, SOURCE)
            gu_dh += h.T @ d_dst
            gu_sh += h.T @ d_src
            d_score_rows[t] = ones @ d_dst
            back += [d_dst @ u_dh.T, d_src @ u_sh.T]
        # The readout of H_t comes first, then the update H_t + U_{t+1}.
        if t:
            dh += pool.T.apply(g[t - 1])
        for term in back:
            dh += term
    gw_st[:], grads.time_table[:] = e.T @ d_self, d_self @ w_st.T
    if neigh:
        gw_nt[:], gw_na[:] = e.T @ d_neigh, attr.T @ d_attr
        grads.time_table += d_neigh @ w_nt.T
    if neigh and not gat:
        grads.b_msg[:] = ones @ d_attr
    if gat:
        gu_dt[:] = gu_st[:] = e.T @ d_score_rows
        gu_a[:] = attr.T @ d_score_arcs
        grads.attn_b[:] = np.ones((1, attr.shape[0])) @ d_score_arcs
        grads.time_table += d_score_rows @ (u_dt + u_st).T
    return dh
