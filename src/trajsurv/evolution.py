"""Time-conditioned residual evolution of patient-graph node states.

Starting from the embedded node states H0, a message-passing operator is
applied T times. Each step conditions every node on a trainable time
embedding e_t, computes an update through one hidden message layer plus a
linear output projection, and adds it residually (so zero weights leave the
state untouched). The mean-pooled state after each update is one snapshot of
the patient's latent trajectory.

Everything runs on a cohort slice of B patients in the 7-slot star layout
(see `graph.py`): node states are one matrix with 7 rows per patient, and
every neighbour mean, normalised adjacency, per-arc gather and per-target
sum is a stack of B per-patient dense blocks applied with `spmm`, one
batched matmul. `adjacency` builds each backbone's blocks from the slots in
use and one star template, once per forward. `evolve` returns the snapshots
as a plain list of T tensors, each with one row per patient.

Each step's message layer acts on [H | e_t] and arc attributes A, with its
weights split by rows, W_self = [W_sh; W_st] and W_neigh = [W_nh; W_nt; W_na],
so every block operator propagates a projection of H alone:

- graphsage: pre = H W_sh + M(H W_nh) + (A W_na + b_msg) + 1 (e_t W_st)
  + r (e_t W_nt), with M the in-neighbour mean, (B, 7, 7), and r = M 1;
- gcn: pre = N(H W_sh) + s (e_t W_st) + b_msg, N = D^-1/2 (A + I) D^-1/2,
  (B, 7, 7), and s = N 1;
- gat: arc j -> i is scored from at_dst(H U_dh) + at_src(H U_sh) + (A U_a +
  b_attn) + e_t (U_dt + U_st); its message at_src(H W_nh) + A W_na + e_t W_nt
  is weighted by the softmax over the in-arcs of i and summed into i, and
  pre = H W_sh + 1 (e_t W_st) + (that sum) + b_msg. The gathers at_dst and
  at_src are (B, 20, 7), one row per arc slot (4 per region), and the sum
  is at_dst's transpose, (B, 7, 20).

A node with no in-arcs, such as a missing region's padding row, has an empty
row in M and in the gat sum, so r is 0 there and only the self path remains;
no operator has a nonzero column for a padding row, and gcn gives it no
self-loop. r (e_t W) is computed as M(1 (e_t W)) inside M's operand, and
likewise s. The weight blocks, the arc terms and the T x m tables E W of
all time rows are built once per forward; row t is picked by a selector
built once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Blocks, Tensor
from .graph import (ANATOMICAL_KINDS, CLINICAL_SLOT, EDGE_ATTR_DIM, GLOBAL_SLOT, SLOTS,
                    slots_in_use)

if TYPE_CHECKING:
    from .cohort import CohortArrays

BACKBONES = ("graphsage", "gcn", "gat")


def uniform_weight(rng: np.random.Generator, fan_in: int, fan_out: int,
                   name: str) -> Tensor:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return ad.parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)), name=name)


def _bias(fan_out: int, name: str) -> Tensor:
    return ad.parameter(np.zeros((1, fan_out)), name=name)


@lru_cache(maxsize=None)
def _row_selector(start: int, stop: int, total: int) -> Blocks:
    # One immutable selector per shape serves every model. It is built at its
    # own size: a slice of np.eye(total) would keep all of np.eye cached.
    if not 0 <= start < stop <= total:
        raise ad.ShapeMismatchError("rows", (start, stop), total)
    return Blocks(np.eye(stop - start, total, start)[None])


def rows_of(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start..stop-1 of x on the tape, through a selector built once."""
    return ad.spmm(_row_selector(start, stop, x.rows), x)


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
    w_self: Tensor
    w_neigh: Tensor | None
    b_msg: Tensor
    w_out: Tensor
    b_out: Tensor
    time_table: Tensor
    attn_u: Tensor | None = None
    attn_b: Tensor | None = None
    attn_v: Tensor | None = None

    def blocks(self, name: str) -> list[Tensor]:
        """Weight `name` split by rows into its H, e_t (and A) blocks, on the tape."""
        d, d_t = self.w_out.cols, self.time_table.cols
        heights = {"w_self": (d, d_t), "w_neigh": (d, d_t, EDGE_ATTR_DIM),
                   "attn_u": (d, d_t, d, d_t, EDGE_ATTR_DIM)}[name]
        stops = np.cumsum(heights).tolist()
        return [rows_of(getattr(self, name), stop - h, stop) for h, stop in zip(heights, stops)]

    def named_leaves(self) -> list[tuple[str, Tensor]]:
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
                   attention_dim: int = 16) -> EvolutionParams:
    d_in = hidden_dim + time_dim
    w_neigh = None
    attn_u = attn_b = attn_v = None
    if backbone in ("graphsage", "gat"):
        w_neigh = uniform_weight(rng, d_in + EDGE_ATTR_DIM, message_dim, "op.w_neigh")
    if backbone == "gat":
        attn_u = uniform_weight(rng, 2 * d_in + EDGE_ATTR_DIM, attention_dim, "op.attn_u")
        attn_b = _bias(attention_dim, "op.attn_b")
        attn_v = uniform_weight(rng, attention_dim, 1, "op.attn_v")
    return EvolutionParams(
        backbone=backbone,
        w_self=uniform_weight(rng, d_in, message_dim, "op.w_self"),
        w_neigh=w_neigh,
        b_msg=_bias(message_dim, "op.b_msg"),
        w_out=uniform_weight(rng, message_dim, hidden_dim, "op.w_out"),
        b_out=_bias(hidden_dim, "op.b_out"),
        time_table=uniform_weight(rng, steps, time_dim, "time_table"),
        attn_u=attn_u,
        attn_b=attn_b,
        attn_v=attn_v,
    )


# The star template. Arcs come four per region k, in region order:
# global -> k (attribute +offset_k), clinical -> k (0), k -> global
# (-offset_k) and k -> clinical (0). `_STAR` links every region to both hubs.
_REGIONS = len(ANATOMICAL_KINDS)
_ARC_REGION = np.repeat(np.arange(_REGIONS), 4)
_ARC_SIGN = np.tile([1.0, 0.0, -1.0, 0.0], _REGIONS)
_ARC_SRC = np.array([(GLOBAL_SLOT, CLINICAL_SLOT, k, k) for k in range(_REGIONS)]).ravel()
_ARC_DST = np.array([(k, k, GLOBAL_SLOT, CLINICAL_SLOT) for k in range(_REGIONS)]).ravel()
_STAR = np.eye(SLOTS)[_ARC_DST].T @ np.eye(SLOTS)[_ARC_SRC]


def _arcs(cohort: CohortArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per patient, the (20, 7) target and source gathers of the arcs and
    their (20, 3) attributes; the arcs of a missing region are zero rows."""
    used = cohort.present[:, _ARC_REGION].astype(np.float64)[:, :, None]
    attr = used * _ARC_SIGN[:, None] * cohort.offsets[:, _ARC_REGION]
    return used * np.eye(SLOTS)[_ARC_DST], used * np.eye(SLOTS)[_ARC_SRC], attr


def adjacency(cohort: CohortArrays, backbone: str) -> dict:
    """The backbone's constant blocks for a cohort slice.

    graphsage: `mean` (B, 7, 7) averages in-neighbours (1/in-degree per arc)
    and `attr_mean` is the matching mean of arc attributes. gcn: `norm`
    (B, 7, 7) is the symmetric normalisation D^-1/2 (A + I) D^-1/2 over the
    slots in use. gat: `at_dst`/`at_src` (B, 20, 7) gather each arc's
    target/source row, `sum_dst` (B, 7, 20) sums arcs into their target, and
    `no_arcs` is 1 on rows without in-arcs. Every block is zero in the rows
    and columns of a missing region, so its neighbour term is zero.
    """
    slots = slots_in_use(cohort.present)
    used = slots[:, :, None] & slots[:, None, :]
    if backbone == "graphsage":
        at_dst, _, attr = _arcs(cohort)
        adj = _STAR * used
        deg = np.maximum(adj.sum(axis=2, keepdims=True), 1.0)
        attr_sum = np.matmul(at_dst.transpose(0, 2, 1), attr)
        return {"mean": Blocks(adj / deg),
                "attr_mean": ad.constant((attr_sum / deg).reshape(-1, EDGE_ATTR_DIM))}
    elif backbone == "gcn":
        adj = (_STAR + np.eye(SLOTS)) * used
        inv_sqrt = 1.0 / np.sqrt(np.maximum(adj.sum(axis=2), 1.0))
        return {"norm": Blocks(inv_sqrt[:, :, None] * adj * inv_sqrt[:, None, :])}
    else:
        at_dst, at_src, attr = _arcs(cohort)
        gather = Blocks(at_dst)
        return {"at_dst": gather, "at_src": Blocks(at_src), "sum_dst": gather.T,
                "attr": ad.constant(attr.reshape(-1, EDGE_ATTR_DIM)),
                "no_arcs": ad.constant((~slots).astype(np.float64).reshape(-1, 1))}


def segment_softmax(scores: Tensor, ops: dict) -> Tensor:
    """Softmax of per-arc scores (B 20 x 1) over the in-arcs of each target.

    The per-target maximum is subtracted as a constant, so exp never
    overflows; the weights are exp(shifted - log(per-target sum of exp)).
    The arc slots of a missing region are shifted by their own score. `ops`
    are gat's blocks from `adjacency`.
    """
    per_arc = scores.data.reshape(ops["at_dst"].blocks.shape[0], -1)
    in_arcs = ops["at_dst"].blocks > 0.0
    top = np.where(in_arcs, per_arc[:, :, None], -np.inf).max(axis=1)
    shift = np.where(in_arcs.any(axis=2), top[:, _ARC_DST], per_arc)
    shifted = ad.sub(scores, ad.constant(shift.reshape(-1, 1)))
    total = ad.add(ad.spmm(ops["sum_dst"], ad.exp(shifted)), ops["no_arcs"])
    return ad.exp(ad.sub(shifted, ad.spmm(ops["at_dst"], ad.log(total))))


def _attention(ops: dict, params: EvolutionParams, w_na: Tensor) -> Callable:
    """gat's neighbour term as a function of (H, H W_nh + 1 (e_t W_nt), t)."""
    u_dh, u_dt, u_sh, u_st, u_a = params.blocks("attn_u")
    score_rows = ad.matmul(params.time_table, ad.add(u_dt, u_st))
    score_arcs = ad.add(ad.matmul(ops["attr"], u_a), params.attn_b)
    msg_arcs = ad.matmul(ops["attr"], w_na)
    spread = ad.constant(np.ones((1, w_na.cols)))

    def neighbours(h: Tensor, x_n: Tensor, t: int) -> Tensor:
        dst = ad.spmm(ops["at_dst"], ad.add(ad.matmul(h, u_dh), rows_of(score_rows, t, t + 1)))
        src = ad.spmm(ops["at_src"], ad.matmul(h, u_sh))
        hidden = ad.tanh(ad.add(ad.add(dst, src), score_arcs))
        alpha = segment_softmax(ad.matmul(hidden, params.attn_v), ops)
        msgs = ad.add(ad.spmm(ops["at_src"], x_n), msg_arcs)
        return ad.spmm(ops["sum_dst"], ad.mul(msgs, ad.matmul(alpha, spread)))

    return neighbours


def residual_update(cohort: CohortArrays, params: EvolutionParams,
                    ) -> Callable[[Tensor, int], Tensor]:
    """dH of step t as a function of (H, t); the blocks and the terms without
    H are built here, once."""
    e = params.time_table
    ops = adjacency(cohort, params.backbone)
    w_sh, w_st = params.blocks("w_self")
    self_rows = ad.matmul(e, w_st)
    if params.backbone == "gcn":
        norm = ops["norm"]

        def pre(h: Tensor, t: int) -> Tensor:
            own = ad.add(ad.matmul(h, w_sh), rows_of(self_rows, t, t + 1))
            return ad.add(ad.spmm(norm, own), params.b_msg)
    else:
        w_nh, w_nt, w_na = params.blocks("w_neigh")
        neigh_rows = ad.matmul(e, w_nt)
        if params.backbone == "graphsage":
            fixed = ad.add(ad.matmul(ops["attr_mean"], w_na), params.b_msg)

            def neighbours(h: Tensor, x_n: Tensor, t: int) -> Tensor:
                return ad.spmm(ops["mean"], x_n)
        else:
            fixed = params.b_msg
            neighbours = _attention(ops, params, w_na)

        def pre(h: Tensor, t: int) -> Tensor:
            x_n = ad.add(ad.matmul(h, w_nh), rows_of(neigh_rows, t, t + 1))
            own = ad.add(ad.matmul(h, w_sh), rows_of(self_rows, t, t + 1))
            return ad.add(ad.add(own, neighbours(h, x_n, t)), fixed)

    def update(h: Tensor, t: int) -> Tensor:
        return ad.add(ad.matmul(ad.relu(pre(h, t)), params.w_out), params.b_out)

    return update


def mean_pool(present: np.ndarray) -> Blocks:
    """Per patient, the (1, 7) block averaging its rows in use."""
    slots = slots_in_use(present)
    return Blocks((slots / slots.sum(axis=1, keepdims=True))[:, None, :])


def readout(h: Tensor, pool: Blocks) -> Tensor:
    """Patient-level snapshots: per patient, the column-wise mean of its rows in use."""
    if h.rows == 0:
        raise ValueError("readout of empty node-state matrix")
    return ad.spmm(pool, h)


def evolve(h0: Tensor, cohort: CohortArrays, params: EvolutionParams,
           horizon: int) -> list[Tensor]:
    """Roll the residual operator forward `horizon` steps from H0; the
    snapshots z_0..z_{T-1}, each the readout taken after one update."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > params.time_table.rows:
        raise IndexError(f"horizon {horizon} exceeds time table with "
                         f"{params.time_table.rows} rows")
    update = residual_update(cohort, params)
    pool = mean_pool(cohort.present)
    h = h0
    snapshots: list[Tensor] = []
    for t in range(horizon):
        h = ad.add(h, update(h, t))
        if not np.isfinite(h.data).all():
            raise ad.NonFiniteError(f"node states diverged at evolution step {t}")
        snapshots.append(readout(h, pool))
    return snapshots
