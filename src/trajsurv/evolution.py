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
sum is a stack of B per-patient dense blocks (`autodiff.Blocks`), one
batched matmul. `adjacency` builds each backbone's blocks from the slots in
use and one star template, once per forward. `evolve` runs all T steps and
their readouts as one node of the `evolve` primitive of `autodiff`, whose
backward rule runs backpropagation through time; it returns the T snapshots
stacked step-major, (T B x d), rows tB..tB+B-1 holding step t.

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
likewise s. The weight blocks are row slices of the weights, and the arc
terms and the T x m tables E W of all time rows are built once per forward;
step t reads row t of each table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Blocks, Tensor
from .graph import (ANATOMICAL_KINDS, CLINICAL_SLOT, EDGE_ATTR_DIM, GLOBAL_SLOT, SLOTS,
                    slots_in_use)

if TYPE_CHECKING:
    from .cohort import CohortArrays

BACKBONES = ("graphsage", "gcn", "gat")


def uniform_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return ad.parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)))


def _bias(fan_out: int) -> Tensor:
    return ad.parameter(np.zeros((1, fan_out)))


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
        w_neigh = uniform_weight(rng, d_in + EDGE_ATTR_DIM, message_dim)
    if backbone == "gat":
        attn_u = uniform_weight(rng, 2 * d_in + EDGE_ATTR_DIM, attention_dim)
        attn_b = _bias(attention_dim)
        attn_v = uniform_weight(rng, attention_dim, 1)
    return EvolutionParams(
        backbone=backbone,
        w_self=uniform_weight(rng, d_in, message_dim),
        w_neigh=w_neigh,
        b_msg=_bias(message_dim),
        w_out=uniform_weight(rng, message_dim, hidden_dim),
        b_out=_bias(hidden_dim),
        time_table=uniform_weight(rng, steps, time_dim),
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
    and `attr_mean` (7B x 3) is the matching mean of arc attributes. gcn:
    `norm` (B, 7, 7) is the symmetric normalisation D^-1/2 (A + I) D^-1/2
    over the slots in use. gat: `at_dst`/`at_src` (B, 20, 7) gather each
    arc's target/source row, `sum_dst` (B, 7, 20) sums arcs into their
    target, `attr` (20B x 3) holds the arc attributes, `no_arcs` (7B x 1) is
    1 on rows without in-arcs, `arc_used` (20B x 1) marks the arcs in use
    and `arc_target` (20B) gives each arc's target row. Every block is zero
    in the rows and columns of a missing region, so its neighbour term is
    zero.
    """
    slots = slots_in_use(cohort.present)
    used = slots[:, :, None] & slots[:, None, :]
    if backbone == "graphsage":
        at_dst, _, attr = _arcs(cohort)
        adj = _STAR * used
        deg = np.maximum(adj.sum(axis=2, keepdims=True), 1.0)
        attr_sum = np.matmul(at_dst.transpose(0, 2, 1), attr)
        return {"mean": Blocks(adj / deg),
                "attr_mean": (attr_sum / deg).reshape(-1, EDGE_ATTR_DIM)}
    elif backbone == "gcn":
        adj = (_STAR + np.eye(SLOTS)) * used
        inv_sqrt = 1.0 / np.sqrt(np.maximum(adj.sum(axis=2), 1.0))
        return {"norm": Blocks(inv_sqrt[:, :, None] * adj * inv_sqrt[:, None, :])}
    else:
        at_dst, at_src, attr = _arcs(cohort)
        gather = Blocks(at_dst)
        target = np.arange(len(cohort))[:, None] * SLOTS + _ARC_DST
        return {"at_dst": gather, "at_src": Blocks(at_src), "sum_dst": gather.T,
                "attr": attr.reshape(-1, EDGE_ATTR_DIM),
                "no_arcs": (~slots).astype(np.float64).reshape(-1, 1),
                "arc_used": cohort.present[:, _ARC_REGION].reshape(-1, 1),
                "arc_target": target.ravel()}


def mean_pool(present: np.ndarray) -> Blocks:
    """Per patient, the (1, 7) block averaging its rows in use."""
    slots = slots_in_use(present)
    return Blocks((slots / slots.sum(axis=1, keepdims=True))[:, None, :])


def evolve(h0: Tensor, cohort: CohortArrays, params: EvolutionParams,
           horizon: int) -> Tensor:
    """Roll the residual operator forward `horizon` steps from H0; the
    snapshots z_0..z_{T-1}, each the readout taken after one update, stacked
    step-major as one (T B x d) node of the `evolve` primitive."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > params.time_table.rows:
        raise IndexError(f"horizon {horizon} exceeds time table with "
                         f"{params.time_table.rows} rows")
    if h0.rows == 0:
        raise ValueError("evolve of an empty node-state matrix")
    return ad.evolve(h0, horizon, adjacency(cohort, params.backbone), mean_pool(cohort.present),
                     params.w_self, params.b_msg, params.w_out, params.b_out,
                     params.time_table, params.w_neigh, params.attn_u, params.attn_b,
                     params.attn_v)
