"""Time-conditioned residual evolution of patient-graph node states.

Starting from the embedded node states H0, a message-passing operator is
applied T times. Each step concatenates a trainable time embedding onto
every node state, computes an update through one hidden message layer plus a
linear output projection, and adds it residually (so zero weights leave the
state untouched). The mean-pooled state after each update is one snapshot of
the patient's latent trajectory.

Everything runs on a `GraphBatch`, the disjoint union of B graphs: node
states are one matrix with a row per node of every graph, and each
neighbour mean, normalised adjacency, per-arc gather and per-target sum is
a constant sparse matrix applied with `spmm`. This module decides the
adjacency of each backbone; snapshots have one row per graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .autodiff import SparseRows
from .graph import EDGE_ATTR_DIM, GraphBatch

BACKBONES = ("graphsage", "gcn", "gat")


def uniform_weight(rng: np.random.Generator, fan_in: int, fan_out: int,
                   name: str) -> Tensor:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return ad.parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)), name=name)


def _bias(fan_out: int, name: str) -> Tensor:
    return ad.parameter(np.zeros((1, fan_out)), name=name)


@dataclass
class TimeEmbeddingTable:
    """Trainable T x d_t table; row t conditions evolution step t."""

    table: Tensor

    @property
    def steps(self) -> int:
        return self.table.rows


def init_time_table(steps: int, time_dim: int, rng: np.random.Generator) -> TimeEmbeddingTable:
    return TimeEmbeddingTable(uniform_weight(rng, steps, time_dim, "time_table"))


def time_embedding(t: int, table: TimeEmbeddingTable) -> Tensor:
    """Row t of the table as a 1 x d_t tensor on the tape."""
    if not (0 <= t < table.steps):
        raise IndexError(f"time step {t} outside table with {table.steps} rows")
    return ad.spmm(SparseRows([0], [t], 1.0, (1, table.steps)), table.table)


@dataclass
class EvolutionParams:
    """Residual operator weights plus the time-embedding table.

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
    time_table: TimeEmbeddingTable
    attn_u: Tensor | None = None
    attn_b: Tensor | None = None
    attn_v: Tensor | None = None

    def named_leaves(self) -> list[tuple[str, Tensor]]:
        pairs = [("op.w_self", self.w_self), ("op.b_msg", self.b_msg),
                 ("op.w_out", self.w_out), ("op.b_out", self.b_out),
                 ("op.time_table", self.time_table.table)]
        for label, t in (("op.w_neigh", self.w_neigh), ("op.attn_u", self.attn_u),
                         ("op.attn_b", self.attn_b), ("op.attn_v", self.attn_v)):
            if t is not None:
                pairs.append((label, t))
        return pairs

    def zero_weights(self) -> None:
        """Zero every leaf in place (identity-trajectory configuration)."""
        for _, leaf in self.named_leaves():
            leaf.data[:] = 0.0


def init_evolution(backbone: str, hidden_dim: int, time_dim: int, steps: int,
                   message_dim: int, rng: np.random.Generator,
                   attention_dim: int = 16) -> EvolutionParams:
    if backbone not in BACKBONES:
        raise ValueError(f"unknown backbone {backbone!r}; expected one of {BACKBONES}")
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
        time_table=init_time_table(steps, time_dim, rng),
        attn_u=attn_u,
        attn_b=attn_b,
        attn_v=attn_v,
    )


def adjacency(batch: GraphBatch, backbone: str) -> dict:
    """The backbone's constant operators for this batch, built on first use.

    graphsage: `mean` averages in-neighbours (1/in-degree per arc) and
    `attr_mean` is the matching mean of arc attributes. gcn: `norm` is the
    symmetric normalisation D^-1/2 (A + I) D^-1/2. gat: `at_dst`/`at_src`
    gather each arc's target/source row, `sum_dst` sums arcs into their
    target, and `no_arcs` is 1 on nodes without in-arcs. Isolated nodes get
    an empty row, so their neighbour term is zero.
    """
    ops = batch.operators.get(backbone)
    if ops is not None:
        return ops
    n, src, dst = batch.n_nodes, batch.src, batch.dst
    deg = np.bincount(dst, minlength=n).astype(np.float64)
    if backbone == "graphsage":
        attr_sum = np.zeros((n, EDGE_ATTR_DIM))
        np.add.at(attr_sum, dst, batch.attr)
        ops = {"mean": SparseRows(dst, src, 1.0 / deg[dst], (n, n)),
               "attr_mean": ad.constant(attr_sum / np.maximum(deg, 1.0)[:, None])}
    elif backbone == "gcn":
        pairs = np.unique(np.stack([dst, src], axis=1), axis=0)
        loops = np.arange(n)
        rows = np.concatenate([loops, pairs[:, 0]])
        cols = np.concatenate([loops, pairs[:, 1]])
        inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, minlength=n))
        ops = {"norm": SparseRows(rows, cols, inv_sqrt[rows] * inv_sqrt[cols], (n, n))}
    elif backbone == "gat":
        arcs = np.arange(dst.size)
        at_dst = SparseRows(arcs, dst, 1.0, (dst.size, n))
        ops = {"at_dst": at_dst, "at_src": SparseRows(arcs, src, 1.0, (dst.size, n)),
               "sum_dst": at_dst.T, "attr": ad.constant(batch.attr),
               "no_arcs": ad.constant((deg == 0.0).astype(np.float64)[:, None])}
    else:
        raise ValueError(f"unknown backbone {backbone!r}")
    batch.operators[backbone] = ops
    return ops


def segment_softmax(scores: Tensor, batch: GraphBatch) -> Tensor:
    """Softmax of per-arc scores (arcs x 1) over the in-arcs of each target.

    The per-target maximum is subtracted as a constant, so exp never
    overflows; the weights are exp(shifted - log(per-target sum of exp)).
    """
    ops = adjacency(batch, "gat")
    top = np.full(batch.n_nodes, -np.inf)
    np.maximum.at(top, batch.dst, scores.data[:, 0])
    shifted = ad.sub(scores, ad.constant(top[batch.dst][:, None]))
    total = ad.add(ad.spmm(ops["sum_dst"], ad.exp(shifted)), ops["no_arcs"])
    return ad.exp(ad.sub(shifted, ad.spmm(ops["at_dst"], ad.log(total))))


def _attend(x: Tensor, batch: GraphBatch, params: EvolutionParams) -> Tensor:
    """gat: single-head additive attention; each arc is scored from [x_dst ; x_src ; a]."""
    ops = adjacency(batch, "gat")
    x_src = ad.spmm(ops["at_src"], x)
    pair = ad.concat_cols(ad.spmm(ops["at_dst"], x), x_src, ops["attr"])
    hidden = ad.tanh(ad.add(ad.matmul(pair, params.attn_u), params.attn_b))
    alpha = segment_softmax(ad.matmul(hidden, params.attn_v), batch)
    msgs = ad.concat_cols(x_src, ops["attr"])
    spread = ad.matmul(alpha, ad.constant(np.ones((1, msgs.cols))))
    return ad.spmm(ops["sum_dst"], ad.mul(msgs, spread))


def _message(x: Tensor, batch: GraphBatch, params: EvolutionParams) -> Tensor:
    if params.backbone == "gcn":
        mixed = ad.spmm(adjacency(batch, "gcn")["norm"], x)
        return ad.relu(ad.add(ad.matmul(mixed, params.w_self), params.b_msg))
    if params.backbone == "graphsage":
        ops = adjacency(batch, "graphsage")
        agg = ad.concat_cols(ad.spmm(ops["mean"], x), ops["attr_mean"])
    else:
        agg = _attend(x, batch, params)
    pre = ad.add(ad.add(ad.matmul(x, params.w_self), ad.matmul(agg, params.w_neigh)),
                 params.b_msg)
    return ad.relu(pre)


def residual_step(h: Tensor, e_t: Tensor, batch: GraphBatch,
                  params: EvolutionParams) -> Tensor:
    """Incremental update dH for one step: operator applied to [H ; e_t]."""
    x = ad.concat_cols(h, ad.broadcast_row(e_t, h.rows))
    m = _message(x, batch, params)
    return ad.add(ad.matmul(m, params.w_out), params.b_out)


def readout(h: Tensor, pool: SparseRows) -> Tensor:
    """Graph-level snapshots: per graph, the column-wise mean of its node rows."""
    if h.rows == 0:
        raise ValueError("readout of empty node-state matrix")
    return ad.spmm(pool, h)


@dataclass
class TrajectorySnapshots:
    """z_0..z_{T-1}, each the readout taken after one residual update."""

    z: list[Tensor]
    h_seq: list[Tensor] | None = None

    def __len__(self) -> int:
        return len(self.z)


def evolve(h0: Tensor, batch: GraphBatch, params: EvolutionParams, horizon: int,
           collect_states: bool = False) -> TrajectorySnapshots:
    """Roll the residual operator forward `horizon` steps from H0."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > params.time_table.steps:
        raise IndexError(f"horizon {horizon} exceeds time table with "
                         f"{params.time_table.steps} rows")
    h = h0
    snapshots: list[Tensor] = []
    states: list[Tensor] | None = [h0] if collect_states else None
    for t in range(horizon):
        delta = residual_step(h, time_embedding(t, params.time_table), batch, params)
        h = ad.add(h, delta)
        if not np.isfinite(h.data).all():
            raise ad.NonFiniteError(f"node states diverged at evolution step {t}")
        snapshots.append(readout(h, batch.pool))
        if states is not None:
            states.append(h)
    return TrajectorySnapshots(z=snapshots, h_seq=states)

