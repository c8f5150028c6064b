"""Heterogeneous patient graph: seven typed nodes, rule-derived edges.

A patient is modeled as a small star-shaped graph: five anatomical region
nodes, one whole-scan summary node (GLOBAL_CT) and one clinical node. Every
present region is linked to GLOBAL_CT by a spatial-topology edge carrying the
normalized centroid offset, and to CLINICAL by a context edge with a zero
offset. Logical edges are stored once; message passing consumes directed
arcs derived from them (two per edge, offset sign flipped on the reverse).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import SparseRows, Tensor


class NodeKind(Enum):
    LIVER_PARENCHYMA = "liver_parenchyma"
    FUTURE_LIVER_REMNANT = "future_liver_remnant"
    HEPATIC_VEINS = "hepatic_veins"
    PORTAL_VEINS = "portal_veins"
    METASTATIC_TUMORS = "metastatic_tumors"
    GLOBAL_CT = "global_ct"
    CLINICAL = "clinical"


class EdgeKind(Enum):
    SPATIAL_TOPOLOGY = "spatial_topology"
    CLINICAL_CONTEXT = "clinical_context"


ANATOMICAL_KINDS: tuple[NodeKind, ...] = (
    NodeKind.LIVER_PARENCHYMA,
    NodeKind.FUTURE_LIVER_REMNANT,
    NodeKind.HEPATIC_VEINS,
    NodeKind.PORTAL_VEINS,
    NodeKind.METASTATIC_TUMORS,
)

EDGE_ATTR_DIM = 3

# Millimetre-scale centroid differences divided by this stay O(1) before the
# [-1, 1] clamp.
DEFAULT_OFFSET_SCALE = 100.0


class GraphConstructionError(ValueError):
    """The node inventory cannot form a valid patient graph."""


@dataclass
class Node:
    kind: NodeKind
    present: bool
    features: np.ndarray | None = None
    centroid: np.ndarray | None = None


@dataclass(frozen=True)
class Edge:
    """Logical undirected link; attr is oriented source -> target."""

    source: NodeKind
    target: NodeKind
    kind: EdgeKind
    attr: np.ndarray


@dataclass
class PatientGraph:
    patient_id: str
    nodes: dict[NodeKind, Node]
    edges: list[Edge]
    # Present-node order; node-state rows are aligned to this.
    order: list[NodeKind] = field(default_factory=list)
    # Arc arrays, computed the first time the graph joins a batch; a graph
    # is not edited after that.
    _arcs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.order:
            self.order = [k for k in NodeKind if self.nodes.get(k) is not None
                          and self.nodes[k].present]

    @property
    def num_nodes(self) -> int:
        return len(self.order)

    def is_present(self, kind: NodeKind) -> bool:
        node = self.nodes.get(kind)
        return node is not None and node.present

    def row_of(self, kind: NodeKind) -> int:
        return self.order.index(kind)

    def arc_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source rows, target rows, attrs) of the directed arcs between
        present nodes: two per edge, the reverse one with its attr negated,
        sorted by target row and in edge order within a target."""
        if self._arcs is None:
            idx = {k: i for i, k in enumerate(self.order)}
            arcs = [(idx[s], idx[t], a) for e in self.edges
                    for s, t, a in ((e.source, e.target, e.attr), (e.target, e.source, -e.attr))
                    if s in idx and t in idx]
            arcs.sort(key=lambda arc: arc[1])
            src = np.array([arc[0] for arc in arcs], dtype=np.intp)
            dst = np.array([arc[1] for arc in arcs], dtype=np.intp)
            attr = np.array([arc[2] for arc in arcs]).reshape(-1, EDGE_ATTR_DIM)
            self._arcs = (src, dst, attr)
        return self._arcs


def _as_vector(x, what: str, length: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    if length is not None and v.shape[0] != length:
        raise GraphConstructionError(f"{what}: expected length {length}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise GraphConstructionError(f"{what}: non-finite values")
    return v


def build_patient_graph(
    region_features: dict[NodeKind, np.ndarray],
    clinical_features: np.ndarray,
    centroids: dict[NodeKind, np.ndarray],
    patient_id: str = "",
    region_len: int | None = None,
    clinical_len: int | None = None,
    offset_scale: float = DEFAULT_OFFSET_SCALE,
) -> PatientGraph:
    """Assemble the patient graph from raw per-region and clinical features.

    At least one anatomical region is required, with a 3-D centroid per
    provided region. Missing regions become absent nodes with no incident
    edges. The summary node's features and centroid are the means over the
    present regions; spatial offsets are (region centroid - summary centroid)
    divided by `offset_scale` and clamped to [-1, 1].
    """
    present = [k for k in ANATOMICAL_KINDS if k in region_features]
    if not present:
        raise GraphConstructionError("no anatomical region nodes provided")
    if offset_scale <= 0:
        raise GraphConstructionError("offset_scale must be positive")

    feats = {k: _as_vector(region_features[k], k.value, region_len) for k in present}
    widths = {v.shape[0] for v in feats.values()}
    if len(widths) != 1:
        raise GraphConstructionError(f"anatomical feature widths differ: {sorted(widths)}")
    for k in present:
        if k not in centroids:
            raise GraphConstructionError(f"{k.value}: centroid missing")
    cents = {k: _as_vector(centroids[k], f"{k.value} centroid", 3) for k in present}

    clinical = _as_vector(clinical_features, "clinical", clinical_len)
    global_feat = np.mean([feats[k] for k in present], axis=0)
    global_cent = np.mean([cents[k] for k in present], axis=0)

    nodes: dict[NodeKind, Node] = {}
    for k in ANATOMICAL_KINDS:
        if k in feats:
            nodes[k] = Node(k, True, feats[k], cents[k])
        else:
            nodes[k] = Node(k, False)
    nodes[NodeKind.GLOBAL_CT] = Node(NodeKind.GLOBAL_CT, True, global_feat, global_cent)
    nodes[NodeKind.CLINICAL] = Node(NodeKind.CLINICAL, True, clinical)

    edges: list[Edge] = []
    for k in present:
        offset = np.clip((cents[k] - global_cent) / offset_scale, -1.0, 1.0)
        edges.append(Edge(NodeKind.GLOBAL_CT, k, EdgeKind.SPATIAL_TOPOLOGY, offset))
    for k in present:
        edges.append(Edge(NodeKind.CLINICAL, k, EdgeKind.CLINICAL_CONTEXT,
                          np.zeros(EDGE_ATTR_DIM)))

    return PatientGraph(patient_id=patient_id, nodes=nodes, edges=edges)


def validate_graph(graph: PatientGraph) -> list[str]:
    """Check every structural invariant; returns one message per breach."""
    violations: list[str] = []
    if not graph.is_present(NodeKind.GLOBAL_CT):
        violations.append("global ct node absent")
    if not graph.is_present(NodeKind.CLINICAL):
        violations.append("clinical node absent")
    if not any(graph.is_present(k) for k in ANATOMICAL_KINDS):
        violations.append("no anatomical region nodes present")

    for kind in graph.order:
        node = graph.nodes.get(kind)
        if node is None or not node.present:
            violations.append(f"order lists absent node {kind.value}")
            continue
        if node.features is None or not np.isfinite(node.features).all():
            violations.append(f"{kind.value}: missing or non-finite features")
        if kind in ANATOMICAL_KINDS or kind is NodeKind.GLOBAL_CT:
            if node.centroid is None or node.centroid.shape != (3,):
                violations.append(f"{kind.value}: missing centroid")

    spatial: dict[NodeKind, int] = {}
    context: dict[NodeKind, int] = {}
    for e in graph.edges:
        if not (graph.is_present(e.source) and graph.is_present(e.target)):
            violations.append(f"dangling edge {e.source.value}->{e.target.value}")
            continue
        if e.attr.shape != (EDGE_ATTR_DIM,) or not np.isfinite(e.attr).all():
            violations.append(f"edge {e.source.value}->{e.target.value}: bad attr")
        elif np.abs(e.attr).max() > 1.0 + 1e-12:
            violations.append(f"edge {e.source.value}->{e.target.value}: offset outside [-1,1]")
        if e.kind is EdgeKind.SPATIAL_TOPOLOGY:
            if e.source is not NodeKind.GLOBAL_CT or e.target not in ANATOMICAL_KINDS:
                violations.append("spatial edge not between global ct and a region")
            else:
                spatial[e.target] = spatial.get(e.target, 0) + 1
        else:
            if e.source is not NodeKind.CLINICAL or e.target not in ANATOMICAL_KINDS:
                violations.append("context edge not between clinical and a region")
            else:
                context[e.target] = context.get(e.target, 0) + 1

    for k in ANATOMICAL_KINDS:
        if not graph.is_present(k):
            continue
        if spatial.get(k, 0) != 1:
            violations.append(f"{k.value}: expected exactly one spatial edge, got {spatial.get(k, 0)}")
        if context.get(k, 0) != 1:
            violations.append(f"{k.value}: expected exactly one context edge, got {context.get(k, 0)}")
    return violations


@dataclass
class EmbeddingParams:
    """Per-kind affine projections into the shared latent width d."""

    weights: dict[NodeKind, Tensor]
    biases: dict[NodeKind, Tensor]

    @property
    def hidden_dim(self) -> int:
        return next(iter(self.weights.values())).cols

    def named_leaves(self) -> list[tuple[str, Tensor]]:
        out = []
        for k in self.weights:
            out.append((f"embed.{k.value}.w", self.weights[k]))
            out.append((f"embed.{k.value}.b", self.biases[k]))
        return out


def init_embedding(feature_widths: dict[NodeKind, int], hidden_dim: int,
                   rng: np.random.Generator) -> EmbeddingParams:
    from .evolution import uniform_weight  # shared init convention
    weights, biases = {}, {}
    for kind in NodeKind:
        if kind not in feature_widths:
            continue
        weights[kind] = uniform_weight(rng, feature_widths[kind], hidden_dim,
                                       f"embed.{kind.value}.w")
        biases[kind] = ad.parameter(np.zeros((1, hidden_dim)), name=f"embed.{kind.value}.b")
    return EmbeddingParams(weights, biases)


def mean_pool(sizes) -> SparseRows:
    """Readout operator: row b averages the `sizes[b]` consecutive node rows of graph b."""
    sizes = np.asarray(sizes, dtype=np.intp)
    rows = np.repeat(np.arange(sizes.size), sizes)
    return SparseRows(rows, np.arange(rows.size), 1.0 / sizes[rows],
                      (sizes.size, rows.size))


@dataclass
class GraphBatch:
    """B patient graphs as one disjoint union.

    Node rows are graph by graph, each graph's rows in its `order`. Arcs are
    sorted by target row. `kinds` maps each node kind to its placement (node
    rows x nodes of that kind) and the stacked raw features of those nodes.
    `operators` holds adjacency operators, built once per backbone.
    """

    n_nodes: int
    kinds: dict[NodeKind, tuple[SparseRows, np.ndarray]]
    src: np.ndarray
    dst: np.ndarray
    attr: np.ndarray
    pool: SparseRows
    operators: dict = field(default_factory=dict)


def batch_graphs(graphs: Sequence[PatientGraph]) -> GraphBatch:
    """Concatenate each graph's cached arc arrays with its row offset."""
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.intp)
    offsets = np.cumsum(sizes) - sizes
    arcs = [g.arc_arrays() for g in graphs]
    rows: dict[NodeKind, list[int]] = {}
    feats: dict[NodeKind, list[np.ndarray]] = {}
    for g, off in zip(graphs, offsets):
        for local, kind in enumerate(g.order):
            rows.setdefault(kind, []).append(off + local)
            feats.setdefault(kind, []).append(g.nodes[kind].features)
    n = int(sizes.sum())
    kinds = {kind: (SparseRows(r, np.arange(len(r)), 1.0, (n, len(r))), np.stack(feats[kind]))
             for kind, r in rows.items()}
    return GraphBatch(
        n_nodes=n, kinds=kinds,
        src=np.concatenate([src + off for (src, _, _), off in zip(arcs, offsets)]),
        dst=np.concatenate([dst + off for (_, dst, _), off in zip(arcs, offsets)]),
        attr=np.concatenate([attr for _, _, attr in arcs]),
        pool=mean_pool(sizes))


def embed_nodes(batch: GraphBatch, params: EmbeddingParams) -> Tensor:
    """Initial node-state matrix H0: each kind's rows projected, then placed."""
    h0 = None
    for kind in NodeKind:
        if kind not in batch.kinds:
            continue
        if kind not in params.weights:
            raise KeyError(f"no embedding projection for present node kind {kind.value}")
        place, x = batch.kinds[kind]
        w = params.weights[kind]
        if x.shape[1] != w.rows:
            raise GraphConstructionError(
                f"{kind.value} features have width {x.shape[1]}, the model expects {w.rows}")
        rows = ad.add(ad.matmul(ad.constant(x), w), params.biases[kind])
        placed = ad.spmm(place, rows)
        h0 = placed if h0 is None else ad.add(h0, placed)
    return h0
