"""Patient graphs as fixed 7-slot stars, batched as per-patient dense blocks.

Every patient graph follows one star template with a slot per `NodeKind`:
five anatomical regions, each present or missing, the whole-scan summary
node GLOBAL_CT and the clinical node. Each present region is linked to
GLOBAL_CT by a spatial edge carrying its normalised centroid offset, and to
CLINICAL by a context edge with a zero offset; message passing runs over the
directed arcs of these edges, two per edge, the reverse arc with its offset
negated. A missing region has no edge.

A batch of B patients holds 7 node rows per patient, patient by patient and
each patient's rows in `NodeKind` order. A missing region's row is a padding
row: it starts at zero, and every operator has a zero row and column for it
and the readout a zero weight, so it never reaches an output or a gradient.
Each operator is an `autodiff.Blocks` stack of B per-patient dense blocks:
here the kind placements (B, 7, 1) and the readout (B, 1, 7), in
`evolution.adjacency` each backbone's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Blocks, Tensor


class NodeKind(Enum):
    LIVER_PARENCHYMA = "liver_parenchyma"
    FUTURE_LIVER_REMNANT = "future_liver_remnant"
    HEPATIC_VEINS = "hepatic_veins"
    PORTAL_VEINS = "portal_veins"
    METASTATIC_TUMORS = "metastatic_tumors"
    GLOBAL_CT = "global_ct"
    CLINICAL = "clinical"


ANATOMICAL_KINDS: tuple[NodeKind, ...] = (
    NodeKind.LIVER_PARENCHYMA,
    NodeKind.FUTURE_LIVER_REMNANT,
    NodeKind.HEPATIC_VEINS,
    NodeKind.PORTAL_VEINS,
    NodeKind.METASTATIC_TUMORS,
)

SLOTS = len(NodeKind)
GLOBAL_SLOT = 5
CLINICAL_SLOT = 6

EDGE_ATTR_DIM = 3

# Millimetre-scale centroid differences divided by this stay O(1) before the
# [-1, 1] clamp.
DEFAULT_OFFSET_SCALE = 100.0


class GraphConstructionError(ValueError):
    """Patient features that do not fit the model's node projections."""


@dataclass
class EmbeddingParams:
    """Per-kind affine projections into the shared latent width d."""

    weights: dict[NodeKind, Tensor]
    biases: dict[NodeKind, Tensor]

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


@dataclass
class GraphBatch:
    """B patients in the 7-slot layout.

    `slots` (B, 7) marks the node rows in use: the present regions and both
    hubs. `offsets` (B, 5, 3) holds each region's spatial offset. `kinds`
    maps each node kind to its placement and the (B, width) raw features of
    that slot. `pool` averages each patient's rows in use. `operators` holds
    each backbone's blocks, built once per batch by `evolution.adjacency`.
    """

    slots: np.ndarray
    offsets: np.ndarray
    kinds: dict[NodeKind, tuple[Blocks, np.ndarray]]
    pool: Blocks
    operators: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.slots.shape[0]


def star_batch(regions: np.ndarray, present: np.ndarray, offsets: np.ndarray,
               global_features: np.ndarray, clinical: np.ndarray) -> GraphBatch:
    """The batch of B patients from their region features (B, 5, L), region
    presence (B, 5), offsets (B, 5, 3), summary features (B, L) and clinical
    features (B, C)."""
    count = present.shape[0]
    slots = np.concatenate([present, np.ones((count, 2), dtype=bool)], axis=1)
    inputs = [regions[:, j] for j in range(len(ANATOMICAL_KINDS))] + [global_features, clinical]
    kinds = {}
    for j, (kind, x) in enumerate(zip(NodeKind, inputs)):
        place = np.zeros((count, SLOTS, 1))
        place[:, j, 0] = slots[:, j]
        kinds[kind] = (Blocks(place), x)
    pool = slots / slots.sum(axis=1, keepdims=True)
    return GraphBatch(slots=slots, offsets=offsets, kinds=kinds, pool=Blocks(pool[:, None, :]))


def embed_nodes(batch: GraphBatch, params: EmbeddingParams) -> Tensor:
    """Initial node-state matrix H0: each kind's rows projected, then placed."""
    h0 = None
    for kind, (place, x) in batch.kinds.items():
        if kind not in params.weights:
            raise KeyError(f"no embedding projection for node kind {kind.value}")
        w = params.weights[kind]
        if x.shape[1] != w.rows:
            raise GraphConstructionError(
                f"{kind.value} features have width {x.shape[1]}, the model expects {w.rows}")
        rows = ad.add(ad.matmul(ad.constant(x), w), params.biases[kind])
        placed = ad.spmm(place, rows)
        h0 = placed if h0 is None else ad.add(h0, placed)
    return h0
