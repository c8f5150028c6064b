"""Patient graphs as fixed 7-slot stars, and the embedding of their nodes.

Every patient graph follows one star template with a slot per `NodeKind`:
five anatomical regions, each present or missing, the whole-scan summary
node GLOBAL_CT and the clinical node. Each present region is linked to
GLOBAL_CT by a spatial edge carrying its normalised centroid offset, and to
CLINICAL by a context edge with a zero offset; message passing runs over the
directed arcs of these edges, two per edge, the reverse arc with its offset
negated. A missing region has no edge.

The model reads a cohort slice of B patients (`cohort.CohortArrays`) as it
is. Its node states hold 7 rows per patient, patient by patient and each
patient's rows in `NodeKind` order; `slots_in_use` marks the rows in use
from the region presence. A missing region's row is a padding row: it
starts at zero, and every operator has a zero row and column for it and the
readout a zero weight, so it never reaches an output or a gradient. The
operators are built once per forward by `evolution.adjacency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .autodiff import uniform_weight, zero_bias


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

    weights: dict[NodeKind, np.ndarray]
    biases: dict[NodeKind, np.ndarray]

    def named_leaves(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for k in self.weights:
            out.append((f"embed.{k.value}.w", self.weights[k]))
            out.append((f"embed.{k.value}.b", self.biases[k]))
        return out


def init_embedding(feature_widths: dict[NodeKind, int], hidden_dim: int,
                   rng: np.random.Generator) -> EmbeddingParams:
    weights, biases = {}, {}
    for kind in NodeKind:
        weights[kind] = uniform_weight(rng, feature_widths[kind], hidden_dim)
        biases[kind] = zero_bias(hidden_dim)
    return EmbeddingParams(weights, biases)


def slots_in_use(present: np.ndarray) -> np.ndarray:
    """(B, 7) the node rows in use, from the region presence (B, 5): the
    present regions and both hubs."""
    return np.concatenate([present, np.ones((present.shape[0], 2), dtype=bool)], axis=1)


def _inputs(cohort) -> list[np.ndarray]:
    """The (B, width) features of each kind, in `NodeKind` order."""
    return ([cohort.regions[:, j] for j in range(len(ANATOMICAL_KINDS))]
            + [cohort.global_features, cohort.clinical])


def embed_nodes(cohort, params: EmbeddingParams) -> np.ndarray:
    """Initial node-state matrix H0 of a cohort slice (`cohort.CohortArrays`).

    Each kind's (B, d) rows are projected, the seven are joined side by side
    and reshaped to (7B, d), which puts kind j of patient b at row 7b + j,
    and the rows of missing regions are zeroed.
    """
    rows = []
    for kind, x in zip(NodeKind, _inputs(cohort)):
        w = params.weights[kind]
        if x.shape[1] != w.shape[0]:
            raise GraphConstructionError(
                f"{kind.value} features have width {x.shape[1]}, the model expects {w.shape[0]}")
        rows.append(x @ w + params.biases[kind])
    h0 = np.concatenate(rows, axis=1).reshape(SLOTS * len(cohort), -1)
    return h0 * slots_in_use(cohort.present).reshape(-1, 1)


def embed_backward(cohort, dh0: np.ndarray, grads: EmbeddingParams) -> None:
    """Write the gradient of each `embed.*` parameter into its zeroed array
    in `grads`, from the gradient dH0 of `embed_nodes`' output. The rows of
    missing regions get none."""
    g = (dh0 * slots_in_use(cohort.present).reshape(-1, 1)).reshape(len(cohort), -1)
    d = dh0.shape[1]
    for j, (kind, x) in enumerate(zip(NodeKind, _inputs(cohort))):
        g_kind = g[:, j * d:(j + 1) * d]
        np.matmul(x.T, g_kind, out=grads.weights[kind])
        g_kind.sum(axis=0, keepdims=True, out=grads.biases[kind])
