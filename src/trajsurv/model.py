"""Full prognostic model: embedding -> evolution -> integrator -> heads.

The forward pass runs a `GraphBatch` of patients in the 7-slot layout on
one tape; every output has one row per patient, and one patient is simply a
batch of one.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .evolution import EvolutionParams, TrajectorySnapshots, evolve, init_evolution
from .graph import EmbeddingParams, GraphBatch, NodeKind, embed_nodes, init_embedding
from .heads import (HazardCurve, HeadParams, SurvivalCurve, TimeBins, annual_bins,
                    dfs_head, hazards_from_logits, init_heads, os_head,
                    survival_from_hazards)
from .trajectory import LstmParams, init_lstm, integrate, integrate_mean

INTEGRATORS = ("lstm", "mean")


@dataclass(frozen=True)
class ModelConfig:
    backbone: str = "graphsage"
    hidden_dim: int = 32          # d
    time_dim: int = 16            # d_t
    summary_dim: int = 32         # d_h
    context_dim: int = 16         # d_c
    horizon: int = 12             # T
    num_bins: int = 12            # K
    bin_edges: tuple[float, ...] | None = None
    message_dim: int = 32
    attention_dim: int = 16
    cascade: bool = True
    integrator: str = "lstm"

    def bins(self) -> TimeBins:
        if self.bin_edges is not None:
            return TimeBins(np.array(self.bin_edges))
        return annual_bins(self.num_bins)


@dataclass
class ForwardResult:
    snapshots: TrajectorySnapshots
    h_star: Tensor
    dfs_logits: Tensor
    dfs_context: Tensor
    os_logits: Tensor
    dfs_hazards: Tensor
    os_hazards: Tensor


@dataclass
class FullModel:
    config: ModelConfig
    embedding: EmbeddingParams
    evolution: EvolutionParams
    lstm: LstmParams
    heads: HeadParams

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return (self.embedding.named_leaves() + self.evolution.named_leaves()
                + self.lstm.named_leaves() + self.heads.named_leaves())

    def forward(self, batch: GraphBatch) -> ForwardResult:
        cfg = self.config
        h0 = embed_nodes(batch, self.embedding)
        snapshots = evolve(h0, batch, self.evolution, cfg.horizon)
        if cfg.integrator == "lstm":
            h_star = integrate(snapshots, self.lstm)
        else:
            h_star = integrate_mean(snapshots)
        dfs_logits, context = dfs_head(h_star, self.heads)
        os_logits = os_head(h_star, context, self.heads, cascade_enabled=cfg.cascade)
        return ForwardResult(
            snapshots=snapshots,
            h_star=h_star,
            dfs_logits=dfs_logits,
            dfs_context=context,
            os_logits=os_logits,
            dfs_hazards=ad.sigmoid(dfs_logits),
            os_hazards=ad.sigmoid(os_logits),
        )

    def predict_curves(self, batch: GraphBatch
                       ) -> list[dict[str, tuple[HazardCurve, SurvivalCurve]]]:
        """Per patient, hazard and survival curves per task (monotonicity asserted)."""
        with ad.no_grad(p for _, p in self.named_parameters()):
            out = self.forward(batch)
        result = []
        for dfs, os_ in zip(out.dfs_logits.data, out.os_logits.data):
            curves = {}
            for task, logits in (("dfs", dfs), ("os", os_)):
                hc = hazards_from_logits(logits)
                curves[task] = (hc, survival_from_hazards(hc))
            result.append(curves)
        return result


def init_model(config: ModelConfig, feature_widths: dict[NodeKind, int],
               rng: np.random.Generator) -> FullModel:
    """Build a model with freshly initialized parameters.

    The integrator determines the summary width the heads see: the LSTM maps
    snapshots to summary_dim, while the mean integrator keeps the snapshot
    width (hidden_dim).
    """
    if config.integrator not in INTEGRATORS:
        raise ValueError(f"unknown integrator {config.integrator!r}")
    embedding = init_embedding(feature_widths, config.hidden_dim, rng)
    evolution = init_evolution(config.backbone, config.hidden_dim, config.time_dim,
                               max(config.horizon, 1), config.message_dim, rng,
                               attention_dim=config.attention_dim)
    lstm = init_lstm(config.hidden_dim, config.summary_dim, rng)
    head_input = config.summary_dim if config.integrator == "lstm" else config.hidden_dim
    heads = init_heads(head_input, config.context_dim, config.num_bins, rng)
    return FullModel(config=config, embedding=embedding, evolution=evolution,
                     lstm=lstm, heads=heads)


def snapshot_parameters(model: FullModel) -> dict[str, np.ndarray]:
    return {name: leaf.data.copy() for name, leaf in model.named_parameters()}


def restore_parameters(model: FullModel, snapshot: dict[str, np.ndarray]) -> None:
    for name, leaf in model.named_parameters():
        leaf.data[:] = snapshot[name]


FORMAT_VERSION = 1


def save_model(model: FullModel, path) -> None:
    """Persist weights and the architecture needed to rebuild them."""
    meta = {"format_version": FORMAT_VERSION, **dataclasses.asdict(model.config)}
    meta["feature_widths"] = {k.value: int(w.rows) for k, w in model.embedding.weights.items()}
    arrays = {name: leaf.data for name, leaf in model.named_parameters()}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)


class ModelFileError(ValueError):
    """A model file that cannot be read or describes an unsupported model."""


def load_model(path) -> FullModel:
    """Rebuild a model written by `save_model`.

    A file without `format_version` predates the field and reads as version
    1; any other version is rejected. A field this version does not know is
    accepted only when it is false: a switch removed at its off default, as
    older files carry. Any other value would describe a model this version
    cannot build, so it is rejected. The parameter arrays must match the
    model's names and shapes exactly.
    """
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ModelFileError(f"{path}: not a readable model file ({exc})") from exc
    if not isinstance(meta, dict):
        raise ModelFileError(f"{path}: not a readable model file (metadata is not an object)")
    version = meta.pop("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModelFileError(f"{path}: unsupported format_version {version!r} "
                             f"(this version reads {FORMAT_VERSION})")
    names = {f.name for f in dataclasses.fields(ModelConfig)}
    unsupported = {k: v for k, v in meta.items()
                   if k not in names | {"feature_widths"} and v is not False}
    if unsupported:
        raise ModelFileError(f"{path}: unsupported model fields {unsupported}")
    try:
        cfg = ModelConfig(**{k: meta[k] for k in names})
        if cfg.bin_edges is not None:
            cfg = dataclasses.replace(cfg, bin_edges=tuple(cfg.bin_edges))
        widths = {NodeKind(k): v for k, v in meta["feature_widths"].items()}
        model = init_model(cfg, widths, np.random.default_rng(0))
        shapes = {name: leaf.shape for name, leaf in model.named_parameters()}
        found = {k: a.shape for k, a in arrays.items()}
        if found != shapes:
            wrong = sorted(k for k in shapes.keys() | found.keys() if found.get(k) != shapes.get(k))
            raise ValueError("parameter arrays do not match the model: " + ", ".join(
                f"{k} {found.get(k, 'missing')} (expects {shapes.get(k, 'none')})" for k in wrong))
        for name, leaf in model.named_parameters():
            leaf.data[:] = arrays[name]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: not a readable model file "
                             f"({type(exc).__name__}: {exc})") from exc
    return model
