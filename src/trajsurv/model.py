"""Full prognostic model: embedding -> evolution -> integrator -> heads.

The forward pass reads a cohort slice (`cohort.CohortArrays`) as it is,
handing each stage a plain array: the node states H0 in the 7-slot layout,
the (T, B, d) snapshots, the summary h*, and the logits keyed by task. h*
and the logits have one row per patient, and one patient is simply a slice
of one. Training, validation, inference and the gradient check run the
same forward, which with `keep` leaves what `FullModel.backward` needs in
the model's `workspace`. T is the row count of the evolution's time table.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import zipfile
from dataclasses import dataclass
from types import UnionType
from typing import TYPE_CHECKING, get_args, get_origin, get_type_hints

import numpy as np

from .autodiff import map_arrays
from .evolution import BACKBONES, EvolutionParams, evolve, evolve_backward, init_evolution
from .graph import EmbeddingParams, NodeKind, embed_backward, embed_nodes, init_embedding
from .heads import (HeadParams, TimeBins, annual_bins, dfs_head, hazards_from_logits,
                    heads_backward, init_heads, os_head, survival_from_hazards)
from .trajectory import (LstmParams, init_lstm, integrate, integrate_backward, integrate_mean,
                         integrate_mean_backward)

if TYPE_CHECKING:
    from .cohort import CohortArrays

INTEGRATORS = ("lstm", "mean")

# Upper bounds on sizes, so that a mistyped 10^9 is rejected before anything
# is allocated: each model width, and the step and bin counts.
MAX_WIDTH = 1024
MAX_STEPS = 256

# The most characters of an input value that an error message quotes, and
# the most mismatched parameter arrays that `load_model`'s message lists.
MAX_SHOWN = 200
MAX_LISTED = 5


def shown(text: str) -> str:
    """`text`, an input value as an error message quotes it: whole up to
    `MAX_SHOWN` characters, else its start and the count of the rest, so
    that the message stays one short line whatever the input holds."""
    if len(text) <= MAX_SHOWN:
        return text
    return f"{text[:MAX_SHOWN]}... ({len(text) - MAX_SHOWN} more characters)"


def check(rules) -> None:
    """Raise ValueError with the message of the first (ok, message) rule that fails."""
    for ok, message in rules:
        if not ok:
            raise ValueError(message)


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

    def __post_init__(self):
        # Messages name the config-file keys; a model file reports the same.
        widths = (self.hidden_dim, self.time_dim, self.summary_dim, self.context_dim,
                  self.message_dim, self.attention_dim)
        check([
            (self.backbone in BACKBONES, f"model.backbone must be one of {BACKBONES}"),
            (self.integrator in INTEGRATORS, f"model.integrator must be one of {INTEGRATORS}"),
            (all(1 <= w <= MAX_WIDTH for w in widths),
             f"model.d, d_t, d_h, d_c, message_dim and attention_dim must be in [1, {MAX_WIDTH}]"),
            (1 <= self.horizon <= MAX_STEPS, f"model.T must be in [1, {MAX_STEPS}]"),
            (1 <= self.num_bins <= MAX_STEPS, f"model.K must be in [1, {MAX_STEPS}]"),
            (self.bin_edges is None or len(self.bin_edges) == self.num_bins + 1,
             "model.bin_edges must hold model.K + 1 edges"),
        ])
        try:
            self.bins()
        except ValueError as exc:
            raise ValueError(f"model.bin_edges: {exc}") from exc

    def bins(self) -> TimeBins:
        if self.bin_edges is not None:
            return TimeBins(np.array(self.bin_edges))
        return annual_bins(self.num_bins)


def typed_value(key: str, value, hint):
    """`value` as a field annotated `hint`, or a TypeError naming `key`: int and
    bool take exactly that type, float also takes int but nothing non-finite,
    and a float tuple is a list, returned as a tuple of floats."""
    options = get_args(hint) if get_origin(hint) is UnionType else (hint,)
    if value is None and type(None) in options:
        return None
    hint = next(h for h in options if h is not type(None))
    if get_origin(hint) is tuple:
        if type(value) is not list:
            raise TypeError(f"{key} must be a list of numbers, got {shown(repr(value))}")
        return tuple(float(typed_value(key, v, float)) for v in value)
    ok = (abs(value) <= sys.float_info.max if hint is float and type(value) in (int, float)
          else type(value) is hint)
    if not ok:
        raise TypeError(f"{key} must be {'a finite number' if hint is float else hint.__name__}"
                        f", got {shown(repr(value))}")
    return value


@dataclass
class FullModel:
    """The stages' parameters, every array a view of one float64 vector
    `theta`, and their gradient `grad`, a second vector laid out as theta.
    `lstm` is None for the mean integrator, and the heads hold no context
    weights without the cascade; forward and backward follow that structure.
    Construction copies the arrays it is given into a fresh theta, in
    storage order: field by field (a dict field key by key), the LSTM's
    gate stacks whole; it builds the stages' views of grad once, and
    `backward` writes through them. AdamW, the best-epoch snapshot and its
    restore each act on theta as one vector."""

    config: ModelConfig
    embedding: EmbeddingParams
    evolution: EvolutionParams
    lstm: LstmParams | None
    heads: HeadParams
    theta: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    grad: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    grad_stages: tuple = dataclasses.field(init=False, repr=False, compare=False)
    workspace: dict = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.workspace = {}
        given = self.named_parameters()
        self.theta = np.empty(sum(a.size for _, a in given))
        self.grad = np.zeros_like(self.theta)
        self.embedding, self.evolution, self.lstm, self.heads = self.stage_views(self.theta)
        self.grad_stages = self.stage_views(self.grad)
        for (_, view), (_, a) in zip(self.named_parameters(), given):
            view[...] = a

    def __reduce__(self):
        """Pickling and `copy.deepcopy` rebuild the model through the constructor,
        so the copy's parameters and gradient are views of its own two vectors,
        and its `workspace` is its own, empty."""
        return FullModel, (self.config, self.embedding, self.evolution, self.lstm, self.heads)

    def stage_views(self, vec: np.ndarray) -> tuple[EmbeddingParams, EvolutionParams,
                                                    LstmParams | None, HeadParams]:
        """The four stages' parameters as views of `vec`, a vector of
        theta's size, each array at its place in theta; a stage the model
        does not build stays None."""
        start = 0

        def view(a: np.ndarray) -> np.ndarray:
            nonlocal start
            start += a.size
            return vec[start - a.size:start].reshape(a.shape)
        return tuple(None if stage is None else map_arrays(stage, view)
                     for stage in (self.embedding, self.evolution, self.lstm, self.heads))

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        return _named((self.embedding, self.evolution, self.lstm, self.heads))

    def named_gradients(self) -> list[tuple[str, np.ndarray]]:
        """The views of `grad` by parameter name, in `named_parameters` order."""
        return _named(self.grad_stages)

    def forward(self, cohort: CohortArrays, keep: bool = False):
        """The slice's (B, K) logits per task, keyed like `labels`. With
        `keep`, it leaves what `backward` needs in `workspace`: the
        evolution's and LSTM's arrays as its buffers (`autodiff.slot`), the
        rest under `"kept"`."""
        self.workspace.pop("kept", None)
        out = self.workspace if keep else None
        h0 = embed_nodes(cohort, self.embedding)
        snapshots, evolved = evolve(h0, cohort, self.evolution, out)
        h_star, integrated = ((integrate_mean(snapshots), None) if self.lstm is None
                              else integrate(snapshots, self.lstm, out))
        dfs_logits, context = dfs_head(h_star, self.heads)
        os_logits = os_head(h_star, context, self.heads)
        if keep:
            self.workspace["kept"] = {"cohort": cohort, "evolve": evolved, "lstm": integrated,
                                      "h_star": h_star, "context": context}
        return {"dfs": dfs_logits, "os": os_logits}

    def backward(self, d_logits: dict[str, np.ndarray]) -> None:
        """Write the gradient of theta into `grad` from the gradients of the
        logits per task and what the last forward kept, which it takes out of
        `workspace` (a KeyError if it kept nothing). `grad` is zeroed, each
        stage's backward writes its views of it, and each stage's state is
        dropped once its backward has run, the LSTM's before the evolution's."""
        kept = self.workspace.pop("kept")
        self.grad[...] = 0.0
        embedding, evolution, lstm, heads = self.grad_stages
        dh_star = heads_backward(kept.pop("h_star"), kept.pop("context"), self.heads,
                                 d_logits["dfs"], d_logits["os"], heads)
        if self.lstm is None:
            dz = integrate_mean_backward(dh_star, len(self.evolution.time_table))
        else:
            dz = integrate_backward(kept.pop("lstm"), dh_star, lstm)
        dh0 = evolve_backward(kept.pop("evolve"), dz, evolution)
        embed_backward(kept.pop("cohort"), dh0, embedding)

    def predict_curves(self, cohort: CohortArrays) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per task, the slice's (B, K) hazards and survival, checked once.
        Logits that overflow are reported once, by the SaturatedCurveError of
        that check, not also by numpy's warnings on the way."""
        with np.errstate(all="ignore"):
            out = self.forward(cohort)
        curves = {}
        for task, logits in out.items():
            h = hazards_from_logits(logits)
            curves[task] = (h, survival_from_hazards(h))
        return curves


def _named(stages) -> list[tuple[str, np.ndarray]]:
    """The arrays of the stages by parameter name: the model file's names."""
    return [pair for stage in stages if stage is not None for pair in stage.named_leaves()]


def init_model(config: ModelConfig, feature_widths: dict[NodeKind, int],
               rng: np.random.Generator) -> FullModel:
    """Build a model with freshly initialized parameters, drawn stage by
    stage in storage order. Only here does the config decide which stages
    exist: the LSTM for the `lstm` integrator alone, and the heads' context
    projection with the cascade alone. The heads see the LSTM's summary_dim,
    or without it the snapshot width (hidden_dim).
    """
    embedding = init_embedding(feature_widths, config.hidden_dim, rng)
    evolution = init_evolution(config.backbone, config.hidden_dim, config.time_dim,
                               config.horizon, config.message_dim, rng,
                               attention_dim=config.attention_dim)
    lstm = (init_lstm(config.hidden_dim, config.summary_dim, rng)
            if config.integrator == "lstm" else None)
    heads = init_heads(config.hidden_dim if lstm is None else config.summary_dim,
                       config.context_dim if config.cascade else None, config.num_bins, rng)
    # The draws above fix the values; `FullModel` copies them into theta.
    return FullModel(config=config, embedding=embedding, evolution=evolution,
                     lstm=lstm, heads=heads)


FORMAT_VERSION = 1


def save_model(model: FullModel, path) -> None:
    """Persist weights and the architecture needed to rebuild them."""
    meta = {"format_version": FORMAT_VERSION, **dataclasses.asdict(model.config)}
    meta["feature_widths"] = {k.value: int(w.shape[0]) for k, w in model.embedding.weights.items()}
    arrays = dict(model.named_parameters())
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)


class ModelFileError(ValueError):
    """A model file that cannot be read or describes an unsupported model."""


_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _read_npz(path) -> dict[str, np.ndarray]:
    """The arrays of the `.npz` archive at `path` by name, as `np.savez`
    writes them: every member stored, not compressed, in `.npy` format 1.0
    or 2.0. A member whose header declares more bytes than the member holds
    is rejected before its data is read, so no header makes it allocate
    more than the file holds."""
    arrays = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"member {shown(info.filename)} is compressed")
            with archive.open(info) as fh:
                version = np.lib.format.read_magic(fh)
                if version not in _NPY_HEADERS:
                    raise ValueError(f"member {shown(info.filename)} has .npy version {version}")
                shape, _, dtype = _NPY_HEADERS[version](fh)
                declared = math.prod(shape) * dtype.itemsize
                if declared > info.file_size - fh.tell():
                    raise ValueError(f"member {shown(info.filename)} declares {declared} bytes of "
                                     f"data and holds {info.file_size - fh.tell()}")
                fh.seek(0)
                arrays[info.filename.removesuffix(".npy")] = np.lib.format.read_array(fh)
    return arrays


def load_model(path) -> FullModel:
    """Rebuild a model written by `save_model`.

    A file without `format_version` predates the field and reads as version
    1; any other version is rejected. A field this version does not know is
    accepted only when it is false: a switch removed at its off default, as
    older files carry. Any other value would describe a model this version
    cannot build, so it is rejected. Every field must have its annotated
    type and pass `ModelConfig`'s checks, and every node kind must have a
    feature width that matches the shape of its embedding array, before
    anything is built. The parameter arrays must then match the model's
    names and shapes exactly and hold finite numbers.
    """
    try:
        arrays = _read_npz(path)
        meta = json.loads(bytes(arrays.pop("__meta__")).decode())
    # RuntimeError: zipfile's for an encrypted or patched member, and json's
    # RecursionError for metadata nested too deep.
    except (OSError, EOFError, ValueError, KeyError, RuntimeError, zipfile.BadZipFile) as exc:
        raise ModelFileError(f"{path}: not a readable model file ({exc})") from exc
    if not isinstance(meta, dict):
        raise ModelFileError(f"{path}: not a readable model file (metadata is not an object)")
    version = meta.pop("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModelFileError(f"{path}: unsupported format_version {shown(repr(version))} "
                             f"(this version reads {FORMAT_VERSION})")
    names = {f.name for f in dataclasses.fields(ModelConfig)}
    unsupported = {k: v for k, v in meta.items()
                   if k not in names | {"feature_widths"} and v is not False}
    if unsupported:
        raise ModelFileError(f"{path}: unsupported model fields {shown(repr(unsupported))}")
    try:
        hints = get_type_hints(ModelConfig)
        cfg = ModelConfig(**{k: typed_value(k, meta[k], hints[k]) for k in names})
        kinds, widths = {kind.value: kind for kind in NodeKind}, {}
        for k, v in typed_value("feature_widths", meta["feature_widths"], dict).items():
            check([(k in kinds, f"{shown(repr(k))} is not a valid NodeKind")])
            widths[kinds[k]] = typed_value(f"feature_widths.{k}", v, int)
        missing = ", ".join(k.value for k in NodeKind if k not in widths)
        check([(not missing, f"feature_widths must name every node kind; it lacks {missing}")])
        for kind, width in widths.items():
            name = f"embed.{kind.value}.w"
            found = arrays[name].shape if name in arrays else "none"
            if found != (width, cfg.hidden_dim):
                width = shown(str(width))
                raise ValueError(f"feature_widths.{kind.value} is {width}, so {name} must be "
                                 f"({width}, {cfg.hidden_dim}); the file has {found}")
        model = init_model(cfg, widths, np.random.default_rng(0))
        shapes = {name: leaf.shape for name, leaf in model.named_parameters()}
        found = {k: a.shape for k, a in arrays.items()}
        if found != shapes:
            wrong = sorted(k for k in shapes.keys() | found.keys() if found.get(k) != shapes.get(k))
            more = f", and {len(wrong) - MAX_LISTED} more" if len(wrong) > MAX_LISTED else ""
            raise ValueError("parameter arrays do not match the model: " + ", ".join(
                f"{shown(k)} {found.get(k, 'missing')} (expects {shapes.get(k, 'none')})"
                for k in wrong[:MAX_LISTED]) + more)
        for name, leaf in model.named_parameters():
            if arrays[name].dtype.kind not in "fiu" or not np.isfinite(arrays[name]).all():
                raise ValueError(f"parameter {name} must hold finite numbers")
            leaf[:] = arrays[name]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: not a readable model file "
                             f"({type(exc).__name__}: {exc})") from exc
    return model
