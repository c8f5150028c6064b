"""Run configuration: one strict JSON document drives every subcommand.

Unknown keys are rejected outright; a silently ignored typo in a
hyperparameter name is the costliest failure mode a config system can have.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import get_type_hints

from .cohort import Scenario
from .model import ModelConfig, check, shown, typed_value
from .objective import TrainSettings


class ConfigError(ValueError):
    """Invalid, unknown, or out-of-range configuration entry."""


# Upper bounds on sizes, so that a mistyped 10^9 is a config error rather
# than hours of allocation (`ModelConfig` bounds the model's own sizes).
MAX_PATIENTS = 100_000
MAX_REPEATS = 100
MAX_BOOTSTRAP = 100_000


@dataclass(frozen=True)
class EvalSettings:
    tau: float | None = None          # None: min(5, last bin edge)
    bootstrap_b: int = 1000
    level: float = 0.95

    def __post_init__(self):
        check([
            (self.tau is None or self.tau > 0, "eval.tau must be positive"),
            (100 <= self.bootstrap_b <= MAX_BOOTSTRAP,
             f"eval.bootstrap_b must be in [100, {MAX_BOOTSTRAP}]"),
            (0 < self.level < 1, "eval.level must be in (0,1)"),
        ])

    def resolve_tau(self, bins) -> float:
        """The IBS horizon on `bins`: tau, by default min(5, the last bin edge).
        A tau past the last bin edge is a ConfigError."""
        if self.tau is None:
            return min(5.0, bins.horizon)
        if self.tau > bins.horizon:
            raise ConfigError(f"eval.tau must be at most the last bin edge, {bins.horizon:g}")
        return self.tau


@dataclass(frozen=True)
class Paths:
    cohort: str | None = None
    output_dir: str = "out"
    model: str | None = None


@dataclass(frozen=True)
class SimulateSettings(Scenario):
    """The simulator's `Scenario`, with the cohort size and its seed."""

    n: int = 400
    seed: int | None = None           # None: fall back to train.seed

    def __post_init__(self):
        check([
            (10 <= self.n <= MAX_PATIENTS, f"simulate.n must be in [10, {MAX_PATIENTS}]"),
            (self.seed is None or self.seed >= 0, "simulate.seed must be >= 0"),
        ])
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ValueError(f"simulate: {exc}") from exc


@dataclass(frozen=True)
class CvSettings:
    k: int = 5
    repeats: int = 3

    def __post_init__(self):
        check([
            (self.k >= 2, "cv.k must be >= 2"),
            (1 <= self.repeats <= MAX_REPEATS, f"cv.repeats must be in [1, {MAX_REPEATS}]"),
        ])


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    paths: Paths = field(default_factory=Paths)
    simulate: SimulateSettings = field(default_factory=SimulateSettings)
    cv: CvSettings = field(default_factory=CvSettings)

    def __post_init__(self):
        self.eval.resolve_tau(self.model.bins())


_MODEL_KEYS = {
    "backbone": "backbone", "d": "hidden_dim", "d_t": "time_dim", "d_h": "summary_dim",
    "d_c": "context_dim", "T": "horizon", "K": "num_bins", "bin_edges": "bin_edges",
    "message_dim": "message_dim", "attention_dim": "attention_dim",
    "cascade": "cascade", "integrator": "integrator",
}


def _build_section(name: str, cls, data: dict, key_map: dict[str, str] | None = None):
    """`cls` from the section; a wrong type or a value `cls` rejects is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be an object")
    hints = get_type_hints(cls)
    rename = key_map or {}
    kwargs = {}
    for key, value in data.items():
        target = rename.get(key, key)
        if target not in hints or (key_map is not None and key not in key_map):
            raise ConfigError(f"unknown key {name}.{shown(key)}")
        try:
            kwargs[target] = typed_value(f"{name}.{key}", value, hints[target])
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    classes = get_type_hints(RunConfig)
    unknown = set(doc) - set(classes)
    if unknown:
        raise ConfigError(f"unknown config sections: {shown(repr(sorted(unknown)))}")
    sections = {name: _build_section(name, cls, doc.get(name, {}),
                                     _MODEL_KEYS if name == "model" else None)
                for name, cls in classes.items()}
    try:
        return RunConfig(**sections)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError: bad JSON or UTF-8, or an integer too long to convert;
    # RecursionError: arrays or objects nested too deep.
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    """Echo of the effective configuration using the config-file key names."""
    doc = asdict(cfg)
    inverse = {v: k for k, v in _MODEL_KEYS.items()}
    doc["model"] = {inverse[k]: v for k, v in doc["model"].items()}
    if doc["model"]["bin_edges"] is not None:
        doc["model"]["bin_edges"] = list(doc["model"]["bin_edges"])
    return doc
