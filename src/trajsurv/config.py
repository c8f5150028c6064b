"""Run configuration: one strict JSON document drives every subcommand.

Unknown keys are rejected outright; a silently ignored typo in a
hyperparameter name is the costliest failure mode a config system can have.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import get_type_hints

from .cohort import Scenario
from .evolution import BACKBONES
from .model import INTEGRATORS, ModelConfig, typed_value
from .training import TrainSettings


class ConfigError(ValueError):
    """Invalid, unknown, or out-of-range configuration entry."""


# Upper bounds on sizes, so that a mistyped 10^9 is a config error rather
# than hours of allocation: each model width, the step and bin counts, the
# simulated cohort size and the number of cross-validation repeats.
MAX_WIDTH = 1024
MAX_STEPS = 256
MAX_PATIENTS = 100_000
MAX_REPEATS = 100


@dataclass(frozen=True)
class EvalSettings:
    horizons: tuple[float, ...] = (1.0, 3.0, 5.0)
    tau: float | None = None          # None: min(5, last bin edge)
    bootstrap_b: int = 1000
    level: float = 0.95

    def resolve_tau(self, bins) -> float:
        if self.tau is not None:
            return self.tau
        return min(5.0, bins.horizon)


@dataclass(frozen=True)
class Paths:
    cohort: str | None = None
    output_dir: str = "out"
    model: str | None = None


@dataclass(frozen=True)
class SimulateSettings:
    n: int = 400
    seed: int | None = None           # None: fall back to train.seed
    signal_strength: float = Scenario.signal_strength
    censoring_rate: float = Scenario.censoring_rate
    hazard_ratio: float = Scenario.hazard_ratio
    base_os_hazard: float = Scenario.base_os_hazard
    base_dfs_hazard: float = Scenario.base_dfs_hazard
    region_len: int = Scenario.region_len
    clinical_len: int = Scenario.clinical_len

    def scenario(self) -> Scenario:
        return Scenario(**{f.name: getattr(self, f.name) for f in fields(Scenario)})


@dataclass(frozen=True)
class CvSettings:
    k: int = 5
    repeats: int = 3


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    paths: Paths = field(default_factory=Paths)
    simulate: SimulateSettings = field(default_factory=SimulateSettings)
    cv: CvSettings = field(default_factory=CvSettings)


_MODEL_KEYS = {
    "backbone": "backbone", "d": "hidden_dim", "d_t": "time_dim", "d_h": "summary_dim",
    "d_c": "context_dim", "T": "horizon", "K": "num_bins", "bin_edges": "bin_edges",
    "message_dim": "message_dim", "attention_dim": "attention_dim",
    "cascade": "cascade", "integrator": "integrator",
}


def _build_section(name: str, cls, data: dict, key_map: dict[str, str] | None = None):
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be an object")
    hints = get_type_hints(cls)
    rename = key_map or {}
    kwargs = {}
    for key, value in data.items():
        target = rename.get(key, key)
        if target not in hints or (key_map is not None and key not in key_map):
            raise ConfigError(f"unknown key {name}.{key}")
        try:
            kwargs[target] = typed_value(f"{name}.{key}", value, hints[target])
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section {name!r}: {exc}") from exc


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = {"model", "train", "eval", "paths", "simulate", "cv"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    cfg = RunConfig(
        model=_build_section("model", ModelConfig, doc.get("model", {}), _MODEL_KEYS),
        train=_build_section("train", TrainSettings, doc.get("train", {})),
        eval=_build_section("eval", EvalSettings, doc.get("eval", {})),
        paths=_build_section("paths", Paths, doc.get("paths", {})),
        simulate=_build_section("simulate", SimulateSettings, doc.get("simulate", {})),
        cv=_build_section("cv", CvSettings, doc.get("cv", {})),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    m, t, e, cv = cfg.model, cfg.train, cfg.eval, cfg.cv
    checks = [
        (m.backbone in BACKBONES, f"model.backbone must be one of {BACKBONES}"),
        (m.integrator in INTEGRATORS, f"model.integrator must be one of {INTEGRATORS}"),
        (m.hidden_dim >= 1 and m.time_dim >= 1 and m.summary_dim >= 1
         and m.context_dim >= 1 and m.message_dim >= 1, "model dims must be >= 1"),
        (max(m.hidden_dim, m.time_dim, m.summary_dim, m.context_dim, m.message_dim,
             m.attention_dim) <= MAX_WIDTH,
         f"model.d, d_t, d_h, d_c, message_dim and attention_dim must be <= {MAX_WIDTH}"),
        (1 <= m.horizon <= MAX_STEPS, f"model.T must be in [1, {MAX_STEPS}]"),
        (1 <= m.num_bins <= MAX_STEPS, f"model.K must be in [1, {MAX_STEPS}]"),
        (t.lr > 0, "train.lr must be positive"),
        (t.batch_size >= 1, "train.batch_size must be >= 1"),
        (t.alpha >= 0 and t.beta >= 0 and t.alpha + t.beta > 0,
         "train.alpha/beta must be nonnegative, not both zero"),
        (t.max_epochs >= 1 and t.patience >= 1, "train epochs/patience must be >= 1"),
        (0 < t.scheduler_factor < 1, "train.scheduler_factor must be in (0,1)"),
        (t.scheduler_patience >= 1, "train.scheduler_patience must be >= 1"),
        (len(e.horizons) == 3 and all(h > 0 for h in e.horizons),
         "eval.horizons must be three positive values"),
        (e.bootstrap_b >= 100, "eval.bootstrap_b must be >= 100"),
        (0 < e.level < 1, "eval.level must be in (0,1)"),
        (cv.k >= 2 and cv.repeats >= 1, "cv.k must be >= 2 and cv.repeats >= 1"),
        (cv.repeats <= MAX_REPEATS, f"cv.repeats must be <= {MAX_REPEATS}"),
        (t.seed >= 0 and (cfg.simulate.seed or 0) >= 0,
         "train.seed and simulate.seed must be >= 0"),
        (m.bin_edges is None or len(m.bin_edges) == m.num_bins + 1,
         "model.bin_edges must hold model.K + 1 edges"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ConfigError(msg)
    try:
        bins = m.bins()
    except ValueError as exc:
        raise ConfigError(f"model.bin_edges: {exc}") from exc
    if e.tau is not None and not (0 < e.tau <= bins.horizon):
        raise ConfigError("eval.tau must lie in (0, last bin edge]")
    if not 10 <= cfg.simulate.n <= MAX_PATIENTS:
        raise ConfigError(f"simulate.n must be in [10, {MAX_PATIENTS}]")
    try:
        cfg.simulate.scenario()
    except ValueError as exc:
        raise ConfigError(f"simulate: {exc}") from exc


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    """Echo of the effective configuration using the config-file key names."""
    doc = asdict(cfg)
    inverse = {v: k for k, v in _MODEL_KEYS.items()}
    doc["model"] = {inverse[k]: v for k, v in doc["model"].items()}
    if doc["model"]["bin_edges"] is not None:
        doc["model"]["bin_edges"] = list(doc["model"]["bin_edges"])
    doc["eval"]["horizons"] = list(doc["eval"]["horizons"])
    return doc
