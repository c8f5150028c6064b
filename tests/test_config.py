"""Strict config parsing: unknown keys rejected, ranges enforced, round-trip."""

import json
import math
from dataclasses import asdict, fields
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajsurv.cohort import Scenario
from trajsurv.config import (ConfigError, CvSettings, EvalSettings, RunConfig,
                             SimulateSettings, config_from_dict, config_to_dict, load_config)
from trajsurv.model import ModelConfig
from trajsurv.training import TrainSettings


class TestDefaults:
    def test_empty_document_yields_defaults(self):
        cfg = config_from_dict({})
        assert cfg.model.backbone == "graphsage"
        assert cfg.model.hidden_dim == 32
        assert cfg.model.time_dim == 16
        assert cfg.model.summary_dim == 32
        assert cfg.model.context_dim == 16
        assert cfg.model.horizon == 12
        assert cfg.model.num_bins == 12
        assert cfg.train.lr == 1e-3
        assert cfg.train.batch_size == 64
        assert cfg.cv.k == 5 and cfg.cv.repeats == 3

    def test_short_model_keys_map_to_dims(self):
        cfg = config_from_dict({"model": {"d": 8, "d_t": 4, "d_h": 8, "d_c": 4,
                                          "T": 3, "K": 6}})
        assert cfg.model.hidden_dim == 8
        assert cfg.model.time_dim == 4
        assert cfg.model.summary_dim == 8
        assert cfg.model.context_dim == 4
        assert cfg.model.horizon == 3
        assert cfg.model.num_bins == 6

    def test_simulate_defaults_are_the_scenario_defaults(self):
        # The section is a `Scenario` with the cohort size and seed after its
        # fields, so each simulator setting is declared once, in `Scenario`.
        settings = SimulateSettings()
        assert isinstance(settings, Scenario)
        assert {f.name: getattr(settings, f.name) for f in fields(Scenario)} == asdict(Scenario())
        fields_of = [f.name for f in fields(SimulateSettings)]
        assert fields_of == [f.name for f in fields(Scenario)] + ["n", "seed"]

    def test_long_model_spellings_rejected(self):
        with pytest.raises(ConfigError, match="unknown key model.hidden_dim"):
            config_from_dict({"model": {"hidden_dim": 8}})


class TestUnknownKeys:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config sections.*optimizer"):
            config_from_dict({"optimizer": {}})

    def test_unknown_model_key(self):
        with pytest.raises(ConfigError, match="unknown key model.x"):
            config_from_dict({"model": {"x": 1}})

    def test_unknown_train_key(self):
        with pytest.raises(ConfigError, match="unknown key train.learning_rate"):
            config_from_dict({"train": {"learning_rate": 0.01}})

    @pytest.mark.parametrize("key, value", (("beta1", 1.0), ("beta2", 1.0), ("eps", -1e-8)))
    def test_adamw_constants_are_not_config_keys(self, key, value, tmp_path, capsys):
        # AdamW's beta1, beta2 and eps are module constants: a value that
        # would diverge or silently misstep is a usage error, not a run.
        doc = {"train": {key: value}}
        with pytest.raises(ConfigError, match=f"^unknown key train.{key}$"):
            config_from_dict(doc)
        assert _main_exit(tmp_path, json.dumps(doc)) == 1
        assert capsys.readouterr().err == f"config error: unknown key train.{key}\n"

    def test_auc_horizons_are_not_a_config_key(self, tmp_path, capsys):
        # auc1, auc3 and auc5 name their years, so the horizons are fixed.
        doc = {"eval": {"horizons": [1.0, 3.0, 5.0]}}
        with pytest.raises(ConfigError, match="^unknown key eval.horizons$"):
            config_from_dict(doc)
        assert _main_exit(tmp_path, json.dumps(doc)) == 1
        assert capsys.readouterr().err == "config error: unknown key eval.horizons\n"

    def test_removed_static_no_update_key_exits_one(self, tmp_path, capsys):
        from trajsurv.cli import EXIT_USAGE, main

        path = tmp_path / "old.json"
        path.write_text(json.dumps({"model": {"static_no_update": False}}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "unknown key model.static_no_update" in capsys.readouterr().err

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="must be an object"):
            config_from_dict({"train": 3})


class TestValidation:
    def test_bad_backbone(self):
        with pytest.raises(ConfigError, match="model.backbone"):
            config_from_dict({"model": {"backbone": "transformer"}})

    def test_bad_integrator(self):
        with pytest.raises(ConfigError, match="model.integrator"):
            config_from_dict({"model": {"integrator": "gru"}})

    def test_nonpositive_lr(self):
        with pytest.raises(ConfigError, match="train.lr"):
            config_from_dict({"train": {"lr": 0.0}})

    def test_zero_task_weights(self):
        with pytest.raises(ConfigError, match="alpha/beta"):
            config_from_dict({"train": {"alpha": 0.0, "beta": 0.0}})

    def test_scheduler_factor_range(self):
        with pytest.raises(ConfigError, match="scheduler_factor"):
            config_from_dict({"train": {"scheduler_factor": 1.0}})

    def test_bootstrap_b_minimum(self):
        with pytest.raises(ConfigError, match="bootstrap_b"):
            config_from_dict({"eval": {"bootstrap_b": 50}})

    def test_bad_bin_edges(self):
        with pytest.raises(ConfigError, match="bin_edges"):
            config_from_dict({"model": {"bin_edges": [2.0, 1.0]}})

    def test_tau_beyond_horizon(self):
        with pytest.raises(ConfigError, match="eval.tau"):
            config_from_dict({"eval": {"tau": 13.0}})

    def test_small_k_rejected(self):
        with pytest.raises(ConfigError, match="cv.k"):
            config_from_dict({"cv": {"k": 1}})

    @pytest.mark.parametrize("doc", [{"train": {"seed": -1}}, {"simulate": {"seed": -3}}])
    def test_negative_seed_rejected(self, doc):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            config_from_dict(doc)

    def test_bin_edges_must_match_k(self):
        with pytest.raises(ConfigError, match="model.K"):
            config_from_dict({"model": {"K": 3, "bin_edges": [0, 1, 2, 3, 4]}})
        cfg = config_from_dict({"model": {"K": 4, "bin_edges": [0, 1, 2, 3, 4]}})
        assert cfg.model.bins().count == 4

    def test_simulate_scenario_errors_surface(self):
        with pytest.raises(ConfigError, match="simulate"):
            config_from_dict({"simulate": {"censoring_rate": 1.5}})

    @pytest.mark.parametrize("hazard", (1.0, 1.5))
    def test_base_hazard_of_one_or_more_exits_one_before_any_draw(self, hazard, tmp_path,
                                                                  capsys):
        # A geometric draw needs a hazard in (0, 1): at 1 it gives event
        # times of -1, above 1 NaN.
        from trajsurv.cli import main

        path = tmp_path / "c.json"
        path.write_text(json.dumps({"simulate": {"base_os_hazard": hazard,
                                                 "base_dfs_hazard": hazard}}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: simulate: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("hazard", (1e-17, 1e-300))
    def test_base_hazard_without_integer_times_exits_one_before_any_draw(self, hazard,
                                                                         tmp_path, capsys):
        # Below about 4.1e-15 the longest geometric draw is no float64
        # integer: at 1e-300 the int64 cast wrapped every time, at 1e-17 the
        # times reached 2e17 years.
        from trajsurv.cli import main

        path = tmp_path / "c.json"
        path.write_text(json.dumps({"simulate": {"base_os_hazard": hazard,
                                                 "base_dfs_hazard": hazard}}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: simulate: group hazards") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("attention_dim", [0, -1])
    def test_gat_attention_dim_below_one_exits_one(self, attention_dim, tmp_path, capsys):
        doc = {"model": {"backbone": "gat", "attention_dim": attention_dim}}
        with pytest.raises(ConfigError, match="^model.d, d_t"):
            config_from_dict(doc)
        assert _main_exit(tmp_path, json.dumps(doc)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: model.d, d_t") and err.count("\n") == 1

    # The cases above, built in Python: each settings class checks its own
    # fields, and RunConfig the one rule across sections.
    @pytest.mark.parametrize("cls, kwargs, match", [
        (ModelConfig, {"backbone": "transformer"}, "^model.backbone"),
        (ModelConfig, {"integrator": "gru"}, "^model.integrator"),
        (ModelConfig, {"backbone": "gat", "attention_dim": 0}, "^model.d, d_t"),
        (ModelConfig, {"message_dim": 10 ** 9}, "^model.d, d_t"),
        (ModelConfig, {"bin_edges": (2.0, 1.0)}, "^model.bin_edges"),
        (ModelConfig, {"num_bins": 3, "bin_edges": (0.0, 1.0, 2.0, 3.0, 4.0)}, "model.K"),
        (TrainSettings, {"lr": 0.0}, "^train.lr"),
        (TrainSettings, {"alpha": 0.0, "beta": 0.0}, "^train.alpha/beta"),
        (TrainSettings, {"scheduler_factor": 1.0}, "^train.scheduler_factor"),
        (TrainSettings, {"seed": -1}, "^train.seed must be >= 0"),
        (EvalSettings, {"tau": 0.0}, "^eval.tau must be positive"),
        (EvalSettings, {"bootstrap_b": 50}, "^eval.bootstrap_b"),
        (CvSettings, {"k": 1}, "^cv.k"),
        (SimulateSettings, {"seed": -3}, "^simulate.seed must be >= 0"),
        (SimulateSettings, {"censoring_rate": 1.5}, "^simulate"),
        (RunConfig, {"eval": EvalSettings(tau=13.0)}, "^eval.tau"),
        (SimulateSettings, {"base_os_hazard": 1.0, "base_dfs_hazard": 1.0}, "^simulate"),
        (SimulateSettings, {"base_os_hazard": 1.5, "base_dfs_hazard": 1.5}, "^simulate"),
        (ModelConfig, {"horizon": 0}, "^model.T must be in"),
    ])
    def test_bad_value_built_in_python_raises(self, cls, kwargs, match):
        with pytest.raises(ValueError, match=match):
            cls(**kwargs)


class TestTauResolution:
    def test_default_tau_is_min_of_five_and_horizon(self):
        cfg = config_from_dict({"model": {"K": 12}})
        assert cfg.eval.resolve_tau(cfg.model.bins()) == 5.0
        short = config_from_dict({"model": {"K": 3, "T": 3}})
        assert short.eval.resolve_tau(short.model.bins()) == 3.0

    def test_explicit_tau_wins(self):
        cfg = config_from_dict({"eval": {"tau": 2.5}})
        assert cfg.eval.resolve_tau(cfg.model.bins()) == 2.5


class TestRoundTrip:
    def test_dict_round_trip(self):
        doc = {"model": {"backbone": "gcn", "d": 8, "T": 4, "K": 4, "cascade": False,
                         "bin_edges": [0, 1, 2, 3, 4]},
               "train": {"lr": 0.01, "batch_size": 16, "seed": 9},
               "eval": {"tau": 2.0},
               "simulate": {"n": 40, "signal_strength": 0.0},
               "cv": {"k": 3, "repeats": 2}}
        cfg = config_from_dict(doc)
        echoed = config_to_dict(cfg)
        assert config_from_dict(echoed) == cfg
        assert echoed["model"]["d"] == 8
        assert echoed["model"]["backbone"] == "gcn"
        assert echoed["train"]["lr"] == 0.01
        assert echoed["model"]["bin_edges"] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg


class TestLoadConfig:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"lr": 0.005}}))
        assert load_config(path).train.lr == 0.005

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


def test_eval_settings_defaults():
    e = EvalSettings()
    assert e.tau is None
    assert e.bootstrap_b == 1000
    assert e.level == 0.95


def _main_exit(tmp_path, doc_text):
    from trajsurv.cli import main

    path = tmp_path / "fuzz.json"
    path.write_text(doc_text)
    return main(["crossval", "--config", str(path), "--out", str(tmp_path / "o")])


class TestFieldTypes:
    @pytest.mark.parametrize("doc, key", [
        ({"model": {"d": "x"}}, "model.d"),
        ({"train": {"lr": "0.1"}}, "train.lr"),
        ({"model": {"bin_edges": ["a", 1, 2]}}, "model.bin_edges"),
        ({"model": {"bin_edges": [0, 1, True]}}, "model.bin_edges"),
        ({"model": {"bin_edges": 5}}, "model.bin_edges"),
        ({"cv": {"k": 2.5}}, "cv.k"),
        ({"train": {"batch_size": 2.5}}, "train.batch_size"),
        ({"model": {"T": 2.5}}, "model.T"),
        ({"model": {"T": True}}, "model.T"),
        ({"model": {"cascade": "no"}}, "model.cascade"),
        ({"model": {"cascade": 0}}, "model.cascade"),
        ({"train": {"augment": 1}}, "train.augment"),
        ({"paths": {"cohort": 3}}, "paths.cohort"),
        ({"simulate": {"seed": 1.0}}, "simulate.seed"),
        ({"train": {"lr": 10 ** 400}}, "train.lr"),
        ({"eval": {"tau": float("inf")}}, "eval.tau"),
        ({"eval": {"level": True}}, "eval.level"),
    ])
    def test_wrong_type_names_key_and_exits_one(self, doc, key, tmp_path, capsys):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            config_from_dict(doc)
        assert _main_exit(tmp_path, json.dumps(doc)) == 1
        assert f"config error: {key} must be" in capsys.readouterr().err

    def test_float_fields_take_integers(self):
        cfg = config_from_dict({"train": {"lr": 1}, "eval": {"tau": 2},
                                "model": {"K": 3, "bin_edges": [0, 1, 2, 3]}})
        assert cfg.train.lr == 1 and cfg.eval.tau == 2
        assert cfg.model.bin_edges == (0.0, 1.0, 2.0, 3.0)
        assert all(type(edge) is float for edge in cfg.model.bin_edges)

    def test_negative_seed_flag_exits_one(self, tmp_path, capsys):
        from trajsurv.cli import main

        path = tmp_path / "c.json"
        path.write_text("{}")
        assert main(["simulate", "--config", str(path), "--seed", "-1",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "config error: train.seed must be >= 0\n"

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        from trajsurv.cli import main

        for path in (tmp_path, tmp_path / "missing.json"):
            assert main(["crossval", "--config", str(path)]) == 1
            assert "config error" in capsys.readouterr().err
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"paths": {"cohort": "\xe9"}}')
        assert main(["crossval", "--config", str(latin)]) == 1


class TestSizeBounds:
    @pytest.mark.parametrize("doc, key", [
        ({"cv": {"repeats": 10 ** 9}}, "cv.repeats"),
        ({"simulate": {"n": 10 ** 9}}, "simulate.n"),
        ({"model": {"T": 10 ** 9}}, "model.T"),
        ({"model": {"K": 10 ** 9}}, "model.K"),
        *(({"model": {k: 10 ** 9}}, "model.d, d_t")
          for k in ("d", "d_t", "d_h", "d_c", "message_dim", "attention_dim")),
        ({"eval": {"bootstrap_b": 10 ** 9}}, "eval.bootstrap_b"),
        ({"simulate": {"region_len": 10 ** 9}}, "simulate: region_len"),
        ({"simulate": {"clinical_len": 10 ** 9}}, "simulate: region_len and clinical_len"),
    ])
    def test_oversized_field_exits_one_and_allocates_nothing(self, doc, key, tmp_path,
                                                             capsys):
        import tracemalloc

        with pytest.raises(ConfigError, match=f"^{key}"):
            config_from_dict(doc)
        tracemalloc.start()
        try:
            assert _main_exit(tmp_path, json.dumps(doc)) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert f"config error: {key}" in capsys.readouterr().err

    def test_sizes_at_their_bounds_are_accepted(self):
        from trajsurv.cohort import MAX_FEATURE_WIDTH
        from trajsurv.config import MAX_BOOTSTRAP, MAX_PATIENTS, MAX_REPEATS
        from trajsurv.model import MAX_STEPS, MAX_WIDTH

        cfg = config_from_dict({"cv": {"repeats": MAX_REPEATS},
                                "simulate": {"n": MAX_PATIENTS, "region_len": MAX_FEATURE_WIDTH,
                                             "clinical_len": MAX_FEATURE_WIDTH},
                                "eval": {"bootstrap_b": MAX_BOOTSTRAP},
                                "model": {"T": MAX_STEPS, "K": MAX_STEPS, "d": MAX_WIDTH,
                                          "attention_dim": MAX_WIDTH}})
        assert cfg.cv.repeats == MAX_REPEATS and cfg.model.horizon == MAX_STEPS
        assert cfg.eval.bootstrap_b == MAX_BOOTSTRAP


def _well_typed(value, hint) -> bool:
    options = get_args(hint) if get_origin(hint) is UnionType else (hint,)
    if value is None:
        return type(None) in options
    hint = next(h for h in options if h is not type(None))
    if get_origin(hint) is tuple:
        return type(value) is tuple and all(type(v) is float for v in value)
    if hint is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is hint


_SECTION_KEYS = {
    "model": ["backbone", "d", "d_t", "d_h", "d_c", "T", "K", "bin_edges", "message_dim",
              "attention_dim", "cascade", "integrator"],
    "train": ["lr", "batch_size", "alpha", "beta", "max_epochs", "patience", "seed",
              "scheduler_factor", "augment"],
    "eval": ["horizons", "tau", "bootstrap_b", "level"],
    "paths": ["cohort", "output_dir", "model"],
    "simulate": ["n", "seed", "censoring_rate", "region_len"],
    "cv": ["k", "repeats"],
}
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 40) | st.integers(10 ** 300, 10 ** 400)
            | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
                [0.5, 1.0, 2.5, 3.0, 12.0, "gcn", "lstm", "mean", "x", "0.1", ""]))
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=5) | st.dictionaries(st.text(max_size=3),
                                                                        _SCALARS, max_size=2)


@st.composite
def config_docs(draw):
    doc = {}
    for section in draw(st.lists(st.sampled_from(sorted(_SECTION_KEYS)), unique=True)):
        keys = draw(st.lists(st.sampled_from(_SECTION_KEYS[section] + ["junk"]),
                             unique=True, max_size=4))
        doc[section] = {k: draw(_VALUES) for k in keys}
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(_SECTION_KEYS)))] = draw(_VALUES)
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config_docs())
def test_fuzzed_config_is_well_typed_or_exits_one(tmp_path, doc):
    """A document either loads into a well-typed `RunConfig` or raises
    `ConfigError`, and `main` then exits 1. An accepted document is never
    run: its sizes could start real work."""
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        assert _main_exit(tmp_path, json.dumps(doc)) == 1
        return
    for section in fields(cfg):
        part = getattr(cfg, section.name)
        hints = get_type_hints(type(part))
        for f in fields(part):
            assert _well_typed(getattr(part, f.name), hints[f.name]), (section.name, f.name)
