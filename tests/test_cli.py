"""End-to-end command-line runs on small cohorts, plus exit-code contracts."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from trajsurv import autodiff as ad
from trajsurv import cli
from trajsurv import crossval as cv
from trajsurv.cli import EXIT_DATA, EXIT_OK, EXIT_TRAINING, EXIT_USAGE, main
from trajsurv.cohort import load_cohort, save_cohort, simulate_cohort
from trajsurv.config import config_from_dict
from trajsurv.evolution import BACKBONES
from trajsurv.graph import ANATOMICAL_KINDS, NodeKind
from trajsurv.model import ModelConfig, ModelFileError, init_model, load_model, save_model

BASE_DOC = {
    "model": {"d": 8, "d_t": 4, "d_h": 8, "d_c": 4, "T": 3, "K": 4, "message_dim": 8},
    "train": {"lr": 0.01, "batch_size": 16, "max_epochs": 2, "seed": 0},
    "eval": {"bootstrap_b": 100},
    "simulate": {"n": 24, "region_len": 4, "clinical_len": 3},
    "cv": {"k": 3, "repeats": 1},
}


def write_config(tmp_path, name="config.json", cohort=None, **overrides):
    doc = json.loads(json.dumps(BASE_DOC))
    for section, values in overrides.items():
        doc[section] = {**doc.get(section, {}), **values}
    if cohort is not None:
        doc.setdefault("paths", {})["cohort"] = str(cohort)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def simulate_into(tmp_path, sub="sim", **overrides):
    config = write_config(tmp_path, name=f"{sub}-config.json", **overrides)
    out = tmp_path / sub
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
    return out / "cohort.json"


class TestSimulate:
    def test_writes_cohort_and_truth(self, tmp_path, capsys):
        cohort = simulate_into(tmp_path)
        assert cohort.exists()
        assert len(load_cohort(cohort)) == 24
        truth = json.load(open(cohort.parent / "truth.json"))
        assert truth["seed"] == 0
        assert len(truth["groups"]) == 24
        assert "wrote 24-patient cohort" in capsys.readouterr().out

    def test_seed_flag_changes_the_draw(self, tmp_path):
        config = write_config(tmp_path)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["simulate", "--config", str(config), "--out", str(a)])
        main(["simulate", "--config", str(config), "--out", str(b)])
        main(["simulate", "--config", str(config), "--out", str(c), "--seed", "1"])
        same = (a / "cohort.json").read_bytes() == (b / "cohort.json").read_bytes()
        diff = (a / "cohort.json").read_bytes() != (c / "cohort.json").read_bytes()
        assert same and diff


class TestCrossval:
    def test_end_to_end_writes_reports(self, tmp_path, capsys):
        cohort = simulate_into(tmp_path)
        config = write_config(tmp_path, name="cv.json", cohort=cohort)
        out = tmp_path / "cv"
        assert main(["crossval", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        for name in ("report.json", "metrics.csv", "curves.csv", "timings.json"):
            assert (out / name).exists()
        # A model whose risks vary names no fold as tied.
        assert json.loads((out / "report.json").read_text())["warnings"]["tied_risk_folds"] == []
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "repeat,fold,task,cindex,ibs,auc1,auc3,auc5,mae"
        assert len(lines) == 1 + 3 * 2
        printed = capsys.readouterr().out
        assert "os C-index mean" in printed and "dfs C-index mean" in printed

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cohort = simulate_into(tmp_path)
        config = write_config(tmp_path, name="cv.json", cohort=cohort)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["crossval", "--config", str(config), "--out", str(out1)])
        main(["crossval", "--config", str(config), "--out", str(out2)])
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()

    def test_training_failure_threshold_exit_code(self, tmp_path, monkeypatch, capsys):
        cohort = simulate_into(tmp_path)
        config = write_config(tmp_path, name="cv.json", cohort=cohort)

        def exploding(model, train_recs, val_recs, settings):
            raise ad.NonFiniteError("synthetic blow-up")

        monkeypatch.setattr(cv, "train_model", exploding)
        code = main(["crossval", "--config", str(config),
                     "--out", str(tmp_path / "cv")])
        assert code == EXIT_TRAINING
        assert "folds failed to train" in capsys.readouterr().err


class TestTrainEvaluate:
    def test_train_then_evaluate(self, tmp_path, capsys):
        cohort = simulate_into(tmp_path)
        config = write_config(tmp_path, name="fit.json", cohort=cohort)
        fit_out = tmp_path / "fit"
        assert main(["train", "--config", str(config),
                     "--out", str(fit_out)]) == EXIT_OK
        for name in ("model.npz", "training_log.txt", "train_summary.json"):
            assert (fit_out / name).exists()
        summary = json.load(open(fit_out / "train_summary.json"))
        assert summary["epochs_run"] == 2
        assert "best validation loss" in capsys.readouterr().out

        eval_out = tmp_path / "eval"
        assert main(["evaluate", "--config", str(config), "--out", str(eval_out),
                     "--model", str(fit_out / "model.npz")]) == EXIT_OK
        report = json.load(open(eval_out / "report.json"))
        assert report["evaluation"] is True
        assert len(report["folds"]) == 2

    def test_training_log_holds_only_the_last_run(self, tmp_path):
        cohort = simulate_into(tmp_path)
        out = tmp_path / "fit"
        for epochs in (3, 2):
            config = write_config(tmp_path, name="fit.json", cohort=cohort,
                                  train={"max_epochs": epochs})
            assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
        summary = json.load(open(out / "train_summary.json"))
        assert summary["epochs_run"] == 2
        lines = (out / "training_log.txt").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines] == ["1", "2"]

    def test_evaluate_feature_width_mismatch_is_data_error(self, tmp_path, capsys):
        model_path = save_untrained_model(tmp_path)
        cohort = simulate_into(tmp_path, simulate={"clinical_len": 5})
        config = write_config(tmp_path, name="w.json", cohort=cohort)
        code = main(["evaluate", "--config", str(config), "--out", str(tmp_path / "w"),
                     "--model", str(model_path)])
        assert code == EXIT_DATA
        assert "clinical features have width 5, the model expects 3" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("kind", ("text", "object_array", "missing_array",
                                      "row_for_matrix", "unknown_array", "meta_not_object",
                                      "nan_weight", "text_weight", "meta_wrong_type",
                                      "edges_not_k", "missing_kind"))
    def test_evaluate_corrupt_model_file_is_data_error(self, tmp_path, capsys, kind):
        bad = tmp_path / "model.npz"
        if kind == "text":
            bad.write_bytes(b"not a model file")
        elif kind == "object_array":
            with open(bad, "wb") as fh:
                np.save(fh, np.array([{"a": 1}], dtype=object), allow_pickle=True)
        else:
            bad = rewrite_arrays(save_untrained_model(tmp_path), CORRUPTIONS[kind])
        cohort = simulate_into(tmp_path)
        config = write_config(tmp_path, name="c.json", cohort=cohort)
        code = main(["evaluate", "--config", str(config), "--out", str(tmp_path / "c"),
                     "--model", str(bad)])
        assert code == EXIT_DATA
        assert "not a readable model file" in capsys.readouterr().err

    def test_evaluate_without_model_is_usage_error(self, tmp_path, capsys):
        cohort = simulate_into(tmp_path)
        config = write_config(tmp_path, name="e.json", cohort=cohort)
        code = main(["evaluate", "--config", str(config),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_USAGE
        assert "needs --model or paths.model" in capsys.readouterr().err


def save_untrained_model(tmp_path, meta_extra=None):
    """An untrained model for the BASE_DOC cohort widths (regions 4, clinical 3)."""
    widths = {**{k: 4 for k in ANATOMICAL_KINDS}, NodeKind.GLOBAL_CT: 4, NodeKind.CLINICAL: 3}
    config = ModelConfig(hidden_dim=8, time_dim=4, summary_dim=8, context_dim=4, horizon=3,
                         num_bins=4, message_dim=8)
    path = tmp_path / "untrained.npz"
    save_model(init_model(config, widths, np.random.default_rng(0)), path)
    if meta_extra:
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = {**json.loads(bytes(arrays["__meta__"]).decode()), **meta_extra}
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
    return path


def rewrite_arrays(path, change):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    change(arrays)
    np.savez(path, **arrays)
    return path


def _meta_update(change):
    def apply(arrays):
        meta = {**json.loads(bytes(arrays["__meta__"]).decode()), **change}
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return apply


def _widths_as_pairs(arrays):
    widths = json.loads(bytes(arrays["__meta__"]).decode())["feature_widths"]
    _meta_update({"feature_widths": [[k, w] for k, w in widths.items()]})(arrays)


def _missing_kind(arrays):
    # The clinical kind left out whole: its width and both embedding arrays.
    widths = json.loads(bytes(arrays["__meta__"]).decode())["feature_widths"]
    del widths["clinical"]
    _meta_update({"feature_widths": widths})(arrays)
    del arrays["embed.clinical.w"], arrays["embed.clinical.b"]


def _forged_clinical_width(arrays):
    widths = json.loads(bytes(arrays["__meta__"]).decode())["feature_widths"]
    _meta_update({"feature_widths": {**widths, "clinical": 10 ** 9}})(arrays)


CORRUPTIONS = {
    "missing_array": lambda a: a.pop("lstm.w_i"),
    "nan_weight": lambda a: a["heads.b_os"].__setitem__((0, 1), np.nan),
    "text_weight": lambda a: a.update({"heads.b_os": a["heads.b_os"].astype(str)}),
    "meta_wrong_type": _meta_update({"cascade": "no"}),
    "edges_not_k": _meta_update({"bin_edges": [0.0, 1.0]}),
    "widths_as_pairs": _widths_as_pairs,
    "missing_kind": _missing_kind,
    # Sizes no allocator grants: building either model would fail at once.
    "huge_message_dim": _meta_update({"message_dim": 10 ** 9}),
    "huge_clinical_width": _forged_clinical_width,
    # One row of an 8 x 8 matrix would broadcast over all of its rows.
    "row_for_matrix": lambda a: a.update({"op.w_out": a["op.w_out"][:1]}),
    "unknown_array": lambda a: a.update({"op.w_extra": np.zeros((8, 8))}),
    "meta_not_object": lambda a: a.update({"__meta__": np.frombuffer(b"[1, 2]", dtype=np.uint8)}),
}


@pytest.mark.parametrize("kind,message", (
    ("missing_array", r"lstm\.w_i missing \(expects \(16, 8\)\)"),
    ("row_for_matrix", r"op\.w_out \(1, 8\) \(expects \(8, 8\)\)"),
    ("unknown_array", r"op\.w_extra \(8, 8\) \(expects none\)")))
def test_parameter_names_and_shapes_must_match(tmp_path, kind, message):
    path = rewrite_arrays(save_untrained_model(tmp_path), CORRUPTIONS[kind])
    with pytest.raises(ModelFileError, match=message):
        load_model(path)


@pytest.mark.parametrize("kind,message", (
    ("nan_weight", r"parameter heads\.b_os must hold finite numbers"),
    ("text_weight", r"parameter heads\.b_os must hold finite numbers"),
    ("meta_wrong_type", r"cascade must be bool, got 'no'"),
    ("edges_not_k", r"model\.bin_edges must hold model\.K \+ 1 edges"),
    ("widths_as_pairs", r"feature_widths must be dict, got \[\["),
    ("missing_kind", r"feature_widths must name every node kind; it lacks clinical\)$")))
def test_parameter_values_and_field_types_are_checked(tmp_path, kind, message):
    path = rewrite_arrays(save_untrained_model(tmp_path), CORRUPTIONS[kind])
    with pytest.raises(ModelFileError, match=message):
        load_model(path)


FORGED_SIZE_MESSAGES = {
    "huge_message_dim": r"model\.d, d_t, d_h, d_c, message_dim and attention_dim must be in",
    "huge_clinical_width": r"feature_widths\.clinical is 1000000000, so embed\.clinical\.w "
                           r"must be \(1000000000, 8\); the file has \(3, 8\)"}


@pytest.mark.parametrize("kind", sorted(FORGED_SIZE_MESSAGES))
def test_forged_model_size_exits_2_and_allocates_nothing(tmp_path, capsys, kind):
    import tracemalloc

    path = rewrite_arrays(save_untrained_model(tmp_path), CORRUPTIONS[kind])
    with pytest.raises(ModelFileError, match=FORGED_SIZE_MESSAGES[kind]):
        load_model(path)
    config = write_config(tmp_path, name="f.json", cohort=simulate_into(tmp_path))
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["evaluate", "--config", str(config), "--out", str(tmp_path / "f"),
                     "--model", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_DATA and peak < 2 ** 20
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1


def test_removed_switch_loads_only_when_false(tmp_path):
    # Files written before the zero-update switch was removed carry it as false.
    load_model(save_untrained_model(tmp_path, {"static_no_update": False}))
    with pytest.raises(ModelFileError, match="static_no_update"):
        load_model(save_untrained_model(tmp_path, {"static_no_update": True}))


def test_saved_model_carries_format_version(tmp_path):
    with np.load(save_untrained_model(tmp_path)) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
    assert meta["format_version"] == 1


def test_file_without_format_version_reads_as_version_1(tmp_path):
    path = save_untrained_model(tmp_path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    del meta["format_version"]
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    assert load_model(path).config.hidden_dim == 8


@pytest.mark.parametrize("version", (2, 0, "1", True, None))
def test_other_format_version_rejected(tmp_path, version):
    with pytest.raises(ModelFileError, match="unsupported format_version"):
        load_model(save_untrained_model(tmp_path, {"format_version": version}))


def test_evaluate_other_format_version_is_data_error(tmp_path, capsys):
    model_path = save_untrained_model(tmp_path, {"format_version": 2})
    cohort = simulate_into(tmp_path)
    config = write_config(tmp_path, name="v.json", cohort=cohort)
    code = main(["evaluate", "--config", str(config), "--out", str(tmp_path / "v"),
                 "--model", str(model_path)])
    assert code == EXIT_DATA
    assert "unsupported format_version 2" in capsys.readouterr().err


@pytest.mark.parametrize("field", ("features", "centroid", "clinical"))
@pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
def test_nonfinite_cohort_value_is_data_error(tmp_path, capsys, field, value):
    cohort = simulate_into(tmp_path)
    doc = json.loads(cohort.read_text())
    patient = doc["patients"][3]
    if field == "clinical":
        patient["clinical"][0] = value
        message = "patient sim0003: clinical features must be finite"
    else:
        patient["regions"]["tumors"][field][0] = value
        message = f"patient sim0003: region tumors {field} must be finite"
    cohort.write_text(json.dumps(doc))
    config = write_config(tmp_path, name="n.json", cohort=cohort)
    code = main(["crossval", "--config", str(config), "--out", str(tmp_path / "n")])
    assert code == EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command,patients,k", (("crossval", 3, 5), ("train", 3, 5),
                                                ("crossval", 2, 2)))
def test_cohort_too_small_for_the_folds_is_data_error(tmp_path, capsys, command, patients, k):
    # `train` always holds out the first of 5 folds; with 2 patients in 2
    # folds, each fold's one remaining patient leaves its inner split empty.
    cohort = simulate_into(tmp_path)
    doc = json.loads(cohort.read_text())
    doc["patients"] = doc["patients"][:patients]
    cohort.write_text(json.dumps(doc))
    config = write_config(tmp_path, name="tiny.json", cohort=cohort, cv={"k": k})
    code = main([command, "--config", str(config), "--out", str(tmp_path / "tiny")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert f"data error: cohort of {patients} patients cannot form {k} folds" in err
    assert "Traceback" not in err


class TestAblate:
    def test_variant_recorded_and_check_passes(self, tmp_path):
        cohort = simulate_into(tmp_path)
        config = write_config(tmp_path, name="ab.json", cohort=cohort)
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config), "--out", str(out),
                     "--variant", "no_cascade"]) == EXIT_OK
        report = json.load(open(out / "report.json"))
        assert report["evaluation"] is False
        assert report["checks"]["os_context_grad_zero"] is True
        assert report["config"]["model"]["cascade"] is False

    def test_ablation_is_crossval_of_its_override(self, tmp_path):
        # `ablate --variant no_cascade` and `crossval` with `cascade: false`,
        # run into the same --out, write the same bytes.
        cohort = simulate_into(tmp_path)
        out = tmp_path / "out"
        ablate = write_config(tmp_path, name="ab.json", cohort=cohort)
        assert main(["ablate", "--config", str(ablate), "--out", str(out),
                     "--variant", "no_cascade"]) == EXIT_OK
        first = {name: (out / name).read_bytes()
                 for name in ("report.json", "metrics.csv", "curves.csv")}
        crossval = write_config(tmp_path, name="cv.json", cohort=cohort,
                                model={"cascade": False})
        assert main(["crossval", "--config", str(crossval), "--out", str(out)]) == EXIT_OK
        for name, data in first.items():
            assert (out / name).read_bytes() == data, name

    def test_unknown_variant_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["ablate", "--config", str(config), "--variant", "bogus"])
        assert code == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_config_flag(self, capsys):
        assert main(["crossval"]) == EXIT_USAGE

    def test_bad_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"model": {"x": 1}}')
        assert main(["crossval", "--config", str(path)]) == EXIT_USAGE
        assert "unknown key model.x" in capsys.readouterr().err

    def test_config_not_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["crossval", "--config", str(path)]) == EXIT_USAGE

    def test_missing_cohort_file_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path, cohort=tmp_path / "nowhere.json")
        code = main(["crossval", "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_corrupt_cohort_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "cohort.json"
        bad.write_text('{"schema_version": 1}')
        config = write_config(tmp_path, cohort=bad)
        code = main(["crossval", "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_crossval_without_cohort_path_is_data_error(self, tmp_path, capsys):
        code = main(["crossval", "--config", str(write_config(tmp_path)),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "data error: config.paths.cohort is not set\n"

    def test_evaluate_tau_past_the_models_last_bin_edge_is_config_error(self, tmp_path,
                                                                       capsys):
        # The config's own bins (K=12) allow tau 10; the model's (K=4) end at 4.
        cohort = simulate_into(tmp_path)
        config = write_config(tmp_path, name="t.json", cohort=cohort,
                              model={"K": 12}, eval={"tau": 10.0})
        code = main(["evaluate", "--config", str(config), "--out", str(tmp_path / "t"),
                     "--model", str(save_untrained_model(tmp_path))])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            "config error: eval.tau must be at most the last bin edge, 4\n"
        assert not (tmp_path / "t").exists()


def test_gradcheck_subcommand(capsys):
    assert main(["gradcheck"]) == EXIT_OK
    out = capsys.readouterr().out
    for backbone in BACKBONES:
        assert f"{backbone}: max relative gradient error" in out
    assert "passed" in out


def test_console_script_installed(tmp_path):
    """The ``trajsurv`` script declared in pyproject.toml runs ``--help``.

    The script is built here the way an installer builds it from
    ``[project.scripts]``, so the check needs no install; an installed
    ``trajsurv`` on PATH is checked as well.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["trajsurv"]
    module, func = entry.split(":")
    script = tmp_path / "trajsurv"
    script.write_text(f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    runs = [([sys.executable, str(script)], env)]
    exe = shutil.which("trajsurv")
    if exe is not None:
        runs.append(([exe], None))
    for cmd, run_env in runs:
        proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True, env=run_env)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "crossval" in proc.stdout


def test_crossval_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Each child runs in its own directory with the same relative --out, so
    # even the output_dir echoed in report.json is the same.
    cohort = simulate_into(tmp_path, simulate={"n": 120, "region_len": 8, "clinical_len": 6})
    doc = {"paths": {"cohort": str(cohort)}, "cv": {"k": 2, "repeats": 1},
           "train": {"max_epochs": 3, "batch_size": 120}, "eval": {"bootstrap_b": 100}}
    config = tmp_path / "blas.json"
    config.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run_dir = tmp_path / f"threads{threads}"
        run_dir.mkdir()
        subprocess.run([sys.executable, "-m", "trajsurv.cli", "crossval", "--config",
                        str(config), "--out", "out"], cwd=run_dir, env=env, check=True,
                       capture_output=True, timeout=300)
        outputs.append([(run_dir / "out" / name).read_bytes()
                        for name in ("metrics.csv", "curves.csv", "report.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs, so that one run forks its bootstrap draws")
def test_crossval_outputs_do_not_depend_on_the_cpu_count(tmp_path):
    # The pooled intervals' draws run on every CPU the process may use; the
    # second child may use one, so it draws them all itself.
    cohort = simulate_into(tmp_path, simulate={"n": 60, "region_len": 6, "clinical_len": 4})
    config = write_config(tmp_path, name="cpus.json", cohort=cohort, cv={"k": 2, "repeats": 2},
                          eval={"bootstrap_b": 400})
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import os, sys\n"
            "if sys.argv[1] == 'one':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from trajsurv.cli import main\n"
            "sys.exit(main(sys.argv[2:]))\n")
    outputs = []
    for cpus in ("all", "one"):
        run_dir = tmp_path / f"cpus-{cpus}"
        run_dir.mkdir()
        subprocess.run([sys.executable, "-c", code, cpus, "crossval", "--config", str(config),
                        "--out", "out"], cwd=run_dir, env=env, check=True,
                       capture_output=True, timeout=300)
        outputs.append([(run_dir / "out" / name).read_bytes()
                        for name in ("metrics.csv", "curves.csv", "report.json")])
    assert outputs[0] == outputs[1]


def test_console_script_check_passes_against_the_source_tree(tmp_path):
    # The CI step's script, with a `trajsurv` on PATH that runs this checkout's
    # cli module; CI runs the same script against the installed package.
    root = Path(__file__).resolve().parents[1]
    bin_dir, work = tmp_path / "bin", tmp_path / "work"
    bin_dir.mkdir()
    work.mkdir()
    shim = bin_dir / "trajsurv"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m trajsurv.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run(["bash", str(root / "ci" / "console_script.sh")], cwd=work, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_diverging_crossval_prints_one_stderr_line(tmp_path):
    # In a child process, so no warning capture stands between numpy and stderr.
    cohort = simulate_into(tmp_path, simulate={"n": 20, "region_len": 4, "clinical_len": 3})
    config = write_config(tmp_path, name="diverge.json", cohort=cohort,
                          model={"d": 4, "T": 2, "K": 4}, cv={"k": 2, "repeats": 1},
                          train={"lr": 1e300})
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "trajsurv.cli", "crossval", "--config",
                           str(config), "--out", str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_TRAINING
    assert proc.stderr.splitlines() == ["2/2 folds failed to train"]


def test_folds_whose_risks_all_tie_are_named(tmp_path, capsys):
    # A tiny gat model at lr 1e4 trains to finite losses, then gives every
    # test patient of each fold the same risk: each fold's C-index is 0.5
    # from ties alone, and the run exits 0. report.json names each such
    # (repeat, fold, task), and withholds each task's pooled interval, whose
    # pooled risks would rank patients by fold alone.
    (tmp_path / "sim.json").write_text(json.dumps({"simulate": {"n": 40}}))
    assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                 "--out", str(tmp_path / "sim")]) == EXIT_OK
    config = tmp_path / "tied.json"
    config.write_text(json.dumps({
        "paths": {"cohort": str(tmp_path / "sim" / "cohort.json")},
        "model": {"backbone": "gat", "d": 8, "T": 3, "K": 4}, "train": {"lr": 1e4},
        "cv": {"k": 2, "repeats": 1}}))
    out = tmp_path / "tied"
    capsys.readouterr()
    assert main(["crossval", "--config", str(config), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["failed_folds"] == []
    assert report["warnings"]["tied_risk_folds"] == [
        {"repeat": 0, "fold": fold, "task": task} for fold in range(2) for task in ("os", "dfs")]
    assert {row["cindex"] for row in report["folds"]} == {0.5}
    assert report["ci"] == {task: {"metric": "cindex", "error": "no pooled interval: the risks "
                                   "tie within (repeat 0, fold 0), (repeat 0, fold 1)"}
                            for task in ("os", "dfs")}
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] == ["os C-index mean 0.500", "dfs C-index mean 0.500"]


@pytest.mark.parametrize("command,out", (("simulate", "afile"), ("train", "afile"),
                                         ("crossval", "afile/x"), ("evaluate", "afile"),
                                         ("ablate", "afile/x/y")))
def test_output_path_at_or_below_a_file_is_config_error(tmp_path, capsys, monkeypatch,
                                                        command, out):
    # Checked once, before a cohort is read or a fold trained.
    cohort = simulate_into(tmp_path)
    config = write_config(tmp_path, name="o.json", cohort=cohort)
    (tmp_path / "afile").write_text("")
    trained = []
    monkeypatch.setattr(cv, "train_model", lambda *args: trained.append(args))
    argv = [command, "--config", str(config), "--out", str(tmp_path / out)]
    if command == "evaluate":
        argv += ["--model", str(save_untrained_model(tmp_path))]
    elif command == "ablate":
        argv += ["--variant", "no_cascade"]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (f"config error: output directory {tmp_path / out}: "
                   f"{tmp_path / 'afile'} is not a directory\n")
    assert trained == []


@pytest.mark.parametrize("command,target", (("simulate", "truth.json"), ("train", "model.npz"),
                                            ("crossval", "report.json"),
                                            ("evaluate", "curves.csv"),
                                            ("ablate", "timings.json")))
def test_output_file_that_is_a_directory_is_config_error(tmp_path, capsys, monkeypatch,
                                                         command, target):
    # Checked before any work: nothing is trained or written.
    cohort = simulate_into(tmp_path)
    config = write_config(tmp_path, name="o.json", cohort=cohort)
    out = tmp_path / "out"
    (out / target).mkdir(parents=True)
    trained = []
    monkeypatch.setattr(cv, "train_model", lambda *args: trained.append(args))
    monkeypatch.setattr(cli, "train_model", lambda *args: trained.append(args))
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "evaluate":
        argv += ["--model", str(save_untrained_model(tmp_path))]
    elif command == "ablate":
        argv += ["--variant", "no_cascade"]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"config error: output file {out / target} is a directory\n"
    assert trained == []
    assert sorted(p.name for p in out.iterdir()) == [target]


def save_saturating_model(tmp_path):
    """A valid 30-bin model whose OS hazards all clip to 1 - 1e-16, so its
    survival product underflows to 0 from about bin 21."""
    widths = {**{k: 4 for k in ANATOMICAL_KINDS}, NodeKind.GLOBAL_CT: 4, NodeKind.CLINICAL: 3}
    config = ModelConfig(hidden_dim=8, time_dim=4, summary_dim=8, context_dim=4, horizon=3,
                         num_bins=30, message_dim=8)
    model = init_model(config, widths, np.random.default_rng(0))
    model.heads.b_os[:] = 60.0
    path = tmp_path / "saturated.npz"
    save_model(model, path)
    return path


def test_evaluate_saturated_model_is_data_error(tmp_path, capsys):
    cohort = simulate_into(tmp_path)
    config = write_config(tmp_path, name="s.json", cohort=cohort)
    code = main(["evaluate", "--config", str(config), "--out", str(tmp_path / "s"),
                 "--model", str(save_saturating_model(tmp_path))])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: survival curve must be")
    assert "hazards saturate" in err[0]


def test_saturated_fold_is_a_failed_fold(tmp_path, capsys, monkeypatch):
    # Every fold's model saturates in place of training: each fails with the
    # reason, as a diverged fold does, and the run exits 3.
    cohort = simulate_into(tmp_path)
    config = write_config(tmp_path, name="s.json", cohort=cohort, model={"K": 30})

    def saturate(model, train, val, settings):
        model.heads.b_os[:] = 60.0

    monkeypatch.setattr(cv, "train_model", saturate)
    out = tmp_path / "s"
    assert main(["crossval", "--config", str(config), "--out", str(out)]) == EXIT_TRAINING
    assert capsys.readouterr().err == "3/3 folds failed to train\n"
    failed = json.loads((out / "report.json").read_text())["failed_folds"]
    assert len(failed) == 3
    assert all(f["reason"].startswith("survival curve must be nonincreasing within (0, 1]: "
                                      "the hazards saturate") for f in failed)


OVERFLOW = "logits must be finite: the model's outputs overflow"


def overflow_os_logits(model):
    """Finite head weights whose OS logits overflow in the bias add: the
    context saturates at 1, its last unit's weight to each logit is 1e308,
    every other weight 0, and the bias 1.7e308."""
    heads = model.heads
    heads.w_ctx[:], heads.b_ctx[:] = 0.0, 50.0
    heads.w_os[:] = 0.0
    heads.w_os[-1] = 1e308
    heads.b_os[:] = 1.7e308


def test_evaluate_overflowing_model_is_data_error(tmp_path, capsys):
    # The file is valid and loads; its logits overflow in the forward pass.
    cohort = simulate_into(tmp_path)
    config = write_config(tmp_path, name="o.json", cohort=cohort)
    model = cv.fold_model(config_from_dict(BASE_DOC), cv.feature_widths(load_cohort(cohort)),
                          0, 0)
    overflow_os_logits(model)
    save_model(model, tmp_path / "overflowing.npz")
    assert load_model(tmp_path / "overflowing.npz").heads.b_os.max() == 1.7e308
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["evaluate", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--model", str(tmp_path / "overflowing.npz")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {OVERFLOW}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_overflowing_fold_is_a_failed_fold(tmp_path, capsys, monkeypatch):
    # Every fold's logits overflow in place of training: each fails with the
    # reason, as a saturated fold does, and the run exits 3.
    cohort = simulate_into(tmp_path)
    config = write_config(tmp_path, name="o.json", cohort=cohort)
    monkeypatch.setattr(cv, "train_model", lambda model, *rest: overflow_os_logits(model))
    out = tmp_path / "o"
    assert main(["crossval", "--config", str(config), "--out", str(out)]) == EXIT_TRAINING
    assert capsys.readouterr().err == "3/3 folds failed to train\n"
    failed = json.loads((out / "report.json").read_text())["failed_folds"]
    assert [f["reason"] for f in failed] == [OVERFLOW] * 3


# ---------------------------------------------------------------------------
# Loader fuzz: a mutated model file loads equal or is a data error.
# ---------------------------------------------------------------------------

MODEL_MUTATIONS = ("truncate", "meta_drop_key", "meta_wrong_type", "array_nonfinite",
                   "array_dtype", "array_shape", "array_drop", "array_extra")


def _kind(value):
    return "number" if type(value) in (int, float) else type(value).__name__


@pytest.fixture(scope="module")
def model_fuzz_base(tmp_path_factory):
    """A directory with a saved model (untrained.npz), a cohort and run.json."""
    root = tmp_path_factory.mktemp("model_fuzz")
    save_untrained_model(root)
    write_config(root, name="run.json", cohort=simulate_into(root))
    return root


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(MODEL_MUTATIONS), st.data())
def test_mutated_model_loads_equal_or_exits_2(model_fuzz_base, mutation, data):
    root = model_fuzz_base
    bad, raw = root / "mutated.npz", (root / "untrained.npz").read_bytes()
    model = load_model(root / "untrained.npz")
    with np.load(root / "untrained.npz") as base:
        arrays = {k: base[k] for k in base.files}
    names = sorted(k for k in arrays if k != "__meta__")
    if mutation == "truncate":
        bad.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    else:
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        name = data.draw(st.sampled_from(names))
        if mutation == "meta_drop_key":
            del meta[data.draw(st.sampled_from(sorted(meta)))]
        elif mutation == "meta_wrong_type":
            fields = [(meta, k) for k in meta] + [(meta["feature_widths"], k)
                                                  for k in meta["feature_widths"]]
            node, key = data.draw(st.sampled_from(fields))
            pairs = [[k, v] for k, v in node[key].items()] if type(node[key]) is dict else []
            node[key] = data.draw(st.sampled_from(
                [v for v in (None, "x", True, 2.5, [], {}, pairs) if _kind(v) != _kind(node[key])]))
        elif mutation == "array_nonfinite":
            flat = arrays[name].reshape(-1)
            flat[data.draw(st.integers(0, flat.size - 1))] = data.draw(
                st.sampled_from((np.nan, np.inf, -np.inf)))
        elif mutation == "array_dtype":
            arrays[name] = arrays[name].astype(data.draw(st.sampled_from((str, bool, complex))))
        elif mutation == "array_shape":
            a = arrays[name]   # a square transpose is a valid model, so never drawn
            arrays[name] = data.draw(st.sampled_from([b for b in (
                a.T, a.reshape(-1), a[:-1], np.vstack([a, a[:1]]), a[:, :1])
                if b.shape != a.shape]))
        elif mutation == "array_drop":
            del arrays[name]
        else:
            arrays["heads.extra"] = np.zeros((2, 2))
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(bad, "wb") as fh:
            np.savez(fh, **arrays)
    try:
        loaded = load_model(bad)
    except ModelFileError:
        expected = EXIT_DATA
    else:
        assert loaded.config == model.config
        for (name, got), (_, want) in zip(loaded.named_parameters(), model.named_parameters()):
            assert got.tobytes() == want.tobytes(), name
        expected = EXIT_OK
    assert main(["evaluate", "--config", str(root / "run.json"), "--out", str(root / "out"),
                 "--model", str(bad)]) == expected


# ---------------------------------------------------------------------------
# Accepted configs run end to end: crossval on a tiny cohort exits cleanly.
# ---------------------------------------------------------------------------

WIDTH_KEYS = ("d", "d_t", "d_h", "d_c", "message_dim", "attention_dim")

# tracemalloc peak allowed for one run; the bounds example below peaks near
# 140 MB, the small draws at a few MB.
CROSSVAL_PEAK_BOUND = 256 * 2 ** 20

# 4 patients, the fewest a k = 2 split accepts (2 test, 1 training and 1
# validation patient per fold), with T, K, d_t and d_c at their bounds of 256
# and 1024 on the costliest backbone. d, d_h, message_dim and attention_dim
# stay at 1: each of them multiplies the per-step work of all T steps, and
# with them at 1024 as well one such run takes 8-33 s and 0.4-1.9 GB.
BOUNDS_RUN = (4, {
    "model": {"backbone": "gat", "T": 256, "K": 256, "d_t": 1024, "d_c": 1024,
              "d": 1, "d_h": 1, "message_dim": 1, "attention_dim": 1},
    "train": {"batch_size": 32, "max_epochs": 2, "augment": True, "seed": 0},
    "eval": {"bootstrap_b": 100},
    "cv": {"k": 2, "repeats": 1}})


@st.composite
def crossval_runs(draw):
    """(patients, config document) of a tiny crossval inside every config rule."""
    bins = draw(st.integers(1, 6))
    model = {"backbone": draw(st.sampled_from(BACKBONES)), "T": draw(st.integers(1, 4)),
             "K": bins, "cascade": draw(st.booleans()),
             "integrator": draw(st.sampled_from(("lstm", "mean"))),
             **{key: draw(st.integers(1, 6)) for key in WIDTH_KEYS}}
    if draw(st.booleans()):
        widths = draw(st.lists(st.sampled_from((0.25, 0.5, 1.0, 2.0)),
                               min_size=bins, max_size=bins))
        model["bin_edges"] = [0.0, *np.cumsum(widths).tolist()]
    weights = draw(st.sampled_from(((1.0, 1.0), (0.0, 1.0), (2.0, 0.5))))
    train = {"lr": draw(st.sampled_from((1e-3, 0.1, 1e300))),
             "batch_size": draw(st.integers(1, 32)), "max_epochs": draw(st.integers(1, 2)),
             "patience": draw(st.integers(1, 2)), "alpha": weights[0], "beta": weights[1],
             "augment": draw(st.booleans()), "seed": draw(st.integers(0, 3))}
    return draw(st.integers(1, 30)), {
        "model": model, "train": train, "eval": {"bootstrap_b": 100},
        "cv": {"k": 2, "repeats": 1}}


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(crossval_runs())
@example(BOUNDS_RUN)
def test_accepted_config_runs_crossval_to_a_clean_exit(tmp_path, capsys, run):
    """An accepted config runs `crossval` to exit 0, 2 (a cohort the split
    rejects) or 3 (training failed), with at most one line on stderr, only
    on failure, no traceback, and a bounded tracemalloc peak."""
    n, doc = run
    config_from_dict(doc)
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    cohort = root / "cohort.json"
    save_cohort(simulate_cohort(30, 0)[0].take(slice(0, n)), cohort)
    (root / "run.json").write_text(json.dumps({**doc, "paths": {"cohort": str(cohort)}}))
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["crossval", "--config", str(root / "run.json"), "--out", str(root / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_DATA, EXIT_TRAINING)
    assert len(err.splitlines()) == (code != EXIT_OK)
    assert "Traceback" not in out + err
    assert peak < CROSSVAL_PEAK_BOUND
