"""Every malformed cohort, config or model file ends in its exit code.

A seeded fuzz mutates a valid file of each kind by byte flips, truncations
and insertions. Each mutated file must load, or be refused with the loader's
error in one line: the CLI prints that line and exits 2 for a cohort or a
model file, 1 for a config. Configs run through `main`; cohorts and model
files go to `load_cohort` and `load_model` directly, where the CLI would
only add time. A structure-aware fuzz puts valid JSON of a wrong type,
shape or nesting at every field of a cohort. The hand-made cases below each ended in a traceback before
their loaders caught them, and the cases after them ended in a traceback
or in a stderr line as long as the value they quoted.
"""

import collections
import copy
import io
import json
import struct
import zipfile

import numpy as np
import pytest

from trajsurv.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from trajsurv.cohort import (MAX_FEATURE_WIDTH, CohortError, Scenario, load_cohort, save_cohort,
                             simulate_cohort)
from trajsurv.crossval import feature_widths
from trajsurv.model import ModelConfig, ModelFileError, init_model, load_model, save_model

MUTATIONS = 300
SCENARIO = Scenario(region_len=4, clinical_len=3)
CONFIG = {"model": {"d": 8, "d_t": 4, "d_h": 8, "d_c": 4, "T": 3, "K": 4, "message_dim": 8},
          "train": {"lr": 0.01, "batch_size": 16, "max_epochs": 2, "seed": 0},
          "eval": {"bootstrap_b": 100}, "cv": {"k": 3, "repeats": 1}}


def mutants(raw: bytes, seed: int):
    """`MUTATIONS` copies of `raw`, each with one seeded byte flip, truncation
    or insertion of up to 8 random bytes, in turn."""
    rng = np.random.default_rng(seed)
    for i in range(MUTATIONS):
        at = int(rng.integers(0, len(raw)))
        if i % 3 == 0:
            yield raw[:at] + bytes([raw[at] ^ int(rng.integers(1, 256))]) + raw[at + 1:]
        elif i % 3 == 1:
            yield raw[:at]
        else:
            yield raw[:at] + rng.integers(0, 256, int(rng.integers(1, 9)), np.uint8).tobytes() \
                + raw[at:]


def exit_of(load, path, error) -> tuple[int, str]:
    """The exit code and stderr the CLI gives a file that `load` reads or
    refuses with `error`."""
    try:
        load(path)
    except error as exc:
        return EXIT_DATA, f"data error: {exc}\n"
    return EXIT_OK, ""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A cohort, a model for its widths and a config, each valid."""
    root = tmp_path_factory.mktemp("malformed")
    cohort, _ = simulate_cohort(10, seed=0, scenario=SCENARIO)
    save_cohort(cohort, root / "cohort.json")
    config = ModelConfig(hidden_dim=8, time_dim=4, summary_dim=8, context_dim=4, horizon=3,
                         num_bins=4, message_dim=8)
    save_model(init_model(config, feature_widths(cohort), np.random.default_rng(0)),
               root / "model.npz")
    (root / "run.json").write_text(json.dumps(
        {**CONFIG, "paths": {"cohort": str(root / "cohort.json")}}))
    return root


@pytest.mark.parametrize("kind", ("cohort", "model"))
def test_mutated_cohort_and_model_files_load_or_give_one_line(files, tmp_path, kind):
    name, load, error = {"cohort": ("cohort.json", load_cohort, CohortError),
                         "model": ("model.npz", load_model, ModelFileError)}[kind]
    bad = tmp_path / name
    codes = set()
    for raw in mutants((files / name).read_bytes(), seed=len(kind)):
        bad.write_bytes(raw)
        code, err = exit_of(load, bad, error)
        assert len(err.splitlines()) == (code != EXIT_OK), err
        codes.add(code)
    assert EXIT_DATA in codes


# What the structure-aware fuzz puts at a field path: each JSON type, empty
# and nested containers, NaN and an integer of 400 digits. `DROP` removes
# the field instead.
WRONG_VALUES = (None, True, False, 0, -1, 2.5, float("nan"), "", "x", [], [1], [[1]], {},
                {"a": 1}, 10 ** 400)
DROP = object()


def replaced(doc, path, value):
    """A copy of the JSON document `doc` with the field at `path`, a tuple of
    keys and indices, set to `value`, or removed for `DROP`."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def structure_mutants(doc):
    """Copies of `doc`: at every field path, each of `WRONG_VALUES` in place
    of the field, the field dropped, and at every object an extra key."""
    def nodes(node, path=()):
        yield path, node
        children = (node.items() if isinstance(node, dict)
                    else enumerate(node) if isinstance(node, list) else ())
        for key, child in children:
            yield from nodes(child, path + (key,))

    for path, node in list(nodes(doc)):
        extra = ({**node, "extra": 1},) if isinstance(node, dict) else ()
        for value in WRONG_VALUES + extra + ((DROP,) if path else ()):
            yield replaced(doc, path, value)


def test_structurally_wrong_cohorts_load_or_raise_cohort_error(tmp_path):
    # Valid JSON of the wrong type, shape or nesting at each field of a
    # 3-patient cohort with one region absent: each document loads, or is
    # refused with the loader's error in one line, never with another
    # exception. The counts pin how many changes the loader accepts, such as
    # an integer feature.
    cohort, _ = simulate_cohort(10, seed=0, scenario=Scenario(region_len=2, clinical_len=2))
    save_cohort(cohort[:3], tmp_path / "valid.json")
    doc = json.loads((tmp_path / "valid.json").read_text())
    doc["patients"][1]["regions"]["tumors"] = {"present": False}
    bad = tmp_path / "cohort.json"
    codes = collections.Counter()
    for changed in structure_mutants(doc):
        bad.write_text(json.dumps(changed))
        code, err = exit_of(load_cohort, bad, CohortError)
        assert len(err.splitlines()) == (code != EXIT_OK), err
        codes[code] += 1
    assert codes == {EXIT_OK: 251, EXIT_DATA: 2497}


def test_mutated_configs_exit_1_or_2_with_one_line(files, tmp_path, capsys):
    # The cohort path names no file, so a config that loads ends at the
    # cohort, with exit 2, and nothing is trained.
    raw = json.dumps({**CONFIG, "paths": {"cohort": str(tmp_path / "absent.json")}}).encode()
    bad = tmp_path / "run.json"
    codes = set()
    for mutated in mutants(raw, seed=3):
        bad.write_bytes(mutated)
        capsys.readouterr()
        code = main(["evaluate", "--config", str(bad), "--out", str(tmp_path / "out"),
                     "--model", str(files / "model.npz")])
        out, err = capsys.readouterr()
        assert code in (EXIT_USAGE, EXIT_DATA), err
        assert len(err.splitlines()) == 1 and "Traceback" not in out + err, err
        codes.add(code)
    assert codes == {EXIT_USAGE, EXIT_DATA}


def evaluate(files, tmp_path, capsys, config=None, cohort=None, model=None) -> tuple[int, str]:
    """`evaluate`'s exit code and stderr with the files of `files`, any of
    them replaced."""
    if cohort is not None:
        config = tmp_path / "with-cohort.json"
        config.write_text(json.dumps({**CONFIG, "paths": {"cohort": str(cohort)}}))
    capsys.readouterr()
    code = main(["evaluate", "--config", str(config or files / "run.json"),
                 "--out", str(tmp_path / "out"), "--model", str(model or files / "model.npz")])
    return code, capsys.readouterr().err


NESTED = b"[" * 200_000 + b"]" * 200_000


def test_a_cohort_nested_too_deep_exits_2(files, tmp_path, capsys):
    (tmp_path / "nested.json").write_bytes(NESTED)
    code, err = evaluate(files, tmp_path, capsys, cohort=tmp_path / "nested.json")
    assert code == EXIT_DATA and err.count("\n") == 1 and "not a readable JSON" in err, err


def test_a_config_nested_too_deep_exits_1(files, tmp_path, capsys):
    (tmp_path / "nested.json").write_bytes(b'{"train": ' + NESTED + b"}")
    code, err = evaluate(files, tmp_path, capsys, config=tmp_path / "nested.json")
    assert code == EXIT_USAGE and err.count("\n") == 1 and "not valid JSON" in err, err


def test_a_config_with_a_5001_digit_integer_exits_1(files, tmp_path, capsys):
    (tmp_path / "long.json").write_text('{"train": {"seed": ' + "1" * 5001 + "}}")
    code, err = evaluate(files, tmp_path, capsys, config=tmp_path / "long.json")
    assert code == EXIT_USAGE and err.count("\n") == 1 and "not valid JSON" in err, err


def test_a_model_file_of_an_unknown_compression_method_exits_2(files, tmp_path, capsys):
    # Compression method 99 in every central-directory entry: zipfile raises
    # NotImplementedError as it opens such a member.
    raw = bytearray((files / "model.npz").read_bytes())
    at = raw.find(b"PK\x01\x02")
    assert at > 0
    while at >= 0:
        raw[at + 10:at + 12] = struct.pack("<H", 99)
        at = raw.find(b"PK\x01\x02", at + 4)
    (tmp_path / "method99.npz").write_bytes(bytes(raw))
    code, err = evaluate(files, tmp_path, capsys, model=tmp_path / "method99.npz")
    assert code == EXIT_DATA and err.count("\n") == 1 and "compressed" in err, err


def test_a_member_declaring_more_bytes_than_it_holds_is_refused_unread(files, tmp_path):
    # The header of `heads.b_os` declares 2^40 float64 values, 8 TiB, over
    # the 32 bytes it holds: refused by the sizes alone, before any read.
    path = tmp_path / "forged.npz"
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": (1, 2 ** 40)})
    with zipfile.ZipFile(files / "model.npz") as src, zipfile.ZipFile(path, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename == "heads.b_os.npy":
                data = header.getvalue() + data[-32:]
            dst.writestr(info, data)
    with pytest.raises(ModelFileError, match="heads.b_os.npy declares 8796093022208 bytes"):
        load_model(path)


def one_short_line(err: str) -> bool:
    return err.count("\n") == 1 and len(err.encode()) < 1024


def test_a_config_with_a_200000_element_list_exits_1_with_one_short_line(files, tmp_path,
                                                                          capsys):
    (tmp_path / "long.json").write_text(json.dumps({"model": {"d": [0] * 200_000}}))
    code, err = evaluate(files, tmp_path, capsys, config=tmp_path / "long.json")
    assert code == EXIT_USAGE and one_short_line(err), err[:300]
    assert "model.d must be int, got [0, 0, 0" in err and "more characters" in err, err


@pytest.mark.parametrize("fault", ("present flag", "event"))
def test_a_300000_character_patient_id_exits_2_with_one_short_line(files, tmp_path, capsys,
                                                                    fault):
    # The present flag fails in `load_cohort`, the event in `make_cohort`.
    doc = json.loads((files / "cohort.json").read_text())
    patient = doc["patients"][3]
    patient["id"] = "p" * 300_000
    if fault == "present flag":
        patient["regions"]["liver"]["present"] = ["yes"] * 100_000
    else:
        patient["os"]["event"] = 2
    (tmp_path / "long-id.json").write_text(json.dumps(doc))
    code, err = evaluate(files, tmp_path, capsys, cohort=tmp_path / "long-id.json")
    assert code == EXIT_DATA and one_short_line(err), err[:300]
    assert "patient ppp" in err and "more characters" in err, err


def test_a_huge_feature_width_exits_2_before_anything_is_allocated(files, tmp_path, capsys):
    # Twelve patients with every region absent and region_len 10^12: the
    # regions array alone would take 480 TB.
    doc = json.loads((files / "cohort.json").read_text())
    first = doc["patients"][0]
    doc["patients"] = [{**first, "id": f"q{i}",
                        "regions": {key: {"present": False} for key in first["regions"]}}
                       for i in range(12)]
    doc["feature_schema"]["region_len"] = 10 ** 12
    (tmp_path / "wide.json").write_text(json.dumps(doc))
    code, err = evaluate(files, tmp_path, capsys, cohort=tmp_path / "wide.json")
    assert code == EXIT_DATA and one_short_line(err), err[:300]
    assert (f"feature_schema region_len must be at most {MAX_FEATURE_WIDTH}, "
            f"got 1000000000000") in err, err


@pytest.mark.parametrize("field", ("node kind", "feature width", "member name"))
def test_a_long_name_or_value_in_a_model_file_exits_2_with_one_short_line(files, tmp_path,
                                                                          capsys, field):
    with np.load(files / "model.npz") as archive:
        arrays = dict(archive)
    meta = json.loads(bytes(arrays.pop("__meta__")).decode())
    if field == "node kind":
        meta["feature_widths"]["k" * 300_000] = 4
    elif field == "feature width":
        meta["feature_widths"]["clinical"] = int("9" * 4000)
    path = tmp_path / "long.npz"
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), np.uint8), **arrays)
    if field == "member name":
        with zipfile.ZipFile(path, "a", compression=zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("m" * 60_000 + ".npy", b"")
    code, err = evaluate(files, tmp_path, capsys, model=path)
    assert code == EXIT_DATA and one_short_line(err), err[:300]
    assert "more characters" in err, err


def test_a_model_file_with_2000_extra_members_exits_2_with_one_short_line(files, tmp_path,
                                                                          capsys):
    # Listing every mismatch gave a 64,088-character line; the message names
    # the first few and counts the rest.
    with np.load(files / "model.npz") as archive:
        arrays = dict(archive)
    extra = {f"extra{i:05d}": np.zeros(1) for i in range(2000)}
    np.savez(tmp_path / "extra.npz", **arrays, **extra)
    code, err = evaluate(files, tmp_path, capsys, model=tmp_path / "extra.npz")
    assert code == EXIT_DATA and err.count("\n") == 1 and len(err) < 2000, err[:300]
    assert "extra00004 (1,) (expects none), and 1995 more" in err, err
