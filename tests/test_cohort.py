"""Cohort file round-trips, the synthetic simulator, splits, and augmentation."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajsurv.cohort import (REGION_KEYS, CohortError, PatientRecord, RegionData, Scenario,
                             augment, cohort_arrays, load_cohort, oracle_cindex,
                             record_to_graph, save_cohort, simulate_cohort,
                             stratified_repeated_kfold)
from trajsurv.graph import ANATOMICAL_KINDS, NodeKind


def tiny_record(pid, os_t, os_e, dfs_t=None, dfs_e=None):
    """One-region record with the minimum needed for label-driven tests."""
    from trajsurv.objective import SurvivalLabel
    regions = {kind: RegionData(False) for kind in ANATOMICAL_KINDS}
    regions[NodeKind.LIVER_PARENCHYMA] = RegionData(True, np.zeros(4), np.zeros(3))
    dfs_t = os_t if dfs_t is None else dfs_t
    dfs_e = os_e if dfs_e is None else dfs_e
    return PatientRecord(pid, regions, np.full(3, 0.5),
                         SurvivalLabel(float(dfs_t), dfs_e),
                         SurvivalLabel(float(os_t), os_e))


class TestRecordValidation:
    def test_dfs_after_os_rejected(self):
        with pytest.raises(CohortError, match="p1.*DFS time exceeds OS"):
            tiny_record("p1", os_t=3.0, os_e=1, dfs_t=5.0, dfs_e=1)

    def test_clinical_outside_unit_interval_rejected(self):
        from trajsurv.objective import SurvivalLabel
        regions = {kind: RegionData(False) for kind in ANATOMICAL_KINDS}
        regions[NodeKind.LIVER_PARENCHYMA] = RegionData(True, np.zeros(4), np.zeros(3))
        with pytest.raises(CohortError, match="p2.*clinical"):
            PatientRecord("p2", regions, np.array([1.5]),
                          SurvivalLabel(1.0, 1), SurvivalLabel(1.0, 1))

    def test_record_to_graph_skips_absent_regions(self):
        g = record_to_graph(tiny_record("p3", 2.0, 1))
        assert g.size == 1 and g.slots.size == 7
        assert g.slots[0].tolist() == [True, False, False, False, False, True, True]
        assert np.array_equal(g.offsets, np.zeros((1, 5, 3)))


def assert_same_records(expected, got):
    """Equal ids, presence flags and labels, and the same float64 bytes in every array."""
    assert [r.patient_id for r in got] == [r.patient_id for r in expected]
    for a, b in zip(expected, got):
        assert (a.dfs, a.os) == (b.dfs, b.os)
        assert all(type(lab.time) is float and type(lab.event) is int for lab in (b.dfs, b.os))
        assert [float(lab.time).hex() for lab in (a.dfs, a.os)] == \
            [lab.time.hex() for lab in (b.dfs, b.os)]
        assert [a.regions[k].present for k in ANATOMICAL_KINDS] == \
            [b.regions[k].present for k in ANATOMICAL_KINDS]
        pairs = [(a.clinical, b.clinical)]
        for k in ANATOMICAL_KINDS:
            if a.regions[k].present:
                pairs += [(a.regions[k].features, b.regions[k].features),
                          (a.regions[k].centroid, b.regions[k].centroid)]
        for x, y in pairs:
            assert y.dtype == np.float64 and y.shape == x.shape
            assert y.tobytes() == np.asarray(x, dtype=np.float64).tobytes()


def with_absent_region(record, kind=NodeKind.METASTATIC_TUMORS):
    regions = {**record.regions, kind: RegionData(False)}
    return PatientRecord(record.patient_id, regions, record.clinical, record.dfs, record.os)


def saved_doc(tmp_path, n=10):
    """A saved simulated cohort (regions 8, clinical 6), its path and its parsed JSON."""
    records, _ = simulate_cohort(n, seed=0)
    path = tmp_path / "c.json"
    save_cohort(records, path, region_len=8, clinical_len=6)
    return path, json.loads(path.read_text())


def _replace(doc, path, value):
    """Set the node at `path` (a sequence of keys and indices) of a parsed document."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value


def _patient3(*keys, value):
    """A change setting the field at `keys` of patient 3 (id sim0003) to `value`."""
    return lambda doc: _replace(doc, ("patients", 3) + keys, value)


# case -> (change to a parsed 10-patient cohort, expected message)
MALFORMED = {
    "time_null": (_patient3("dfs", "time_years", value=None),
                  "patient sim0003: dfs time_years must be a number"),
    "time_negative": (_patient3("os", "time_years", value=-1.0),
                      "patient sim0003: os time_years must be >= 0"),
    "event_half": (_patient3("os", "event", value=0.5),
                   "patient sim0003: os event must be 0 or 1"),
    "event_bool": (_patient3("os", "event", value=True),
                   "patient sim0003: os event must be a number"),
    "patients_null": (lambda d: d.update(patients=None), "patients must be a non-empty list"),
    "patients_empty": (lambda d: d.update(patients=[]), "patients must be a non-empty list"),
    "feature_string": (_patient3("regions", "liver", "features", 0, value="a"),
                       "patient sim0003: region liver features must hold only numbers"),
    "clinical_numeric_string": (_patient3("clinical", 2, value="0.5"),
                                "patient sim0003: clinical features must hold only numbers"),
    "region_len_string": (lambda d: d["feature_schema"].update(region_len="x"),
                          "feature_schema region_len must be a positive integer, got 'x'"),
    "schema_version_bool": (lambda d: d.update(schema_version=True),
                            "unsupported schema_version True"),
    "present_string": (_patient3("regions", "liver", "present", value="no"),
                       "patient sim0003: region liver present must be true or false, got 'no'"),
    "absent_with_data": (_patient3("regions", "tumors", "present", value=False),
                         "patient sim0003: region tumors is absent but has centroid, features"),
    "duplicate_id": (_patient3("id", value="sim0001"), "patient sim0001: duplicate id"),
    "id_int": (_patient3("id", value=3), r"patients\[3\]: id must be a non-empty string"),
    "patient_null": (lambda d: _replace(d, ("patients", 3), None),
                     r"patients\[3\] must have exactly id, regions, clinical, dfs, os"),
    "regions_list": (_patient3("regions", value=list(REGION_KEYS)),
                     "patient sim0003: regions must have exactly keys"),
}


class TestCohortFile:
    def test_round_trip_preserves_everything(self, tmp_path):
        records, _ = simulate_cohort(12, seed=3, scenario=Scenario(region_len=5,
                                                                   clinical_len=4))
        records[1] = with_absent_region(records[1])
        records[2].regions[NodeKind.HEPATIC_VEINS].features[0] = -0.0
        path = tmp_path / "cohort.json"
        save_cohort(records, path, region_len=5, clinical_len=4)
        assert_same_records(records, load_cohort(path))

    def test_one_patient_per_line(self, tmp_path):
        records, _ = simulate_cohort(12, seed=3)
        path = tmp_path / "cohort.json"
        save_cohort(records, path, region_len=8, clinical_len=6)
        lines = path.read_text().splitlines()
        assert len(lines) == len(records) + 2
        for rec, line in zip(records, lines[1:-1]):
            assert json.loads(line.rstrip(","))["id"] == rec.patient_id

    def test_indented_layout_loads_the_same_records(self, tmp_path):
        # Files written with json.dump(doc, fh, indent=1), one value per line.
        records, _ = simulate_cohort(12, seed=4)
        records[5] = with_absent_region(records[5], NodeKind.PORTAL_VEINS)
        path, old = tmp_path / "new.json", tmp_path / "old.json"
        save_cohort(records, path, region_len=8, clinical_len=6)
        with open(old, "w") as fh:
            json.dump(json.loads(path.read_text()), fh, indent=1)
            fh.write("\n")
        assert_same_records(load_cohort(path), load_cohort(old))
        assert_same_records(records, load_cohort(old))

    def test_absent_region_round_trips(self, tmp_path):
        rec = tiny_record("only-liver", 2.0, 1)
        path = tmp_path / "c.json"
        save_cohort([rec], path, region_len=4, clinical_len=3)
        text = path.read_text()
        assert '"present": false' in text
        loaded = load_cohort(path)
        assert not loaded[0].regions[NodeKind.METASTATIC_TUMORS].present

    def test_error_names_patient_and_field(self, tmp_path):
        records, _ = simulate_cohort(10, seed=0)
        path = tmp_path / "c.json"
        save_cohort(records, path, region_len=8, clinical_len=6)
        import json
        doc = json.loads(path.read_text())
        doc["patients"][4]["regions"]["tumors"]["features"] = [1.0, 2.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(CohortError, match="sim0004.*tumors.*length 8"):
            load_cohort(path)

    @pytest.mark.parametrize("field", ("features", "centroid", "clinical"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
    def test_nonfinite_value_names_patient_and_field(self, tmp_path, field, value):
        records, _ = simulate_cohort(10, seed=0)
        path = tmp_path / "c.json"
        save_cohort(records, path, region_len=8, clinical_len=6)
        import json
        doc = json.loads(path.read_text())
        patient = doc["patients"][3]
        if field == "clinical":
            patient["clinical"][1] = value
            message = "patient sim0003: clinical features must be finite"
        else:
            patient["regions"]["liver"][field][1] = value
            message = f"patient sim0003: region liver {field} must be finite"
        path.write_text(json.dumps(doc))
        with pytest.raises(CohortError, match=message):
            load_cohort(path)

    def test_dfs_exceeding_os_rejected_on_load(self, tmp_path):
        records, _ = simulate_cohort(10, seed=0)
        path = tmp_path / "c.json"
        save_cohort(records, path, region_len=8, clinical_len=6)
        import json
        doc = json.loads(path.read_text())
        doc["patients"][0]["dfs"]["time_years"] = 1e9
        path.write_text(json.dumps(doc))
        with pytest.raises(CohortError, match="DFS time exceeds OS"):
            load_cohort(path)

    def test_schema_version_enforced(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"schema_version": 99, "feature_schema": '
                        '{"region_len": 4, "clinical_len": 3}, "patients": []}')
        with pytest.raises(CohortError, match="schema_version"):
            load_cohort(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"schema_version": 1, "patients": [], "extra": 1, '
                        '"feature_schema": {"region_len": 4, "clinical_len": 3}}')
        with pytest.raises(CohortError, match="top level"):
            load_cohort(path)

    @pytest.mark.parametrize("case", MALFORMED, ids=list(MALFORMED))
    def test_malformed_field_names_patient_and_field(self, tmp_path, case):
        change, message = MALFORMED[case]
        path, doc = saved_doc(tmp_path)
        change(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CohortError, match=message):
            load_cohort(path)

    @pytest.mark.parametrize("text", ("", "{", '{"schema_version": 1, "patients": [',
                                      b"\x80", None))
    def test_unreadable_file_is_named(self, tmp_path, text):
        path = tmp_path / "truncated.json"
        if text is None:
            path.mkdir()
        else:
            (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        with pytest.raises(CohortError, match=f"{path}: not a readable JSON document"):
            load_cohort(path)


class TestSimulator:
    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError, match="at least 10"):
            simulate_cohort(9, seed=0)

    def test_same_seed_is_identical(self):
        a, ga = simulate_cohort(20, seed=42)
        b, gb = simulate_cohort(20, seed=42)
        assert np.array_equal(ga, gb)
        for ra, rb in zip(a, b):
            assert ra.os == rb.os and ra.dfs == rb.dfs
            assert np.array_equal(ra.clinical, rb.clinical)
            for kind in ANATOMICAL_KINDS:
                assert np.array_equal(ra.regions[kind].features,
                                      rb.regions[kind].features)

    def test_dfs_never_after_os(self):
        records, _ = simulate_cohort(500, seed=1)
        assert all(r.dfs.time <= r.os.time for r in records)

    def test_event_times_are_integer_years(self):
        records, _ = simulate_cohort(300, seed=2)
        for r in records:
            if r.os.event:
                assert r.os.time == int(r.os.time)
            if r.dfs.event:
                assert r.dfs.time == int(r.dfs.time)

    def test_censoring_rate_calibrated(self):
        records, _ = simulate_cohort(10000, seed=7,
                                     scenario=Scenario(censoring_rate=0.3))
        censored = sum(1 - r.os.event for r in records) / len(records)
        assert abs(censored - 0.3) < 0.03

    def test_zero_censoring_means_all_events(self):
        records, _ = simulate_cohort(50, seed=3,
                                     scenario=Scenario(censoring_rate=0.0))
        assert all(r.os.event == 1 and r.dfs.event == 1 for r in records)

    def test_unit_hazard_ratio_gives_chance_oracle(self):
        scenario = Scenario(hazard_ratio=1.0, censoring_rate=0.0)
        records, groups = simulate_cohort(100, seed=4, scenario=scenario)
        assert oracle_cindex(records, groups, scenario, "os") == 0.5

    def test_default_scenario_oracle_is_informative(self):
        scenario = Scenario()
        records, groups = simulate_cohort(400, seed=0, scenario=scenario)
        assert oracle_cindex(records, groups, scenario, "os") > 0.7
        assert oracle_cindex(records, groups, scenario, "dfs") > 0.7

    def test_clinical_features_normalized(self):
        records, _ = simulate_cohort(60, seed=5)
        stacked = np.stack([r.clinical for r in records])
        assert stacked.min() >= 0.0 and stacked.max() <= 1.0
        assert np.allclose(stacked.min(axis=0), 0.0)
        assert np.allclose(stacked.max(axis=0), 1.0)

    def test_every_record_builds_a_clean_graph(self):
        records, _ = simulate_cohort(10, seed=6)
        data = cohort_arrays(records)
        assert data.present.all()
        assert np.isfinite(data.offsets).all() and np.abs(data.offsets).max() <= 1.0
        np.testing.assert_allclose(data.global_features, data.regions.mean(axis=1),
                                   rtol=0, atol=1e-15)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(censoring_rate=1.0)
        with pytest.raises(ValueError):
            Scenario(hazard_ratio=0.0)
        with pytest.raises(ValueError):
            Scenario(base_os_hazard=0.4, base_dfs_hazard=0.3)


class TestSplits:
    def ten_patient_records(self):
        # 4 OS events among 10 patients, distinct times.
        recs = []
        for i in range(10):
            event = 1 if i < 4 else 0
            recs.append(tiny_record(f"p{i}", os_t=i + 1.0, os_e=event))
        return recs

    def test_fold_sizes_and_event_balance(self):
        records = self.ten_patient_records()
        folds = stratified_repeated_kfold(records, k=5, repeats=1, seed=0)
        assert len(folds) == 5
        event_counts = []
        for spec in folds:
            assert len(spec.test) == 2
            event_counts.append(sum(records[i].os.event for i in spec.test))
        assert max(event_counts) - min(event_counts) <= 1

    def test_each_repeat_partitions_the_cohort(self):
        records, _ = simulate_cohort(60, seed=8)
        folds = stratified_repeated_kfold(records, k=5, repeats=3, seed=1)
        assert len(folds) == 15
        for rep in range(3):
            tests = [set(s.test) for s in folds if s.repeat == rep]
            assert sum(len(t) for t in tests) == 60
            assert set().union(*tests) == set(range(60))

    def test_repeats_reshuffle(self):
        records, _ = simulate_cohort(60, seed=8)
        folds = stratified_repeated_kfold(records, k=5, repeats=2, seed=1)
        first = [s for s in folds if s.repeat == 0]
        second = [s for s in folds if s.repeat == 1]
        assert any(a.test != b.test for a, b in zip(first, second))

    def test_inner_split_is_disjoint_and_sized(self):
        records, _ = simulate_cohort(50, seed=9)
        folds = stratified_repeated_kfold(records, k=5, repeats=1, seed=2)
        for spec in folds:
            test, train, val = set(spec.test), set(spec.train), set(spec.val)
            assert not (train & val) and not (train & test) and not (val & test)
            assert train | val == set(range(50)) - test
            assert abs(len(val) - 0.2 * (50 - len(test))) <= 1

    def test_same_seed_same_plan(self):
        records, _ = simulate_cohort(40, seed=10)
        a = stratified_repeated_kfold(records, k=5, repeats=2, seed=3)
        b = stratified_repeated_kfold(records, k=5, repeats=2, seed=3)
        assert a == b

    def test_cohort_smaller_than_k_rejected(self):
        with pytest.raises(ValueError, match="cannot form"):
            stratified_repeated_kfold([tiny_record("p", 1.0, 1)] * 3, k=5)

    def test_huge_k_rejected_before_any_fold_is_built(self):
        # Dealing first would build one list per fold: about 64 MB at k = 10**6.
        records, _ = simulate_cohort(40, seed=10)
        tracemalloc.start()
        try:
            with pytest.raises(CohortError, match="40 patients cannot form 1000000 folds"):
                stratified_repeated_kfold(records, k=10**6, repeats=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestAugment:
    def source(self, n=1):
        records, _ = simulate_cohort(10, seed=11)
        return cohort_arrays(records[:n])

    def test_original_comes_first_untouched(self):
        data = self.source(n=2)
        out = augment(data, seeds=[0, 1])
        assert len(out) == 10
        for i, row in ((0, 0), (1, 5)):
            assert np.array_equal(out.regions[row], data.regions[i])
            assert np.array_equal(out.present[row], data.present[i])
            assert np.array_equal(out.offsets[row], data.offsets[i])
            assert np.array_equal(out.global_features[row], data.global_features[i])
            assert np.array_equal(out.clinical[row], data.clinical[i])

    def test_zero_noise_zero_dropout_is_identity(self):
        data = self.source()
        out = augment(data, seeds=[0], dropout_p=0.0, sigma=0.0)
        for name in ("regions", "present", "offsets", "global_features", "clinical"):
            assert np.array_equal(getattr(out, name), np.repeat(getattr(data, name), 5, axis=0))

    def test_full_dropout_keeps_one_region(self):
        out = augment(self.source(), seeds=[1], dropout_p=1.0)
        for row in range(1, 5):
            assert out.present[row].tolist() == [False] * 4 + [True]
            assert not out.regions[row, :4].any() and not out.offsets[row, :4].any()

    def test_hubs_always_survive(self):
        out = augment(self.source(), seeds=[2], dropout_p=0.5)
        batch = out.batch()
        assert batch.slots[:, 5:].all()
        assert out.present.any(axis=1).all()

    def test_fixed_seed_reproducible(self):
        a = augment(self.source(n=3), seeds=[5, 6, 7])
        b = augment(self.source(n=3), seeds=[5, 6, 7])
        for name in ("regions", "present", "offsets", "global_features", "clinical"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_variants_validate_clean(self):
        data = self.source()
        out = augment(data, seeds=[3], dropout_p=0.3, sigma=0.5)
        for row in range(5):
            kept = out.present[row]
            assert kept.any() and not (kept & ~data.present[0]).any()
            assert np.array_equal(out.offsets[row, kept], data.offsets[0, kept])
            assert not out.regions[row, ~kept].any() and not out.offsets[row, ~kept].any()

    def test_noise_actually_perturbs(self):
        data = self.source()
        out = augment(data, seeds=[4], dropout_p=0.0, sigma=0.1)
        assert not np.array_equal(out.regions[1, 0], data.regions[0, 0])

    def test_variants_match_pinned_draws(self):
        # Drawn by the graph-object augment this one replaced: the same random
        # draws in the same order give the same variants.
        out = augment(self.source(), seeds=[5], dropout_p=0.3, sigma=0.2)
        assert out.present.astype(int).tolist() == [
            [1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 1, 1, 1, 0], [1, 0, 1, 0, 1], [1, 1, 1, 1, 1]]
        assert out.global_features[:, 0].tolist() == [
            -0.27733850412107686, -0.3119695490934833, -0.47154577982529,
            -0.3386258894914517, 0.1546575898347256]
        assert out.clinical[:, -1].tolist() == [
            0.37196257958719037, -0.027600758902753875, 0.12010114781154485,
            0.4965969543257037, 0.7473463780780256]
        assert out.regions[[0, 3, 4], 4, 1].tolist() == [
            -0.2506696164506272, -0.24104581965265948, -0.3604585735634802]

    def test_labels_follow_their_patient(self):
        records, _ = simulate_cohort(10, seed=11)
        from trajsurv.heads import annual_bins
        data = cohort_arrays(records[:3], annual_bins(12))
        out = augment(data, seeds=[0, 1, 2])
        for task in ("os", "dfs"):
            assert np.array_equal(out.labels[task], np.repeat(data.labels[task], 5, axis=0))


# ---------------------------------------------------------------------------
# Loader fuzz: a mutated cohort file loads unchanged or is a data error.
# ---------------------------------------------------------------------------


def _json_kind(value):
    return "number" if type(value) in (int, float) else type(value).__name__


def _nodes(node, path=()):
    """(path, value) of every node of a parsed JSON document, the root first."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A saved 12-patient cohort with one absent region, a model for its widths, a config."""
    from trajsurv.model import ModelConfig, init_model, save_model
    root = tmp_path_factory.mktemp("fuzz")
    records, _ = simulate_cohort(12, seed=5, scenario=Scenario(region_len=4, clinical_len=3))
    records[2] = with_absent_region(records[2])
    save_cohort(records, root / "base.json", region_len=4, clinical_len=3)
    widths = {**{k: 4 for k in ANATOMICAL_KINDS}, NodeKind.GLOBAL_CT: 4, NodeKind.CLINICAL: 3}
    config = ModelConfig(hidden_dim=8, time_dim=4, summary_dim=8, context_dim=4, horizon=3,
                         num_bins=4, message_dim=8)
    save_model(init_model(config, widths, np.random.default_rng(0)), root / "model.npz")
    (root / "run.json").write_text(json.dumps(
        {"eval": {"bootstrap_b": 100}, "paths": {"cohort": str(root / "mutated.json")}}))
    return root, (root / "base.json").read_text(), load_cohort(root / "base.json")


MUTATIONS = ("truncate", "drop_key", "wrong_type", "nonfinite", "empty_list", "wrong_length")


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(MUTATIONS), st.data())
def test_mutated_cohort_loads_unchanged_or_exits_2(fuzz_base, mutation, data):
    from trajsurv.cli import EXIT_DATA, EXIT_OK, main
    root, text, records = fuzz_base
    doc = json.loads(text)
    nodes = list(_nodes(doc))
    if mutation == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    else:
        if mutation == "drop_key":
            path, node = data.draw(st.sampled_from([(p, v) for p, v in nodes
                                                    if isinstance(v, dict) and v]))
            del node[data.draw(st.sampled_from(sorted(node)))]
        elif mutation == "wrong_type":
            path, node = data.draw(st.sampled_from(nodes[1:]))
            _replace(doc, path, data.draw(st.sampled_from(
                [v for v in (None, "x", True, 0, [], {}) if _json_kind(v) != _json_kind(node)])))
        elif mutation == "nonfinite":
            path, _ = data.draw(st.sampled_from([(p, v) for p, v in nodes
                                                 if _json_kind(v) == "number"]))
            _replace(doc, path, data.draw(st.sampled_from((np.nan, np.inf, -np.inf))))
        elif mutation == "empty_list":
            path, _ = data.draw(st.sampled_from([(p, v) for p, v in nodes
                                                 if isinstance(v, list) and v]))
            _replace(doc, path, [])
        else:  # a numeric list one value longer or shorter
            path, node = data.draw(st.sampled_from(
                [(p, v) for p, v in nodes if isinstance(v, list) and v
                 and all(_json_kind(x) == "number" for x in v)]))
            _replace(doc, path, node + [0.5] if data.draw(st.booleans()) else node[:-1])
        text = json.dumps(doc)
    (root / "mutated.json").write_text(text)
    try:
        loaded = load_cohort(root / "mutated.json")
    except CohortError:
        expected = EXIT_DATA
    else:
        assert_same_records(records, loaded)
        expected = EXIT_OK
    assert main(["evaluate", "--config", str(root / "run.json"), "--out", str(root / "out"),
                 "--model", str(root / "model.npz")]) == expected
