"""Cohort file round-trips, the synthetic simulator, splits, and augmentation."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import list_kfold, per_region_simulate
from trajsurv.cohort import (_MIN_GROUP_HAZARD, REGION_KEYS, CohortError, Scenario,
                             _geometric_time, augment, load_cohort, make_cohort,
                             oracle_cindex, record_to_graph, save_cohort, simulate_cohort,
                             stratified_repeated_kfold)
from trajsurv.graph import ANATOMICAL_KINDS, NodeKind, slots_in_use


def tiny_cohort(os_t, os_e):
    """Patients p0, p1, ... with only a liver region (4 zero features) and
    DFS equal to OS."""
    n = len(os_t)
    present = np.zeros((n, 5), dtype=bool)
    present[:, 0] = True
    time = np.array(os_t, dtype=np.float64)
    event = np.array(os_e, dtype=np.int64)
    return make_cohort([f"p{i}" for i in range(n)], np.zeros((n, 5, 4)), present,
                       np.zeros((n, 5, 3)), np.full((n, 3), 0.5),
                       {"dfs": time, "os": time}, {"dfs": event, "os": event})


def saved_text(tmp_path, change, n=10):
    """The saved simulated cohort of `saved_doc` with `change` applied to its
    parsed JSON, written back; returns its path."""
    path, doc = saved_doc(tmp_path, n)
    change(doc)
    path.write_text(json.dumps(doc))
    return path


# case -> (field, task, value for patient 3 (id sim0003), expected message), a fault
# that `make_cohort` and the loader both reject with the same message
LABEL_FAULTS = {
    "os_event_2": ("event", "os", 2, "patient sim0003: os event must be 0 or 1"),
    "os_event_half": ("event", "os", 0.5, "patient sim0003: os event must be 0 or 1"),
    "dfs_time_negative": ("time_years", "dfs", -0.5,
                          "patient sim0003: dfs time_years must be >= 0"),
    "os_time_nan": ("time_years", "os", float("nan"),
                    "patient sim0003: os time_years must be finite"),
    "repeated_id": ("id", None, "sim0001", "patient sim0001: duplicate id"),
}


class TestRecordValidation:
    def test_dfs_after_os_rejected(self, tmp_path):
        path = saved_text(tmp_path, _patient3("dfs", "time_years", value=99.0))
        with pytest.raises(CohortError, match="^patient sim0003: DFS time exceeds OS time$"):
            load_cohort(path)

    def test_clinical_outside_unit_interval_rejected(self, tmp_path):
        path = saved_text(tmp_path, _patient3("clinical", 0, value=1.5))
        with pytest.raises(CohortError,
                           match=r"^patient sim0003: clinical features outside \[0, 1\]$"):
            load_cohort(path)

    def test_record_to_graph_skips_absent_regions(self):
        g = record_to_graph(tiny_cohort([2.0], [1])[0])
        assert len(g) == 1 and g.ids.tolist() == ["p0"]
        assert slots_in_use(g.present)[0].tolist() == [True, False, False, False, False,
                                                       True, True]
        assert np.array_equal(g.offsets, np.zeros((1, 5, 3)))

    def test_first_faulty_patient_in_file_order_is_named(self, tmp_path):
        # Patient 2 breaks the last rule; patient 5, later, breaks the first.
        def change(doc):
            doc["patients"][2]["clinical"][0] = -0.5
            doc["patients"][5]["regions"] = {key: {"present": False} for key in REGION_KEYS}
        with pytest.raises(CohortError,
                           match=r"^patient sim0002: clinical features outside \[0, 1\]$"):
            load_cohort(saved_text(tmp_path, change))

        # Patient 2 has DFS after OS; patient 5, later, a negative time. The
        # label values are checked per patient with the other rules.
        def labels(doc):
            doc["patients"][2]["dfs"]["time_years"] = 99.0
            doc["patients"][5]["dfs"]["time_years"] = -1.0
        with pytest.raises(CohortError, match="^patient sim0002: DFS time exceeds OS time$"):
            load_cohort(saved_text(tmp_path, labels))

    @pytest.mark.parametrize("no_regions, message", ((True, "no region is present"),
                                                     (False, "DFS time exceeds OS time")))
    def test_one_patient_breaking_several_rules_names_the_first(self, tmp_path, no_regions,
                                                                message):
        def change(doc):
            patient = doc["patients"][4]
            if no_regions:
                patient["regions"] = {key: {"present": False} for key in REGION_KEYS}
            patient["dfs"]["time_years"] = 99.0
            patient["clinical"][0] = 2.0
        with pytest.raises(CohortError, match=f"^patient sim0004: {message}$"):
            load_cohort(saved_text(tmp_path, change))

    def test_clearing_every_region_of_a_patient_is_rejected(self):
        # The rules hold for every cohort built, not only for a loaded one.
        cohort, _ = simulate_cohort(10, seed=0)
        present = cohort.present.copy()
        present[[3, 6]] = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CohortError, match="^patient sim0003: no region is present$"):
                cohort.with_presence(present)

    @pytest.mark.parametrize("case", LABEL_FAULTS, ids=list(LABEL_FAULTS))
    def test_label_and_id_faults_are_rejected_by_make_cohort(self, tmp_path, case):
        # A cohort built in Python keeps the rules a cohort file keeps, with
        # the loader's messages.
        field, task, value, message = LABEL_FAULTS[case]
        cohort, _ = simulate_cohort(10, seed=0)
        ids = cohort.ids.copy()
        time = {t: cohort.time[t].astype(np.float64) for t in ("dfs", "os")}
        event = {t: cohort.event[t].astype(np.float64) for t in ("dfs", "os")}
        if field == "id":
            ids[3] = value
        else:
            (time if field == "time_years" else event)[task][3] = value
        with pytest.raises(CohortError, match=f"^{message}$"):
            make_cohort(ids, cohort.regions, cohort.present, cohort.centroids,
                        cohort.clinical, time, event)
        keys = (field,) if field == "id" else (task, field)
        with pytest.raises(CohortError, match=f"^{message}$"):
            load_cohort(saved_text(tmp_path, _patient3(*keys, value=value)))


_TIMES = [0, 2, True, 0.0, 1.0, 3.0, 1e300]
_EVENTS = [0, 1, True, False, 0.0, 1.0]
_BAD = [2, -1, 0.5, -0.5, float("nan"), float("inf"), -float("inf")]
# One patient's (DFS time, DFS event, OS time, OS event): values a cohort file
# may hold, or any of them with faulty ones mixed in.
_LABELS = (st.tuples(*[st.sampled_from(v) for v in (_TIMES, _EVENTS) * 2]).map(
               lambda x: (min(x[0], x[2]), x[1], max(x[0], x[2]), x[3]))
           | st.tuples(*[st.sampled_from(_TIMES + _EVENTS + _BAD)] * 4))


@settings(max_examples=100, deadline=None)
@given(st.lists(_LABELS, min_size=1, max_size=4))
def test_every_cohort_make_cohort_accepts_reads_back_patient_by_patient(labels):
    # Times and flags of any value: `make_cohort` rejects the cohort, or it
    # holds the flags as int64 and each of its rows is a valid `PatientRecord`.
    dfs_t, dfs_e, os_t, os_e = (np.array(column) for column in zip(*labels))
    n = len(labels)
    try:
        cohort = make_cohort([f"p{i}" for i in range(n)], np.zeros((n, 5, 4)),
                             np.ones((n, 5), dtype=bool), np.zeros((n, 5, 3)),
                             np.full((n, 3), 0.5), {"dfs": dfs_t, "os": os_t},
                             {"dfs": dfs_e, "os": os_e})
    except CohortError:
        return
    assert cohort.event["dfs"].dtype == cohort.event["os"].dtype == np.int64
    for i, record in enumerate(cohort):
        assert (record.dfs.time, record.os.event) == (float(dfs_t[i]), int(os_e[i]))


def assert_same_cohort(expected, got):
    """Equal ids, and the same dtype, shape and bytes in every array."""
    assert got.ids.tolist() == expected.ids.tolist()
    for name in ("regions", "present", "centroids", "offsets", "global_features", "clinical"):
        x, y = getattr(expected, name), getattr(got, name)
        assert y.dtype == x.dtype and y.shape == x.shape and y.tobytes() == x.tobytes(), name
    for task in ("dfs", "os"):
        for x, y in ((expected.time[task], got.time[task]),
                     (expected.event[task], got.event[task])):
            assert y.dtype == x.dtype and y.tolist() == x.tolist()
            assert y.tobytes() == x.tobytes(), task


def with_absent_region(cohort, row, kind=NodeKind.METASTATIC_TUMORS):
    present = cohort.present.copy()
    present[row, ANATOMICAL_KINDS.index(kind)] = False
    return cohort.with_presence(present)


def saved_doc(tmp_path, n=10):
    """A saved simulated cohort (regions 8, clinical 6), its path and its parsed JSON."""
    cohort, _ = simulate_cohort(n, seed=0)
    path = tmp_path / "c.json"
    save_cohort(cohort, path)
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
    def test_region_keys_name_the_node_kinds_in_slot_order(self):
        # A file's region keys reach the node kinds by position: the j-th key
        # fills region slot j, whose embedding is ANATOMICAL_KINDS[j]'s. Two
        # keys swapped would feed the liver's features to the remnant's
        # weights, and a saved model would read them in the wrong slot.
        assert list(REGION_KEYS.items()) == [
            ("liver", NodeKind.LIVER_PARENCHYMA),
            ("remnant", NodeKind.FUTURE_LIVER_REMNANT),
            ("hepatic_veins", NodeKind.HEPATIC_VEINS),
            ("portal_veins", NodeKind.PORTAL_VEINS),
            ("tumors", NodeKind.METASTATIC_TUMORS)]
        assert tuple(REGION_KEYS.values()) == ANATOMICAL_KINDS

    def test_round_trip_preserves_everything(self, tmp_path):
        cohort, _ = simulate_cohort(12, seed=3, scenario=Scenario(region_len=5,
                                                                  clinical_len=4))
        cohort.regions[2, ANATOMICAL_KINDS.index(NodeKind.HEPATIC_VEINS), 0] = -0.0
        cohort = with_absent_region(cohort, 1)
        path = tmp_path / "cohort.json"
        save_cohort(cohort, path)
        loaded = load_cohort(path)
        assert_same_cohort(cohort, loaded)
        assert [(r.patient_id, r.dfs, r.os) for r in loaded] == \
            [(r.patient_id, r.dfs, r.os) for r in cohort]

    def test_one_patient_per_line(self, tmp_path):
        cohort, _ = simulate_cohort(12, seed=3)
        path = tmp_path / "cohort.json"
        save_cohort(cohort, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(cohort) + 2
        for pid, line in zip(cohort.ids, lines[1:-1]):
            assert json.loads(line.rstrip(","))["id"] == pid

    def test_indented_layout_loads_the_same_records(self, tmp_path):
        # Files written with json.dump(doc, fh, indent=1), one value per line.
        cohort, _ = simulate_cohort(12, seed=4)
        cohort = with_absent_region(cohort, 5, NodeKind.PORTAL_VEINS)
        path, old = tmp_path / "new.json", tmp_path / "old.json"
        save_cohort(cohort, path)
        with open(old, "w") as fh:
            json.dump(json.loads(path.read_text()), fh, indent=1)
            fh.write("\n")
        assert_same_cohort(load_cohort(path), load_cohort(old))
        assert_same_cohort(cohort, load_cohort(old))

    def test_absent_region_round_trips(self, tmp_path):
        path = tmp_path / "c.json"
        save_cohort(tiny_cohort([2.0], [1]), path)
        text = path.read_text()
        assert '"present": false' in text
        loaded = load_cohort(path)
        assert loaded.present[0].tolist() == [True, False, False, False, False]

    def test_widths_come_from_the_arrays(self, tmp_path):
        cohort = simulate_cohort(10, 0)[0]
        path = tmp_path / "w.json"
        with pytest.raises(ValueError, match="region_len is 5, but the cohort's features "
                                             "have width 8"):
            save_cohort(cohort, path, 5, 6)
        with pytest.raises(ValueError, match="clinical_len is 5, .* width 6"):
            save_cohort(cohort, path, clinical_len=5)
        assert not path.exists()
        save_cohort(cohort, path, 8, 6)
        assert json.loads(path.read_text())["feature_schema"] == {"region_len": 8,
                                                                  "clinical_len": 6}
        assert_same_cohort(cohort, load_cohort(path))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(10, 30), st.integers(0, 2 ** 31 - 1), st.data())
    def test_load_then_save_rewrites_the_file_byte_for_byte(self, tmp_path, n, seed, data):
        cohort, _ = simulate_cohort(n, seed, Scenario(region_len=3, clinical_len=2))
        present = np.array(data.draw(st.lists(
            st.lists(st.booleans(), min_size=5, max_size=5).filter(any),
            min_size=n, max_size=n)))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_cohort(cohort.with_presence(present), first)
        save_cohort(load_cohort(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_error_names_patient_and_field(self, tmp_path):
        def change(doc):
            doc["patients"][4]["regions"]["tumors"]["features"] = [1.0, 2.0]
        path = saved_text(tmp_path, change)
        with pytest.raises(CohortError, match="sim0004.*tumors.*length 8"):
            load_cohort(path)

    @pytest.mark.parametrize("field", ("features", "centroid", "clinical"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
    def test_nonfinite_value_names_patient_and_field(self, tmp_path, field, value):
        path, doc = saved_doc(tmp_path)
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
        def change(doc):
            doc["patients"][0]["dfs"]["time_years"] = 1e9
        path = saved_text(tmp_path, change)
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
        with pytest.raises(CohortError, match=message):
            load_cohort(saved_text(tmp_path, change))

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
        assert_same_cohort(a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(10, 300), st.sampled_from([0, 2 ** 32 - 1]) | st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, 3.0), st.sampled_from([0.0, 0.3, 0.9]) | st.floats(0.0, 0.99),
           st.integers(1, 20), st.integers(1, 10), st.floats(1e-3, 0.999),
           st.floats(0.0, 1.0), st.floats(0.01, 20.0))
    def test_is_the_per_region_form(self, n, seed, signal, censoring, region_len,
                                    clinical_len, base_os, dfs_share, hazard_ratio):
        scenario = Scenario(signal_strength=signal, censoring_rate=censoring,
                            hazard_ratio=hazard_ratio, base_os_hazard=base_os,
                            base_dfs_hazard=min(base_os + dfs_share * (1.0 - base_os), 0.999),
                            region_len=region_len, clinical_len=clinical_len)
        want, want_groups = per_region_simulate(n, seed, scenario)
        got, groups = simulate_cohort(n, seed, scenario)
        assert_same_cohort(want, got)
        for name in ("regions", "centroids", "offsets", "global_features", "clinical"):
            assert getattr(got, name).strides == getattr(want, name).strides, name
        assert groups.dtype == want_groups.dtype and np.array_equal(groups, want_groups)

    def test_dfs_never_after_os(self):
        cohort, _ = simulate_cohort(500, seed=1)
        assert (cohort.time["dfs"] <= cohort.time["os"]).all()

    def test_event_times_are_integer_years(self):
        cohort, _ = simulate_cohort(300, seed=2)
        for task in ("os", "dfs"):
            t = cohort.time[task][cohort.event[task] == 1]
            assert np.array_equal(t, np.floor(t))

    def test_censoring_rate_calibrated(self):
        cohort, _ = simulate_cohort(10000, seed=7, scenario=Scenario(censoring_rate=0.3))
        censored = 1.0 - cohort.event["os"].mean()
        assert abs(censored - 0.3) < 0.03

    def test_zero_censoring_means_all_events(self):
        cohort, _ = simulate_cohort(50, seed=3, scenario=Scenario(censoring_rate=0.0))
        assert (cohort.event["os"] == 1).all() and (cohort.event["dfs"] == 1).all()

    def test_unit_hazard_ratio_gives_chance_oracle(self):
        scenario = Scenario(hazard_ratio=1.0, censoring_rate=0.0)
        cohort, groups = simulate_cohort(100, seed=4, scenario=scenario)
        assert oracle_cindex(cohort, groups, scenario, "os") == 0.5

    def test_default_scenario_oracle_is_informative(self):
        scenario = Scenario()
        cohort, groups = simulate_cohort(400, seed=0, scenario=scenario)
        assert oracle_cindex(cohort, groups, scenario, "os") > 0.7
        assert oracle_cindex(cohort, groups, scenario, "dfs") > 0.7

    def test_clinical_features_normalized(self):
        cohort, _ = simulate_cohort(60, seed=5)
        stacked = cohort.clinical
        assert stacked.min() >= 0.0 and stacked.max() <= 1.0
        assert np.allclose(stacked.min(axis=0), 0.0)
        assert np.allclose(stacked.max(axis=0), 1.0)

    def test_every_record_builds_a_clean_graph(self):
        data, _ = simulate_cohort(10, seed=6)
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

    def test_smallest_group_hazard_draws_exact_integer_times(self):
        """At the smallest accepted hazard the largest uniform draw gives the
        time 2^53 - 1; one ulp below it, or a group hazard made that small by
        the ratio, the scenario is refused before any draw."""
        h = _MIN_GROUP_HAZARD
        largest_u = np.array([np.nextafter(1.0, 0.0)])
        assert _geometric_time(largest_u, np.array([h])).tolist() == [2 ** 53 - 1]
        Scenario(base_os_hazard=h, base_dfs_hazard=h)
        for kwargs in ({"base_os_hazard": np.nextafter(h, 0.0), "base_dfs_hazard": h},
                       {"base_os_hazard": 1e-17, "base_dfs_hazard": 1e-17},
                       {"base_os_hazard": 1e-300, "base_dfs_hazard": 1e-300},
                       {"hazard_ratio": 1e-300}):
            with pytest.raises(ValueError, match="exact integer"):
                Scenario(**kwargs)


class TestSplits:
    def test_fold_sizes_and_event_balance(self):
        # 4 OS events among 10 patients, distinct times.
        cohort = tiny_cohort(np.arange(1.0, 11.0), [1] * 4 + [0] * 6)
        folds = stratified_repeated_kfold(cohort, k=5, repeats=1, seed=0)
        assert len(folds) == 5
        event_counts = []
        for spec in folds:
            assert len(spec.test) == 2
            event_counts.append(int(cohort.event["os"][spec.test].sum()))
        assert max(event_counts) - min(event_counts) <= 1

    def test_each_repeat_partitions_the_cohort(self):
        cohort, _ = simulate_cohort(60, seed=8)
        folds = stratified_repeated_kfold(cohort, k=5, repeats=3, seed=1)
        assert len(folds) == 15
        for rep in range(3):
            tests = [set(s.test) for s in folds if s.repeat == rep]
            assert sum(len(t) for t in tests) == 60
            assert set().union(*tests) == set(range(60))

    def test_repeats_reshuffle(self):
        cohort, _ = simulate_cohort(60, seed=8)
        folds = stratified_repeated_kfold(cohort, k=5, repeats=2, seed=1)
        first = [s for s in folds if s.repeat == 0]
        second = [s for s in folds if s.repeat == 1]
        assert any(a.test != b.test for a, b in zip(first, second))

    def test_inner_split_is_disjoint_and_sized(self):
        cohort, _ = simulate_cohort(50, seed=9)
        folds = stratified_repeated_kfold(cohort, k=5, repeats=1, seed=2)
        for spec in folds:
            test, train, val = set(spec.test), set(spec.train), set(spec.val)
            assert not (train & val) and not (train & test) and not (val & test)
            assert train | val == set(range(50)) - test
            assert abs(len(val) - 0.2 * (50 - len(test))) <= 1

    def test_same_seed_same_plan(self):
        cohort, _ = simulate_cohort(40, seed=10)
        a = stratified_repeated_kfold(cohort, k=5, repeats=2, seed=3)
        b = stratified_repeated_kfold(cohort, k=5, repeats=2, seed=3)
        assert a == b

    def test_cohort_smaller_than_k_rejected(self):
        with pytest.raises(ValueError, match="cannot form"):
            stratified_repeated_kfold(tiny_cohort([1.0] * 3, [1] * 3), k=5, repeats=3, seed=0)

    def test_huge_k_rejected_before_any_fold_is_built(self):
        # Dealing first would build one list per fold: about 64 MB at k = 10**6.
        cohort, _ = simulate_cohort(40, seed=10)
        tracemalloc.start()
        try:
            with pytest.raises(CohortError, match="40 patients cannot form 1000000 folds"):
                stratified_repeated_kfold(cohort, k=10**6, repeats=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 80), p_os=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
       p_dfs=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]), draw=st.integers(0, 2**32 - 1),
       k=st.integers(2, 6), repeats=st.integers(1, 3), seed=st.sampled_from([0, 1, 7, 2**31]))
def test_split_is_the_list_form(n, p_os, p_dfs, draw, k, repeats, seed):
    """The array split gives the folds of the list form that deals patients
    one at a time, or the same rejection: all-censored, all-event and sparse
    (OS, DFS) event cells included."""
    rng = np.random.default_rng(draw)
    cohort = tiny_cohort([1.0] * n, (rng.random(n) < p_os).astype(np.int64))
    cohort.event["dfs"] = (rng.random(n) < p_dfs).astype(np.int64)

    def plan(split):
        try:
            return split(cohort, k, repeats, seed)
        except CohortError as exc:
            return f"CohortError: {exc}"
    assert plan(stratified_repeated_kfold) == plan(list_kfold)


class TestAugment:
    def source(self, n=1):
        cohort, _ = simulate_cohort(10, seed=11)
        return cohort[:n]

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
        for name in ("ids", "regions", "present", "centroids", "offsets", "global_features",
                     "clinical"):
            assert np.array_equal(getattr(out, name), np.repeat(getattr(data, name), 5, axis=0))

    def test_full_dropout_keeps_one_region(self):
        out = augment(self.source(), seeds=[1], dropout_p=1.0)
        for row in range(1, 5):
            assert out.present[row].tolist() == [False] * 4 + [True]
            assert not out.regions[row, :4].any() and not out.offsets[row, :4].any()
            assert not out.centroids[row, :4].any()

    def test_hubs_always_survive(self):
        out = augment(self.source(), seeds=[2], dropout_p=0.5)
        assert slots_in_use(out.present)[:, 5:].all()
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
        data = self.source(n=3)
        out = augment(data, seeds=[0, 1, 2])
        assert out.ids.tolist() == np.repeat(data.ids, 5).tolist()
        for task in ("os", "dfs"):
            assert np.array_equal(out.time[task], np.repeat(data.time[task], 5))
            assert np.array_equal(out.event[task], np.repeat(data.event[task], 5))


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
    cohort, _ = simulate_cohort(12, seed=5, scenario=Scenario(region_len=4, clinical_len=3))
    save_cohort(with_absent_region(cohort, 2), root / "base.json")
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
    root, text, cohort = fuzz_base
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
        assert_same_cohort(cohort, loaded)
        expected = EXIT_OK
    assert main(["evaluate", "--config", str(root / "run.json"), "--out", str(root / "out"),
                 "--model", str(root / "model.npz")]) == expected
