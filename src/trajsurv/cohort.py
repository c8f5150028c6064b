"""Cohort I/O, synthetic-cohort simulation, augmentation, and CV splitting.

The cohort file is a single JSON document with one patient per line;
simulation draws two latent risk groups with geometric discrete event-time
distributions on annual bins and calibrated uniform censoring, so recovery
experiments have a known oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .graph import (ANATOMICAL_KINDS, DEFAULT_OFFSET_SCALE, EDGE_ATTR_DIM, GraphBatch, NodeKind,
                    star_batch)
from .heads import TimeBins
from .metrics import harrell_cindex
from .objective import SurvivalLabel, label_bins

SCHEMA_VERSION = 1

REGION_KEYS: dict[str, NodeKind] = {
    "liver": NodeKind.LIVER_PARENCHYMA,
    "remnant": NodeKind.FUTURE_LIVER_REMNANT,
    "hepatic_veins": NodeKind.HEPATIC_VEINS,
    "portal_veins": NodeKind.PORTAL_VEINS,
    "tumors": NodeKind.METASTATIC_TUMORS,
}
_PATIENT_KEYS = {"id", "regions", "clinical", "dfs", "os"}
_LABEL_KEYS = {"time_years", "event"}
_TASKS = ("dfs", "os")


class CohortError(ValueError):
    """Schema or invariant violation in a cohort file or record."""


@dataclass(frozen=True)
class RegionData:
    present: bool
    features: np.ndarray | None = None
    centroid: np.ndarray | None = None


@dataclass(frozen=True)
class PatientRecord:
    patient_id: str
    regions: dict[NodeKind, RegionData]
    clinical: np.ndarray
    dfs: SurvivalLabel
    os: SurvivalLabel

    def __post_init__(self):
        if not any(r.present for r in self.regions.values()):
            raise CohortError(f"patient {self.patient_id}: no region is present")
        if self.dfs.time > self.os.time:
            raise CohortError(f"patient {self.patient_id}: DFS time exceeds OS time")
        values = self.clinical.tolist()
        if values and (min(values) < -1e-9 or max(values) > 1 + 1e-9):
            raise CohortError(f"patient {self.patient_id}: clinical features outside [0, 1]")


@dataclass(frozen=True)
class CohortArrays:
    """A cohort as arrays with one row per patient; see `cohort_arrays`."""

    regions: np.ndarray            # (n, 5, L); zero rows for missing regions
    present: np.ndarray            # (n, 5) bool
    offsets: np.ndarray            # (n, 5, 3); zero rows for missing regions
    global_features: np.ndarray    # (n, L)
    clinical: np.ndarray           # (n, C)
    labels: dict[str, np.ndarray]  # task -> (n, 2) bin and event rows

    def __len__(self) -> int:
        return self.present.shape[0]

    def take(self, rows) -> "CohortArrays":
        """The patients at `rows`, an index array or a slice."""
        return CohortArrays(self.regions[rows], self.present[rows], self.offsets[rows],
                            self.global_features[rows], self.clinical[rows],
                            {task: lab[rows] for task, lab in self.labels.items()})

    def batch(self) -> GraphBatch:
        """All these patients as one batch."""
        return star_batch(self.regions, self.present, self.offsets, self.global_features,
                          self.clinical)


def cohort_arrays(records: Sequence[PatientRecord], bins: TimeBins | None = None
                  ) -> CohortArrays:
    """The arrays of `records`; with `bins`, also each task's binned labels.

    The summary features and centroid are the means over the present
    regions. A region's offset is (its centroid - the summary centroid)
    divided by DEFAULT_OFFSET_SCALE and clamped to [-1, 1].
    """
    present = np.array([[rec.regions[k].present for k in ANATOMICAL_KINDS] for rec in records],
                       dtype=bool).reshape(len(records), len(ANATOMICAL_KINDS))
    rows, cols = np.nonzero(present)
    found = [records[i].regions[ANATOMICAL_KINDS[j]] for i, j in zip(rows, cols)]
    regions = np.zeros(present.shape + (found[0].features.shape[0] if found else 0,))
    centroids = np.zeros(present.shape + (EDGE_ATTR_DIM,))
    if found:
        regions[rows, cols] = [r.features for r in found]
        centroids[rows, cols] = [r.centroid for r in found]
    count = present.sum(axis=1, keepdims=True)
    offsets = np.clip((centroids - (centroids.sum(axis=1) / count)[:, None])
                      / DEFAULT_OFFSET_SCALE, -1.0, 1.0)
    labels = {} if bins is None else {task: label_bins([getattr(r, task) for r in records], bins)
                                      for task in ("os", "dfs")}
    return CohortArrays(regions, present, np.where(present[:, :, None], offsets, 0.0),
                        regions.sum(axis=1) / count,
                        np.array([r.clinical for r in records], dtype=np.float64), labels)


def record_to_graph(record: PatientRecord) -> GraphBatch:
    """The patient's graph: a batch of one."""
    return cohort_arrays([record]).batch()


def _require(cond: bool, msg: str):
    if not cond:
        raise CohortError(msg)


def _fault(value, tail: tuple) -> str | None:
    """Why `value` is not a finite number (tail ()) or a list of tail[0] of them."""
    if tail and not (isinstance(value, list) and len(value) == tail[0]):
        return f"must have length {tail[0]}"
    items = value if tail else [value]
    if not all(type(v) in (int, float) for v in items):
        return "must hold only numbers" if tail else "must be a number"
    try:
        finite = np.isfinite(np.array(items, dtype=np.float64)).all()
    except OverflowError:
        finite = False
    return None if finite else "must be finite"


def _block(values: list, tail: tuple, where) -> np.ndarray:
    """`values` as one float64 array of shape (len(values),) + tail.

    The whole block is converted and checked at once. Only when a check
    fails are the values searched for the first bad one, so that the error
    names its patient and field (`where(i)` for value i).
    """
    try:
        block = np.array(values, dtype=np.float64)
        if (block.shape == (len(values),) + tail
                and {*map(type, chain.from_iterable(values) if tail else values)} <= {int, float}
                and np.isfinite(block).all()):
            return block
    except (ValueError, TypeError, OverflowError):
        pass
    for i, value in enumerate(values):
        fault = _fault(value, tail)
        if fault:
            raise CohortError(f"{where(i)} {fault}")
    return np.zeros((0,) + tail)  # no values, so none of them is bad


def _require_all(ok: np.ndarray, message) -> None:
    """Raise `message(i)` for the first i where `ok` is false."""
    if not ok.all():
        raise CohortError(message(int(np.argmin(ok))))


def _region_fault(where: str, robj) -> str:
    """Why a region entry is malformed; only called once it is known to be."""
    if not (isinstance(robj, dict) and "present" in robj):
        return f"{where} missing present flag"
    if robj["present"] is True:
        return f"{where} must have present, features, centroid"
    if robj["present"] is False:
        return f"{where} is absent but has {', '.join(sorted(set(robj) - {'present'}))}"
    return f"{where} present must be true or false, got {robj['present']!r}"


def _read_json(path):
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise CohortError(f"{path}: not a readable JSON document ({exc})") from exc


def load_cohort(path) -> list[PatientRecord]:
    """Parse and validate a cohort file; record order is preserved.

    One pass over the parsed document checks its structure and collects
    the numeric fields; each field is then converted and checked as one
    array (`_block`), and the records hold row views of those arrays.
    """
    doc = _read_json(path)
    _require(isinstance(doc, dict) and doc.keys() == {"schema_version", "feature_schema",
                                                      "patients"},
             "top level must have schema_version, feature_schema, patients")
    version = doc["schema_version"]
    _require(type(version) is int and version == SCHEMA_VERSION,
             f"unsupported schema_version {version!r}")
    schema = doc["feature_schema"]
    _require(isinstance(schema, dict) and schema.keys() == {"region_len", "clinical_len"},
             "feature_schema must have region_len and clinical_len")
    for name, width in schema.items():
        _require(type(width) is int and width > 0,
                 f"feature_schema {name} must be a positive integer, got {width!r}")
    patients = doc["patients"]
    _require(isinstance(patients, list) and patients, "patients must be a non-empty list")

    ids: list[str] = []
    layouts: list[list[int | None]] = []  # row of each region in REGION_KEYS order
    owners: list[tuple[str, str]] = []    # (patient, region) of each row
    features, centroids, clinical, times, events = [], [], [], [], []
    for i, entry in enumerate(patients):
        if not (isinstance(entry, dict) and entry.keys() == _PATIENT_KEYS):
            raise CohortError(f"patients[{i}] must have exactly id, regions, clinical, dfs, os")
        pid, regions = entry["id"], entry["regions"]
        if not (type(pid) is str and pid):
            raise CohortError(f"patients[{i}]: id must be a non-empty string")
        if not (isinstance(regions, dict) and regions.keys() == REGION_KEYS.keys()):
            raise CohortError(f"patient {pid}: regions must have exactly keys "
                              f"{sorted(REGION_KEYS)}")
        layout = []
        for key in REGION_KEYS:
            robj = regions[key]
            flag = robj.get("present") if isinstance(robj, dict) else None
            if flag is True and len(robj) == 3 and "features" in robj and "centroid" in robj:
                layout.append(len(owners))
                owners.append((pid, key))
                features.append(robj["features"])
                centroids.append(robj["centroid"])
            elif flag is False and len(robj) == 1:
                layout.append(None)
            else:
                raise CohortError(_region_fault(f"patient {pid}: region {key}", robj))
        for task in _TASKS:
            label = entry[task]
            if not (isinstance(label, dict) and label.keys() == _LABEL_KEYS):
                raise CohortError(f"patient {pid}: {task} must have exactly time_years and event")
            times.append(label["time_years"])
            events.append(label["event"])
        ids.append(pid)
        layouts.append(layout)
        clinical.append(entry["clinical"])
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for pid in ids:
            _require(pid not in seen, f"patient {pid}: duplicate id")
            seen.add(pid)

    def region(r):
        return f"patient {owners[r][0]}: region {owners[r][1]}"

    def label(j):
        return f"patient {ids[j // 2]}: {_TASKS[j % 2]}"

    features = _block(features, (schema["region_len"],), lambda r: f"{region(r)} features")
    centroids = _block(centroids, (EDGE_ATTR_DIM,), lambda r: f"{region(r)} centroid")
    clinical = _block(clinical, (schema["clinical_len"],),
                      lambda i: f"patient {ids[i]}: clinical features")
    times = _block(times, (), lambda j: f"{label(j)} time_years")
    events = _block(events, (), lambda j: f"{label(j)} event")
    _require_all(times >= 0, lambda j: f"{label(j)} time_years must be >= 0")
    _require_all((events == 0) | (events == 1), lambda j: f"{label(j)} event must be 0 or 1")
    times, events = times.tolist(), events.astype(np.int64).tolist()

    records: list[PatientRecord] = []
    for i, (pid, layout) in enumerate(zip(ids, layouts)):
        regions = {kind: RegionData(False) if row is None
                   else RegionData(True, features[row], centroids[row])
                   for kind, row in zip(REGION_KEYS.values(), layout)}
        records.append(PatientRecord(pid, regions, clinical[i],
                                     SurvivalLabel(times[2 * i], events[2 * i]),
                                     SurvivalLabel(times[2 * i + 1], events[2 * i + 1])))
    return records


def _patient_doc(rec: PatientRecord) -> dict:
    regions = {}
    for key, kind in REGION_KEYS.items():
        r = rec.regions[kind]
        regions[key] = ({"present": True, "features": r.features.tolist(),
                         "centroid": r.centroid.tolist()} if r.present else {"present": False})
    return {"id": rec.patient_id, "regions": regions, "clinical": rec.clinical.tolist(),
            "dfs": {"time_years": rec.dfs.time, "event": rec.dfs.event},
            "os": {"time_years": rec.os.time, "event": rec.os.event}}


def save_cohort(records: list[PatientRecord], path, region_len: int, clinical_len: int) -> None:
    """Write `records` as one JSON document with one patient per line.

    Each line is encoded on its own with default separators, which json's C
    encoder handles (with `indent` it falls back to pure Python), and is
    written as soon as it is encoded, so the whole text is never in memory.
    """
    head = json.dumps({"schema_version": SCHEMA_VERSION,
                       "feature_schema": {"region_len": region_len,
                                          "clinical_len": clinical_len},
                       "patients": []})
    with open(path, "w") as fh:
        fh.write(head[:-2])  # the document up to the patient list's "["
        sep = "\n"
        for rec in records:
            fh.write(sep + json.dumps(_patient_doc(rec)))
            sep = ",\n"
        fh.write("\n]}\n")


# ---------------------------------------------------------------------------
# Synthetic cohort with known latent risk groups.
# ---------------------------------------------------------------------------

# Nominal region centroids in millimetres; jitter is added per patient.
_REGION_CENTERS = {
    NodeKind.LIVER_PARENCHYMA: np.array([60.0, 50.0, 40.0]),
    NodeKind.FUTURE_LIVER_REMNANT: np.array([30.0, 62.0, 46.0]),
    NodeKind.HEPATIC_VEINS: np.array([72.0, 66.0, 54.0]),
    NodeKind.PORTAL_VEINS: np.array([46.0, 34.0, 52.0]),
    NodeKind.METASTATIC_TUMORS: np.array([56.0, 44.0, 34.0]),
}


@dataclass(frozen=True)
class Scenario:
    """Generating model of the two-group synthetic cohort.

    Event times are geometric on annual bins: per group g, the high-risk
    group's hazard is the base hazard times `hazard_ratio` (capped at 0.95).
    A shared uniform draw couples the two endpoints so DFS <= OS holds
    pointwise (the DFS hazard dominates the OS hazard in both groups).
    """

    signal_strength: float = 1.5
    censoring_rate: float = 0.3
    hazard_ratio: float = 3.0
    base_os_hazard: float = 0.24
    base_dfs_hazard: float = 0.32
    region_len: int = 8
    clinical_len: int = 6

    def __post_init__(self):
        if not (0.0 <= self.censoring_rate < 1.0):
            raise ValueError("censoring_rate must be in [0, 1)")
        if self.hazard_ratio <= 0 or self.base_os_hazard <= 0 or self.base_dfs_hazard <= 0:
            raise ValueError("hazards and ratio must be positive")
        if self.base_dfs_hazard < self.base_os_hazard:
            raise ValueError("base DFS hazard must be >= base OS hazard")

    def group_hazards(self, task: str) -> np.ndarray:
        base = self.base_os_hazard if task == "os" else self.base_dfs_hazard
        return np.array([base, min(base * self.hazard_ratio, 0.95)])


def _geometric_time(u: np.ndarray, hazard: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of the geometric bin index (support 0, 1, 2, ...)."""
    return np.ceil(np.log1p(-u) / np.log1p(-hazard)).astype(np.int64) - 1


def _mixture_pmf(hazards: np.ndarray, k_max: int = 400) -> np.ndarray:
    k = np.arange(k_max)
    pmf = np.zeros(k_max)
    for h in hazards:
        pmf += 0.5 * (1.0 - h) ** k * h
    return pmf


def _calibrate_censoring(scenario: Scenario) -> float:
    """Upper bound of the uniform censoring window hitting the target rate.

    A patient with integer event time T is censored with probability
    min(T / c_max, 1) under C ~ U(0, c_max); the expectation over the OS
    mixture is monotone in c_max, so bisection applies.
    """
    target = scenario.censoring_rate
    pmf = _mixture_pmf(scenario.group_hazards("os"))
    k = np.arange(pmf.shape[0])

    def expected(c_max: float) -> float:
        return float(pmf @ np.minimum(k / c_max, 1.0))

    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simulate_cohort(n: int, seed: int, scenario: Scenario = Scenario()
                    ) -> tuple[list[PatientRecord], np.ndarray]:
    """Two-group synthetic cohort; returns records plus the latent groups.

    Features are group-informative patterns scaled by signal strength plus
    unit Gaussian noise; clinical features are min-max normalized across the
    cohort after generation. Event times are integer years (annual bins).
    """
    if n < 10:
        raise ValueError("need at least 10 patients")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))

    region_patterns = {}
    for kind in ANATOMICAL_KINDS:
        p = rng.normal(size=scenario.region_len)
        region_patterns[kind] = p / np.linalg.norm(p)
    p = rng.normal(size=scenario.clinical_len)
    clinical_pattern = p / np.linalg.norm(p)

    groups = rng.integers(0, 2, size=n)
    u = rng.uniform(size=n)
    h_os = scenario.group_hazards("os")[groups]
    h_dfs = scenario.group_hazards("dfs")[groups]
    t_os = _geometric_time(u, h_os).astype(np.float64)
    t_dfs = _geometric_time(u, h_dfs).astype(np.float64)

    sign = 2.0 * groups - 1.0
    region_feats = {
        kind: sign[:, None] * scenario.signal_strength * region_patterns[kind]
        + rng.normal(size=(n, scenario.region_len))
        for kind in ANATOMICAL_KINDS
    }
    clinical_raw = (sign[:, None] * scenario.signal_strength * clinical_pattern
                    + rng.normal(size=(n, scenario.clinical_len)))
    span = clinical_raw.max(axis=0) - clinical_raw.min(axis=0)
    span[span < 1e-12] = 1.0
    clinical = (clinical_raw - clinical_raw.min(axis=0)) / span

    centroids = {
        kind: _REGION_CENTERS[kind] + rng.normal(0.0, 10.0, size=(n, 3))
        for kind in ANATOMICAL_KINDS
    }

    if scenario.censoring_rate > 0.0:
        c_max = _calibrate_censoring(scenario)
        censor = rng.uniform(0.0, c_max, size=n)
    else:
        censor = np.full(n, np.inf)

    records: list[PatientRecord] = []
    for i in range(n):
        regions = {
            kind: RegionData(True, region_feats[kind][i], centroids[kind][i])
            for kind in ANATOMICAL_KINDS
        }
        os_lab = (SurvivalLabel(t_os[i], 1) if t_os[i] <= censor[i]
                  else SurvivalLabel(censor[i], 0))
        dfs_lab = (SurvivalLabel(t_dfs[i], 1) if t_dfs[i] <= censor[i]
                   else SurvivalLabel(censor[i], 0))
        records.append(PatientRecord(f"sim{i:04d}", regions, clinical[i], dfs_lab, os_lab))
    return records, groups


def oracle_cindex(records: list[PatientRecord], groups: np.ndarray,
                  scenario: Scenario, task: str) -> float:
    """Concordance achieved by the true group hazard as the risk score."""
    risks = scenario.group_hazards(task)[groups]
    labels = [getattr(r, task) for r in records]
    return harrell_cindex(risks, labels)


# ---------------------------------------------------------------------------
# Repeated stratified k-fold splitting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldSpec:
    repeat: int
    fold: int
    test: list[int]
    train: list[int]
    val: list[int]


def _strata(indices: list[int], records: list[PatientRecord], k: int) -> list[list[int]]:
    """Joint event-indicator cells; sparse cells collapse to the OS margin."""
    cells: dict[tuple[int, int], list[int]] = {}
    for i in indices:
        key = (records[i].os.event, records[i].dfs.event)
        cells.setdefault(key, []).append(i)
    strata: dict[tuple[int, int], list[int]] = {}
    for os_event in (0, 1):
        children = {key: v for key, v in cells.items() if key[0] == os_event}
        if not children:
            continue
        if any(len(v) < k for v in children.values()):
            merged: list[int] = []
            for key in sorted(children):
                merged.extend(children[key])
            strata[(os_event, -1)] = merged
        else:
            strata.update(children)
    return [strata[key] for key in sorted(strata)]


def _deal(strata: list[list[int]], k: int, rng: np.random.Generator) -> list[list[int]]:
    """Shuffle each stratum and deal round-robin, carrying the fold pointer
    across strata so overall fold sizes stay within one of each other."""
    folds: list[list[int]] = [[] for _ in range(k)]
    ptr = 0
    for members in strata:
        order = rng.permutation(len(members))
        for j in order:
            folds[ptr % k].append(members[j])
            ptr += 1
    return folds


def stratified_repeated_kfold(records: list[PatientRecord], k: int = 5, repeats: int = 3,
                              seed: int = 0) -> list[FoldSpec]:
    """The folds of a repeated stratified k-fold plan, each with a stratified
    0.8/0.2 inner split; a cohort too small to fill every fold's three sets
    is a `CohortError`."""
    n = len(records)
    too_small = (f"cohort of {n} patients cannot form {k} folds with "
                 "nonempty test, inner training and validation sets")
    if k > n:   # checked before `_deal` builds one list per fold
        raise CohortError(too_small)
    all_idx = list(range(n))
    folds: list[FoldSpec] = []
    for rep in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
        outer = _deal(_strata(all_idx, records, k), k, rng)
        for f in range(k):
            test = sorted(outer[f])
            in_test = set(test)
            rest = [i for i in all_idx if i not in in_test]
            inner_rng = np.random.default_rng(np.random.SeedSequence([seed, rep, f]))
            buckets = _deal(_strata(rest, records, 5), 5, inner_rng)
            val = sorted(buckets[0])
            train = sorted(set(rest) - set(val))
            if not (test and train and val):
                raise CohortError(too_small)
            folds.append(FoldSpec(rep, f, test, train, val))
    return folds


# ---------------------------------------------------------------------------
# Training-time augmentation.
# ---------------------------------------------------------------------------


def augment(data: CohortArrays, seeds: Sequence[int], variants: int = 5,
            dropout_p: float = 0.05, sigma: float = 0.1) -> CohortArrays:
    """Each patient's row followed by `variants - 1` randomized copies.

    Patient i's copies draw from `seeds[i]`. Each copy independently drops
    present regions with probability `dropout_p` (never the last remaining
    one; the hubs have no presence flag) and adds Gaussian noise to every
    feature vector, the summary's included. Surviving regions keep their
    offsets.
    """
    out = data.take(np.repeat(np.arange(len(data)), variants))
    width = data.regions.shape[2]
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        present = np.flatnonzero(data.present[i])
        for row in range(i * variants + 1, (i + 1) * variants):
            kept = list(present)
            for j in present:
                if len(kept) > 1 and rng.random() < dropout_p:
                    kept.remove(j)
            dropped = np.setdiff1d(present, kept)
            out.present[row, dropped] = False
            out.regions[row, dropped] = 0.0
            out.offsets[row, dropped] = 0.0
            # One draw in the order regions, summary, clinical.
            cut = len(kept) * width
            noise = rng.normal(0.0, sigma, size=cut + width + data.clinical.shape[1])
            out.regions[row, kept] += noise[:cut].reshape(len(kept), width)
            out.global_features[row] += noise[cut:cut + width]
            out.clinical[row] += noise[cut + width:]
    return out
