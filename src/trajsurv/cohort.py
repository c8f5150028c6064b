"""Cohort I/O, synthetic-cohort simulation, augmentation, and CV splitting.

The cohort file is a single JSON document with one patient per line;
simulation draws two latent risk groups with geometric discrete event-time
distributions on annual bins and calibrated uniform censoring, so recovery
experiments have a known oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .graph import ANATOMICAL_KINDS, DEFAULT_OFFSET_SCALE, EDGE_ATTR_DIM, NodeKind
from .metrics import cindex_arrays
from .model import shown
from .objective import SurvivalLabel

SCHEMA_VERSION = 1

# Upper bound on each `feature_schema` width of a cohort file, and of a
# simulated cohort. The regions array holds n x 5 x region_len values
# whether or not a region is present, so a header alone would otherwise
# fix an allocation that no patient's data bounds.
MAX_FEATURE_WIDTH = 1024

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
    """Schema or invariant violation in a cohort file."""


@dataclass(frozen=True)
class PatientRecord:
    """One patient of a cohort: its id, its labels and `row`, the one-patient
    cohort that views its rows of the arrays."""

    patient_id: str
    dfs: SurvivalLabel
    os: SurvivalLabel
    row: CohortArrays = field(repr=False, compare=False)


@dataclass(frozen=True)
class CohortArrays:
    """A cohort as arrays with one row per patient; see `make_cohort`.

    Indexing with a slice or an index array gives `take`; an int, and
    iteration, give `PatientRecord`s.
    """

    ids: np.ndarray                # (n,) patient ids, str objects
    regions: np.ndarray            # (n, 5, L); zero rows for missing regions
    present: np.ndarray            # (n, 5) bool
    centroids: np.ndarray          # (n, 5, 3) millimetres; zero rows for missing regions
    offsets: np.ndarray            # (n, 5, 3); zero rows for missing regions
    global_features: np.ndarray    # (n, L)
    clinical: np.ndarray           # (n, C)
    time: dict[str, np.ndarray]    # task -> (n,) observed follow-up in years, float64
    event: dict[str, np.ndarray]   # task -> (n,) event flags (1 = event), int64

    def __len__(self) -> int:
        return self.ids.shape[0]

    def take(self, rows) -> CohortArrays:
        """The patients at `rows`, an index array or a slice."""
        return CohortArrays(self.ids[rows], self.regions[rows], self.present[rows],
                            self.centroids[rows], self.offsets[rows],
                            self.global_features[rows], self.clinical[rows],
                            {task: t[rows] for task, t in self.time.items()},
                            {task: e[rows] for task, e in self.event.items()})

    def __getitem__(self, key):
        if not isinstance(key, (int, np.integer)):
            return self.take(key)
        i = range(len(self))[key]
        dfs, os_label = (SurvivalLabel(float(self.time[task][i]), int(self.event[task][i]))
                         for task in _TASKS)
        return PatientRecord(self.ids[i], dfs, os_label, self.take(slice(i, i + 1)))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def with_presence(self, present: np.ndarray) -> CohortArrays:
        """These patients with only the regions `present` marks."""
        return make_cohort(self.ids, self.regions, present, self.centroids, self.clinical,
                           self.time, self.event)


def make_cohort(ids, regions: np.ndarray, present: np.ndarray, centroids: np.ndarray,
                clinical: np.ndarray, time: dict[str, np.ndarray],
                event: dict[str, np.ndarray]) -> CohortArrays:
    """The cohort of these patients.

    Each patient's fields must keep these rules, checked in this order:
    each task's time is finite and >= 0, each task's event is 0 or 1, no
    earlier patient has the same id, a region is present, the DFS time is
    at most the OS time, and the clinical features lie in [0, 1]. The first
    patient to break one, in the given order, raises CohortError naming the
    first rule it breaks, so every cohort holds only what a cohort file may.
    Times are stored as float64 and, once checked, events as int64. The
    rows of missing regions are zeroed. The summary features and centroid
    are the means over the present regions. A region's offset is (its
    centroid - the summary centroid) divided by DEFAULT_OFFSET_SCALE and
    clamped to [-1, 1].
    """
    time = {task: np.asarray(time[task], dtype=np.float64) for task in _TASKS}
    event = {task: np.asarray(event[task]) for task in _TASKS}
    seen = {}
    rules = [*((~np.isfinite(time[t]), f"{t} time_years must be finite") for t in _TASKS),
             *((time[t] < 0, f"{t} time_years must be >= 0") for t in _TASKS),
             *(((event[t] != 0) & (event[t] != 1), f"{t} event must be 0 or 1") for t in _TASKS),
             (np.array([seen.setdefault(pid, i) != i for i, pid in enumerate(ids)], dtype=bool),
              "duplicate id"),
             (~present.any(axis=1), "no region is present"),
             (time["dfs"] > time["os"], "DFS time exceeds OS time"),
             (((clinical < -1e-9) | (clinical > 1 + 1e-9)).any(axis=1),
              "clinical features outside [0, 1]")]
    broken = np.logical_or.reduce([faulty for faulty, _ in rules])
    if broken.any():
        i = int(np.argmax(broken))
        raise CohortError(f"patient {shown(str(ids[i]))}: "
                          f"{next(m for faulty, m in rules if faulty[i])}")
    event = {task: e.astype(np.int64, copy=False) for task, e in event.items()}
    mask = present[:, :, None]
    regions, centroids = np.where(mask, regions, 0.0), np.where(mask, centroids, 0.0)
    count = present.sum(axis=1, keepdims=True)
    offsets = np.clip((centroids - (centroids.sum(axis=1) / count)[:, None])
                      / DEFAULT_OFFSET_SCALE, -1.0, 1.0)
    return CohortArrays(np.array(ids, dtype=object), regions, present, centroids,
                        np.where(mask, offsets, 0.0), regions.sum(axis=1) / count, clinical,
                        time, event)


def record_to_graph(record: PatientRecord) -> CohortArrays:
    """The patient's graph: its one-patient cohort, which the model reads."""
    return record.row


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


def _region_fault(where: str, robj) -> str:
    """Why a region entry is malformed; only called once it is known to be."""
    if not (isinstance(robj, dict) and "present" in robj):
        return f"{where} missing present flag"
    if robj["present"] is True:
        return f"{where} must have present, features, centroid"
    if robj["present"] is False:
        return f"{where} is absent but has {shown(', '.join(sorted(set(robj) - {'present'})))}"
    return f"{where} present must be true or false, got {shown(repr(robj['present']))}"


def _read_json(path):
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    # ValueError: bad JSON or UTF-8, or an integer too long to convert;
    # RecursionError: arrays or objects nested too deep.
    except (OSError, ValueError, RecursionError) as exc:
        raise CohortError(f"{path}: not a readable JSON document ({exc})") from exc


def load_cohort(path) -> CohortArrays:
    """Parse and validate a cohort file; patient order is preserved.

    One pass over the parsed document checks its structure and collects
    the numeric fields; each field is then converted and checked for type
    and finiteness as one array (`_block`), and `make_cohort` checks the
    value rules of the labels and ids and the rules that join fields.
    Every error names the first faulty patient in file order.
    """
    doc = _read_json(path)
    _require(isinstance(doc, dict) and doc.keys() == {"schema_version", "feature_schema",
                                                      "patients"},
             "top level must have schema_version, feature_schema, patients")
    version = doc["schema_version"]
    _require(type(version) is int and version == SCHEMA_VERSION,
             f"unsupported schema_version {shown(repr(version))}")
    schema = doc["feature_schema"]
    _require(isinstance(schema, dict) and schema.keys() == {"region_len", "clinical_len"},
             "feature_schema must have region_len and clinical_len")
    for name, width in schema.items():
        _require(type(width) is int and width > 0,
                 f"feature_schema {name} must be a positive integer, got {shown(repr(width))}")
        _require(width <= MAX_FEATURE_WIDTH,
                 f"feature_schema {name} must be at most {MAX_FEATURE_WIDTH}, "
                 f"got {shown(repr(width))}")
    patients = doc["patients"]
    _require(isinstance(patients, list) and patients, "patients must be a non-empty list")

    ids: list[str] = []
    present: list[bool] = []              # each patient's regions in REGION_KEYS order
    owners: list[tuple[str, str]] = []    # (patient, region) of each present region
    features, centroids, clinical, times, events = [], [], [], [], []
    for i, entry in enumerate(patients):
        if not (isinstance(entry, dict) and entry.keys() == _PATIENT_KEYS):
            raise CohortError(f"patients[{i}] must have exactly id, regions, clinical, dfs, os")
        pid, regions = entry["id"], entry["regions"]
        if not (type(pid) is str and pid):
            raise CohortError(f"patients[{i}]: id must be a non-empty string")
        if not (isinstance(regions, dict) and regions.keys() == REGION_KEYS.keys()):
            raise CohortError(f"patient {shown(pid)}: regions must have exactly keys "
                              f"{sorted(REGION_KEYS)}")
        for key in REGION_KEYS:
            robj = regions[key]
            flag = robj.get("present") if isinstance(robj, dict) else None
            if flag is True and len(robj) == 3 and "features" in robj and "centroid" in robj:
                owners.append((pid, key))
                features.append(robj["features"])
                centroids.append(robj["centroid"])
            elif not (flag is False and len(robj) == 1):
                raise CohortError(_region_fault(f"patient {shown(pid)}: region {key}", robj))
            present.append(flag)
        for task in _TASKS:
            label = entry[task]
            if not (isinstance(label, dict) and label.keys() == _LABEL_KEYS):
                raise CohortError(f"patient {shown(pid)}: {task} must have exactly time_years "
                                  "and event")
            times.append(label["time_years"])
            events.append(label["event"])
        ids.append(pid)
        clinical.append(entry["clinical"])

    def region(r):
        return f"patient {shown(owners[r][0])}: region {owners[r][1]}"

    def label(j):
        return f"patient {shown(ids[j // 2])}: {_TASKS[j % 2]}"

    features = _block(features, (schema["region_len"],), lambda r: f"{region(r)} features")
    centroids = _block(centroids, (EDGE_ATTR_DIM,), lambda r: f"{region(r)} centroid")
    clinical = _block(clinical, (schema["clinical_len"],),
                      lambda i: f"patient {shown(ids[i])}: clinical features")
    times = _block(times, (), lambda j: f"{label(j)} time_years")
    events = _block(events, (), lambda j: f"{label(j)} event")
    time = dict(zip(_TASKS, times.reshape(-1, len(_TASKS)).T))
    event = dict(zip(_TASKS, events.reshape(-1, len(_TASKS)).T))
    present = np.array(present, dtype=bool).reshape(len(ids), len(REGION_KEYS))
    regions = np.zeros(present.shape + (schema["region_len"],))
    regions[present] = features
    region_centroids = np.zeros(present.shape + (EDGE_ATTR_DIM,))
    region_centroids[present] = centroids
    return make_cohort(ids, regions, present, region_centroids, clinical, time, event)


def save_cohort(cohort: CohortArrays, path, region_len: int | None = None,
                clinical_len: int | None = None) -> None:
    """Write `cohort` as one JSON document with one patient per line.

    The feature widths in the header are the arrays'; `region_len` or
    `clinical_len`, if given, must equal them (ValueError otherwise, before
    the file is opened). Each line is encoded on its own with default
    separators, which json's C encoder handles (with `indent` it falls back
    to pure Python), and is written as soon as it is encoded, so the whole
    text is never in memory.
    """
    schema = {"region_len": cohort.regions.shape[2], "clinical_len": cohort.clinical.shape[1]}
    for name, width in (("region_len", region_len), ("clinical_len", clinical_len)):
        if width is not None and width != schema[name]:
            raise ValueError(f"{name} is {width}, but the cohort's features have width "
                             f"{schema[name]}")
    head = json.dumps({"schema_version": SCHEMA_VERSION, "feature_schema": schema,
                       "patients": []})
    regions, centroids = cohort.regions.tolist(), cohort.centroids.tolist()
    present, clinical = cohort.present.tolist(), cohort.clinical.tolist()
    labels = {task: list(zip(cohort.time[task].tolist(), cohort.event[task].tolist()))
              for task in _TASKS}
    with open(path, "w") as fh:
        fh.write(head[:-2])  # the document up to the patient list's "["
        sep = "\n"
        for i, pid in enumerate(cohort.ids.tolist()):
            doc = {"id": pid,
                   "regions": {key: {"present": True, "features": regions[i][j],
                                     "centroid": centroids[i][j]} if present[i][j]
                               else {"present": False} for j, key in enumerate(REGION_KEYS)},
                   "clinical": clinical[i],
                   **{task: {"time_years": labels[task][i][0], "event": labels[task][i][1]}
                      for task in _TASKS}}
            fh.write(sep + json.dumps(doc))
            sep = ",\n"
        fh.write("\n]}\n")


# ---------------------------------------------------------------------------
# Synthetic cohort with known latent risk groups.
# ---------------------------------------------------------------------------

# Nominal region centroids in millimetres, one row per kind in
# ANATOMICAL_KINDS order; jitter is added per patient.
_REGION_CENTERS = np.array([[60.0, 50.0, 40.0],
                            [30.0, 62.0, 46.0],
                            [72.0, 66.0, 54.0],
                            [46.0, 34.0, 52.0],
                            [56.0, 44.0, 34.0]])


# The smallest hazard h whose longest geometric draw, log1p(-u) / log1p(-h)
# at the largest uniform u = 1 - 2^-53 (about 36.7 / h years), is at most
# 2^53: an exact float64 integer, which `_geometric_time`'s int64 cast keeps.
# Below it (about 4.1e-15) the cast wraps.
_MIN_GROUP_HAZARD = float(-np.expm1(np.log1p(-np.nextafter(1.0, 0.0)) / 2.0 ** 53))


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
        if not (1 <= self.region_len <= MAX_FEATURE_WIDTH
                and 1 <= self.clinical_len <= MAX_FEATURE_WIDTH):
            raise ValueError(f"region_len and clinical_len must be in [1, {MAX_FEATURE_WIDTH}]")
        if not (0.0 <= self.censoring_rate < 1.0):
            raise ValueError("censoring_rate must be in [0, 1)")
        if not (self.hazard_ratio > 0 and 0 < self.base_os_hazard < 1
                and 0 < self.base_dfs_hazard < 1):
            raise ValueError("hazard_ratio must be positive and base hazards in (0, 1)")
        if self.base_dfs_hazard < self.base_os_hazard:
            raise ValueError("base DFS hazard must be >= base OS hazard")
        # the OS group hazards are the smallest, since DFS dominates OS
        if self.group_hazards("os").min() < _MIN_GROUP_HAZARD:
            raise ValueError(f"group hazards (base hazards, and times hazard_ratio) must be "
                             f"at least {_MIN_GROUP_HAZARD:.2g}, so that every event time "
                             f"(up to about 36.7 / hazard years) is an exact integer")

    def group_hazards(self, task: str) -> np.ndarray:
        base = self.base_os_hazard if task == "os" else self.base_dfs_hazard
        return np.array([base, min(base * self.hazard_ratio, 0.95)])


def _geometric_time(u: np.ndarray, hazard: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of the geometric bin index (support 0, 1, 2, ...)."""
    return np.ceil(np.log1p(-u) / np.log1p(-hazard)).astype(np.int64) - 1


def _calibrate_censoring(scenario: Scenario) -> float:
    """Upper bound of the uniform censoring window hitting the target rate.

    A patient with integer event time T is censored with probability
    min(T / c_max, 1) under C ~ U(0, c_max); the expectation over the OS
    mixture is monotone in c_max, so bisection applies.
    """
    target = scenario.censoring_rate
    k = np.arange(400)
    hazards = scenario.group_hazards("os")[:, None]
    pmf = (0.5 * (1.0 - hazards) ** k * hazards).sum(axis=0)

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
                    ) -> tuple[CohortArrays, np.ndarray]:
    """Two-group synthetic cohort; returns the cohort plus the (n,) latent
    groups (0 or 1).

    One generator, seeded with `seed`, draws in this order: the (5, L) unit
    region patterns, one row per kind in ANATOMICAL_KINDS order; the (C,)
    unit clinical pattern; the groups; one (n,) uniform u shared by both
    tasks; the region noise as (5, n, L); the (n, C) clinical noise; the
    centroid jitter as (5, n, 3) with sd 10 mm; and, if the censoring rate
    is positive, the (n,) uniform censoring times. The generator fills
    arrays in C order, so the (1, 0, 2) transpose of a (5, n, ·) draw is
    the cohort's (n, 5, ·) layout. Every region of every patient is present.

    A feature is its group's sign (-1 or +1) times the signal strength
    times the pattern, plus unit Gaussian noise; clinical features are then
    min-max normalized across the cohort. Each task's event time is the
    integer year `_geometric_time(u, hazard of the patient's group)`.
    """
    if n < 10:
        raise ValueError("need at least 10 patients")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    kinds = len(ANATOMICAL_KINDS)

    # The norm of each row on its own: the axis form sums in another order.
    p = rng.normal(size=(kinds, scenario.region_len))
    region_patterns = p / np.array([np.linalg.norm(row) for row in p])[:, None]
    p = rng.normal(size=scenario.clinical_len)
    clinical_pattern = p / np.linalg.norm(p)

    groups = rng.integers(0, 2, size=n)
    u = rng.uniform(size=n)
    event_time = {task: _geometric_time(u, scenario.group_hazards(task)[groups])
                  .astype(np.float64) for task in _TASKS}

    sign = 2.0 * groups - 1.0
    regions = (sign[:, None, None] * scenario.signal_strength * region_patterns
               + rng.normal(size=(kinds, n, scenario.region_len)).transpose(1, 0, 2))
    clinical_raw = (sign[:, None] * scenario.signal_strength * clinical_pattern
                    + rng.normal(size=(n, scenario.clinical_len)))
    span = clinical_raw.max(axis=0) - clinical_raw.min(axis=0)
    span[span < 1e-12] = 1.0
    clinical = (clinical_raw - clinical_raw.min(axis=0)) / span

    centroids = _REGION_CENTERS + rng.normal(0.0, 10.0, size=(kinds, n, 3)).transpose(1, 0, 2)

    if scenario.censoring_rate > 0.0:
        c_max = _calibrate_censoring(scenario)
        censor = rng.uniform(0.0, c_max, size=n)
    else:
        censor = np.full(n, np.inf)

    observed = {task: t <= censor for task, t in event_time.items()}
    return make_cohort([f"sim{i:04d}" for i in range(n)], regions,
                       np.ones((n, kinds), dtype=bool), centroids, clinical,
                       {task: np.where(observed[task], t, censor)
                        for task, t in event_time.items()},
                       {task: flags.astype(np.int64) for task, flags in observed.items()}), groups


def oracle_cindex(cohort: CohortArrays, groups: np.ndarray, scenario: Scenario,
                  task: str) -> float:
    """Concordance achieved by the true group hazard as the risk score."""
    return cindex_arrays(scenario.group_hazards(task)[groups], cohort.time[task],
                         cohort.event[task])


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


def _strata(rows: np.ndarray, keys: np.ndarray, k: int) -> list[np.ndarray]:
    """The joint (OS, DFS) event cells of `rows`, each selected with a mask,
    in key order. An OS margin with a cell of fewer than `k` rows is one
    stratum, its cells concatenated in key order."""
    key = keys[rows]
    strata: list[np.ndarray] = []
    for os_event in (0, 1):
        margin = key[:, 0] == os_event
        cells = [rows[margin & (key[:, 1] == dfs)] for dfs in np.unique(key[margin, 1])]
        strata += [np.concatenate(cells)] if any(c.size < k for c in cells) else cells
    return strata


def _deal(strata: list[np.ndarray], k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """The k sorted folds of one shuffle per stratum: position p of the
    shuffled strata, laid end to end, goes to fold p mod k, so overall fold
    sizes stay within one of each other."""
    order = np.concatenate([s[rng.permutation(s.size)] for s in strata])
    return [np.sort(order[f::k]) for f in range(k)]


def stratified_repeated_kfold(cohort: CohortArrays, k: int, repeats: int,
                              seed: int) -> list[FoldSpec]:
    """The folds of a repeated stratified k-fold plan, each with a stratified
    0.8/0.2 inner split; a cohort too small to fill every fold's three sets
    is a `CohortError`."""
    n = len(cohort)
    too_small = (f"cohort of {n} patients cannot form {k} folds with "
                 "nonempty test, inner training and validation sets")
    if not 2 <= k <= n:   # checked before `_deal` builds one array per fold
        raise CohortError(too_small)
    rows = np.arange(n)
    keys = np.stack([cohort.event["os"], cohort.event["dfs"]], axis=1)
    folds: list[FoldSpec] = []
    for rep in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
        for f, test in enumerate(_deal(_strata(rows, keys, k), k, rng)):
            rest = np.setdiff1d(rows, test)
            inner_rng = np.random.default_rng(np.random.SeedSequence([seed, rep, f]))
            val = _deal(_strata(rest, keys, 5), 5, inner_rng)[0]
            train = np.setdiff1d(rest, val)
            if not (test.size and train.size and val.size):
                raise CohortError(too_small)
            folds.append(FoldSpec(rep, f, test.tolist(), train.tolist(), val.tolist()))
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
            out.centroids[row, dropped] = 0.0
            out.offsets[row, dropped] = 0.0
            # One draw in the order regions, summary, clinical.
            cut = len(kept) * width
            noise = rng.normal(0.0, sigma, size=cut + width + data.clinical.shape[1])
            out.regions[row, kept] += noise[:cut].reshape(len(kept), width)
            out.global_features[row] += noise[cut:cut + width]
            out.clinical[row] += noise[cut + width:]
    return out
