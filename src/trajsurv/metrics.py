"""Censored-survival evaluation metrics.

Conventions: equal observed times are never comparable in the concordance
index; the censoring survival G comes from a Kaplan-Meier fit with flipped
indicators; IPCW terms use G with a left limit at event times; undefined
metrics propagate as None (missing), never as zeros.

Cost for n patients, none of it an n x n matrix:
- `harrell_cindex`: O(n) memory; ceil(log2 n) merge levels, each one sort
  and two binary searches over at most n/2 keys, so O(n log^2 n) time.
- `time_dependent_auc`: O(n) memory; one sort of the controls and two
  binary searches per case, O(n log n) time.
- `km_censoring_survival`: O(n) memory; one sorted pass, O(n log n) time.
The rank metrics count pairs in integers and divide once, so they return
the value of a pair-by-pair count bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .heads import SurvivalCurve, TimeBins
from .objective import SurvivalLabel


class IpcwCapWarning(UserWarning):
    """An IPCW weight hit the configured cap (censoring survival near 0)."""


def _arrays(labels: Sequence[SurvivalLabel]) -> tuple[np.ndarray, np.ndarray]:
    times = np.array([lab.time for lab in labels], dtype=np.float64)
    events = np.array([lab.event for lab in labels], dtype=np.int64)
    return times, events


def _later_smaller_counts(ranks: np.ndarray, query: np.ndarray) -> int:
    """Sum over positions p in `query` of #{j > p : ranks[j] < ranks[p]}.

    Bottom-up merge levels: at the level of width w, a pair p < j is counted
    once, when p lies in the left and j in the right half of the same
    2w-aligned block. Each level sorts the right halves by (block, rank) as
    one integer key and counts with two binary searches, so a call makes
    ceil(log2 n) sorts and no Python step per patient.
    """
    n = ranks.size
    pos = np.arange(n)
    total = 0
    level = 0
    while (1 << level) < n:
        block = pos >> (level + 1)
        right = ((pos >> level) & 1).astype(bool)
        keys = np.sort(block[right] * (n + 1) + ranks[right])
        left = query[~right[query]]
        base = block[left] * (n + 1)
        total += int((np.searchsorted(keys, base + ranks[left])
                      - np.searchsorted(keys, base)).sum())
        level += 1
    return total


def harrell_cindex(risks: Sequence[float], labels: Sequence[SurvivalLabel]) -> float:
    """Concordance over comparable pairs; risk ties count one half.

    A pair is comparable only when the strictly earlier time carries an
    event; pairs with equal observed times are never comparable (whether the
    tie involves a censoring or two events).
    """
    if len(risks) != len(labels) or len(labels) < 2:
        raise ValueError("need matching risks and at least two patients")
    r = np.asarray(risks, dtype=np.float64)
    if not np.isfinite(r).all():
        raise ValueError("risk scores must be finite")
    t, e = _arrays(labels)
    _, t_rank, t_counts = np.unique(t, return_inverse=True, return_counts=True)
    r_rank = np.unique(r, return_inverse=True)[1]
    events = np.flatnonzero(e == 1)
    # comparable: for each event, the patients with a strictly later time
    n_comp = int((t.size - np.cumsum(t_counts)[t_rank[events]]).sum())
    if n_comp == 0:
        raise ValueError("no comparable pairs")
    # tied: among those, the ones with the same risk rank
    key = r_rank * t_counts.size + t_rank
    tie_keys = np.sort(key)
    tied = int((np.searchsorted(tie_keys, (r_rank[events] + 1) * t_counts.size)
                - np.searchsorted(tie_keys, key[events], side="right")).sum())
    # concordant: in (time, rank) order an event outranks exactly the later
    # patients with a smaller rank, because equal times sort by rank
    order = np.argsort(t_rank * t.size + r_rank)
    concordant = _later_smaller_counts(r_rank[order], np.flatnonzero(e[order] == 1))
    return float((concordant + 0.5 * tied) / n_comp)


def time_dependent_auc(scores: Sequence[float], labels: Sequence[SurvivalLabel],
                       horizon: float) -> float | None:
    """AUC of event-before-horizon classification, censored-at-or-before-t excluded.

    `scores` are the predicted event probabilities P(event <= t), e.g.
    1 - S(t) read off the survival curve with step interpolation. Returns
    None when either class is empty at the horizon.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if len(scores) != len(labels):
        raise ValueError("need matching scores and labels")
    s = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    t, e = _arrays(labels)
    cases = s[(e == 1) & (t <= horizon)]
    controls = np.sort(s[t > horizon])
    if cases.size == 0 or controls.size == 0:
        return None
    below = np.searchsorted(controls, cases, side="left")
    ties = np.searchsorted(controls, cases, side="right") - below
    wins = int(below.sum()) + 0.5 * int(ties.sum())
    return float(wins / (cases.size * controls.size))


@dataclass(frozen=True)
class CensoringSurvival:
    """Right-continuous step function G(t) for the censoring distribution."""

    drop_times: np.ndarray
    values: np.ndarray  # G immediately after each drop time

    def at(self, t: float) -> float:
        i = int(np.searchsorted(self.drop_times, t, side="right"))
        return 1.0 if i == 0 else float(self.values[i - 1])

    def at_left(self, t: float) -> float:
        """Left limit G(t-)."""
        i = int(np.searchsorted(self.drop_times, t, side="left"))
        return 1.0 if i == 0 else float(self.values[i - 1])


def km_censoring_survival(labels: Sequence[SurvivalLabel]) -> CensoringSurvival:
    """Kaplan-Meier fit treating censorings as events and events as censored.

    At tied times the censoring count uses the full at-risk set (everyone
    with an observed time at or beyond that time).
    """
    if len(labels) == 0:
        raise ValueError("need at least one patient")
    t, e = _arrays(labels)
    u, inverse, counts = np.unique(t, return_inverse=True, return_counts=True)
    at_risk = t.size - np.cumsum(counts) + counts
    d = np.bincount(inverse[e == 0], minlength=u.size)
    drop = d > 0
    # the running product, factor by factor in time order, as a loop would
    values = np.cumprod(1.0 - d[drop] / at_risk[drop])
    return CensoringSurvival(u[drop], values)


def integrated_brier(curves: Sequence[SurvivalCurve], labels: Sequence[SurvivalLabel],
                     bins: TimeBins, tau: float, weight_cap: float = 100.0) -> float:
    """IPCW Brier score averaged over [0, tau] by the trapezoid rule.

    BS(t) sums, per patient, S(t)^2 / G(time-) for events at or before t and
    (1 - S(t))^2 / G(t) for patients still at risk; censored patients with
    time <= t contribute nothing. The time grid is 100 uniform points.
    Weights where G reaches 0 (or exceeds the cap) are clamped to
    `weight_cap` and a warning is emitted.
    """
    if tau <= 0 or tau > bins.horizon:
        raise ValueError(f"tau must lie in (0, {bins.horizon}]")
    if len(curves) != len(labels) or not labels:
        raise ValueError("need matching curves and labels")
    t_obs, e_obs = _arrays(labels)
    G = km_censoring_survival(labels)
    n = len(labels)
    grid = np.linspace(0.0, tau, 100)
    # survival value per patient per grid point (step interpolation)
    bin_of = np.minimum(np.searchsorted(bins.edges, grid, side="right") - 1,
                        bins.count - 1)
    s_mat = np.stack([c.s[bin_of] for c in curves])  # n x 100

    capped = 0

    def weight(g: float) -> float:
        nonlocal capped
        w = 1.0 / g if g > 0.0 else np.inf
        if w > weight_cap:
            capped += 1
            return weight_cap
        return w

    w_event = np.array([weight(G.at_left(ti)) if ei == 1 else 0.0
                        for ti, ei in zip(t_obs, e_obs)])
    bs = np.zeros_like(grid)
    for j, t in enumerate(grid):
        w_alive = weight(G.at(t))
        had_event = (t_obs <= t) & (e_obs == 1)
        alive = t_obs > t
        terms = np.where(had_event, s_mat[:, j] ** 2 * w_event, 0.0)
        terms = np.where(alive, (1.0 - s_mat[:, j]) ** 2 * w_alive, terms)
        bs[j] = terms.sum() / n
    if capped:
        warnings.warn(f"{capped} IPCW weights capped at {weight_cap}", IpcwCapWarning)
    return float(np.trapezoid(bs, grid) / tau)


def mae_uncensored(pred_times: Sequence[float], labels: Sequence[SurvivalLabel]) -> float | None:
    """Mean absolute error in years over event patients; None if there are none."""
    if len(pred_times) != len(labels):
        raise ValueError("need matching predictions and labels")
    p = np.asarray(pred_times, dtype=np.float64)
    t, e = _arrays(labels)
    mask = e == 1
    if not mask.any():
        return None
    return float(np.abs(p[mask] - t[mask]).mean())


def bootstrap_ci(metric: Callable[[list], float | None], patients: Sequence, b: int,
                 level: float, seed: int) -> tuple[float, float]:
    """Patient-level percentile bootstrap interval.

    Each resample draws n patients with replacement using a seed derived
    from (seed, resample index). Resamples where the metric is undefined
    (returns None or raises ValueError) are discarded; more than half
    undefined is an error.
    """
    if b < 100:
        raise ValueError("bootstrap needs at least 100 resamples")
    if not (0.0 < level < 1.0):
        raise ValueError("level must be in (0, 1)")
    n = len(patients)
    if n == 0:
        raise ValueError("no patients to resample")
    children = np.random.SeedSequence(seed).spawn(b)
    values = []
    undefined = 0
    for child in children:
        rng = np.random.default_rng(child)
        idx = rng.integers(0, n, size=n)
        sample = [patients[i] for i in idx.tolist()]
        try:
            v = metric(sample)
        except ValueError:
            v = None
        if v is None:
            undefined += 1
        else:
            values.append(v)
    if undefined > b // 2:
        raise ValueError(f"{undefined}/{b} bootstrap resamples undefined")
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(np.array(values), [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def format_ci(level: float, lo: float, hi: float) -> str:
    """Render like '95% CI of [0.711, 0.796]'."""
    return f"{level:.0%} CI of [{lo:.3f}, {hi:.3f}]"
