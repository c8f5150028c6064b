"""Censored-survival evaluation metrics.

Conventions: equal observed times are never comparable in the concordance
index; the censoring survival G comes from a Kaplan-Meier fit with flipped
indicators; IPCW terms use G with a left limit at event times; undefined
metrics propagate as None (missing), never as zeros.

Cost for n patients, none of it an n x n matrix:
- `harrell_cindex`: O(n) memory, O(n log^2 n) time. Three argsorts (the
  time ranks, the risk ranks and the (time, risk) order), one
  gather-compare of the 496 pairs inside each aligned block of 32 patients
  (15.5 booleans per patient), then ceil(log2 n) - 5 merge levels. Each
  level is one in-place value sort of rows made of two sorted runs and two
  masked index sums, with no argsort and no gather. A level is O(n log n),
  not the O(n) of a stable merge, but numpy's vectorised int32 sort is the
  faster at these sizes: 7 us for 2048 keys against 120 us for a stable
  argsort (2-core Xeon).
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

from .heads import TimeBins
from .objective import SurvivalLabel


class IpcwCapWarning(UserWarning):
    """An IPCW weight hit the cap (censoring survival near 0)."""


IPCW_WEIGHT_CAP = 100.0


_BASE = 32
_P, _J = np.triu_indices(_BASE, 1)   # the 496 positions p < j within a block
# Blocks per gather-compare: its (496, 64) operands stay in cache, where
# gathering all blocks at once was slower than a dense compare from n = 5000.
_CHUNK = 64


def _later_smaller_counts(ranks: np.ndarray, query: np.ndarray) -> int:
    """Sum over positions p in `query` of #{j > p : ranks[j] < ranks[p]}.

    Ranks become codes 2r (queried) or 2r + 1, padded to a power of two with
    a code above all. Pairs within a 32-aligned block: the codes are laid out
    as (32, blocks) columns, 64 blocks at a time. A copy with the code of
    every unqueried p set to -1 is gathered at the rows p of the 496 pairs
    p < j and compared with the codes gathered at their rows j, so one
    comparison counts them all. Then merge levels: at width w, the
    pairs with p in the left and j in the right half of a 2w-aligned block.
    Each half is held sorted as keys 2 code + half (0 left, 1 right), so one
    value sort of each 2w row merges them, and a left key sorts ahead of the
    right keys of its own code. A left key moved from index i to k has k - i
    smaller right codes ahead; over the queried left keys (key % 4 == 0) that
    is their index sum after the sort minus their index sum before it. With
    the half bits cleared, the sorted rows are the next level's runs.
    """
    n = ranks.size
    size = 1 << max(_BASE.bit_length() - 1, (n - 1).bit_length())
    code = np.full(size, 2 * n + 1, dtype=np.int32)
    code[:n] = 2 * ranks + 1
    code[query] -= 1
    # [chunk, p, block]: 64 blocks, or all of them, per chunk
    cols = code.reshape(-1, min(size // _BASE, _CHUNK), _BASE).transpose(0, 2, 1).copy()
    left = cols | -(cols & 1)   # an odd (unqueried) code becomes -1
    total = sum(int(np.count_nonzero(lp.take(_P, axis=0) > cp.take(_J, axis=0)))
                for lp, cp in zip(left, cols))
    keys = code << 1
    keys.reshape(-1, _BASE).sort(axis=1)
    index = np.arange(size)
    for w in (_BASE << np.arange((size // _BASE).bit_length() - 1)).tolist():
        runs = keys.reshape(-1, 2 * w)
        runs[:, w:] |= 1
        total -= int(((keys & 3) == 0) @ index)
        runs.sort(axis=1)
        total += int(((keys & 3) == 0) @ index)
        keys &= -2
    return total


def harrell_cindex(risks: Sequence[float], labels: Sequence[SurvivalLabel]) -> float:
    """Concordance over comparable pairs; risk ties count one half.

    A pair is comparable only when the strictly earlier time carries an
    event; pairs with equal observed times are never comparable (whether the
    tie involves a censoring or two events).
    """
    return cindex_arrays(np.asarray(risks, dtype=np.float64),
                         np.array([lab.time for lab in labels], dtype=np.float64),
                         np.array([lab.event for lab in labels], dtype=np.int64))


def _dense_ranks(x: np.ndarray) -> np.ndarray:
    """Rank of each value among the distinct values of `x`, smallest 0."""
    order = np.argsort(x)
    ranked = x[order]
    rank = np.empty(x.size, dtype=np.intp)
    rank[order] = np.concatenate(([0], np.cumsum(ranked[1:] != ranked[:-1])))
    return rank


def cindex_arrays(r: np.ndarray, t: np.ndarray, e: np.ndarray) -> float:
    """`harrell_cindex` on risk, time and event arrays of equal length."""
    if not r.shape == t.shape == e.shape or t.size < 2:
        raise ValueError("need matching risks and at least two patients")
    if not np.isfinite(r).all():
        raise ValueError("risk scores must be finite")
    t_rank, r_rank = _dense_ranks(t), _dense_ranks(r)
    t_counts = np.bincount(t_rank)
    events = np.flatnonzero(e == 1)
    # comparable: for each event, the patients with a strictly later time
    n_comp = int((t.size - np.cumsum(t_counts)[t_rank[events]]).sum())
    if n_comp == 0:
        raise ValueError("no comparable pairs")
    # tied: among those, the ones with the same risk rank (sorted queries)
    m = t_counts.size
    key = r_rank * m + t_rank
    tie_keys, asked = np.sort(key), np.sort(key[events])
    tied = int((np.searchsorted(tie_keys, (asked // m + 1) * m)
                - np.searchsorted(tie_keys, asked, side="right")).sum())
    # concordant: in (time, rank) order an event outranks exactly the later
    # patients with a smaller rank, because equal times sort by rank
    order = np.argsort(t_rank * t.size + r_rank)
    concordant = _later_smaller_counts(r_rank[order], np.flatnonzero(e[order] == 1))
    return float((concordant + 0.5 * tied) / n_comp)


def time_dependent_auc(scores: Sequence[float], t: np.ndarray, e: np.ndarray,
                       horizon: float) -> float | None:
    """AUC of event-before-horizon classification, censored-at-or-before-t excluded.

    `scores` are the predicted event probabilities P(event <= horizon), e.g.
    1 - S(horizon) read off the survival curve with step interpolation, of
    the patients with observed times `t` and event flags `e`. Returns None
    when either class is empty at the horizon.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not len(scores) == len(t) == len(e):
        raise ValueError("need matching scores and labels")
    s = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
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

    def at(self, t):
        """G(t), for a time (a float back) or an array of times."""
        return self._step(t, "right")

    def at_left(self, t):
        """Left limit G(t-)."""
        return self._step(t, "left")

    def _step(self, t, side: str):
        g = np.concatenate(([1.0], self.values))[np.searchsorted(self.drop_times, t, side=side)]
        return float(g) if np.ndim(g) == 0 else g


def km_censoring_survival(t: np.ndarray, e: np.ndarray) -> CensoringSurvival:
    """Kaplan-Meier fit of observed times `t` with event flags `e`, treating
    censorings as events and events as censored.

    At tied times the censoring count uses the full at-risk set (everyone
    with an observed time at or beyond that time).
    """
    if len(t) == 0:
        raise ValueError("need at least one patient")
    u, inverse, counts = np.unique(t, return_inverse=True, return_counts=True)
    at_risk = t.size - np.cumsum(counts) + counts
    d = np.bincount(inverse[e == 0], minlength=u.size)
    drop = d > 0
    # the running product, factor by factor in time order, as a loop would
    values = np.cumprod(1.0 - d[drop] / at_risk[drop])
    return CensoringSurvival(u[drop], values)


def integrated_brier(survival: np.ndarray, t_obs: np.ndarray, e_obs: np.ndarray,
                     bins: TimeBins, tau: float) -> float:
    """IPCW Brier score averaged over [0, tau] by the trapezoid rule.

    `survival` holds one patient's curve per row (n x K), for the patients
    with observed times `t_obs` and event flags `e_obs`. BS(t) sums, per
    patient, S(t)^2 / G(time-) for events at or before t and
    (1 - S(t))^2 / G(t) for patients still at risk; censored patients with
    time <= t contribute nothing. The time grid is 100 uniform points.
    Weights where G reaches 0 (or exceeds the cap) are clamped to
    `IPCW_WEIGHT_CAP` and a warning is emitted.
    """
    if tau <= 0 or tau > bins.horizon:
        raise ValueError(f"tau must lie in (0, {bins.horizon}]")
    n = len(t_obs)
    if survival.shape != (n, bins.count) or len(e_obs) != n or not n:
        raise ValueError("need matching curves and labels")
    G = km_censoring_survival(t_obs, e_obs)
    grid = np.linspace(0.0, tau, 100)
    s_mat = survival[:, bins.index(grid)]  # n x 100, step interpolation
    # 1/G at each event time (left limit) and at each grid point, capped
    event = e_obs == 1
    g = np.concatenate([G.at_left(t_obs[event]), G.at(grid)])
    w = np.divide(1.0, g, out=np.full(g.size, np.inf), where=g > 0.0)
    capped = int(np.count_nonzero(w > IPCW_WEIGHT_CAP))
    w = np.minimum(w, IPCW_WEIGHT_CAP)
    w_event = np.zeros(n)
    w_event[event] = w[:-grid.size]
    bs = np.zeros_like(grid)
    for j, (t, w_alive) in enumerate(zip(grid, w[-grid.size:])):
        had_event = (t_obs <= t) & event
        alive = t_obs > t
        terms = np.where(had_event, s_mat[:, j] ** 2 * w_event, 0.0)
        terms = np.where(alive, (1.0 - s_mat[:, j]) ** 2 * w_alive, terms)
        bs[j] = terms.sum() / n
    if capped:
        warnings.warn(f"{capped} IPCW weights capped at {IPCW_WEIGHT_CAP}", IpcwCapWarning)
    return float(np.trapezoid(bs, grid) / tau)


def mae_uncensored(pred_times: Sequence[float], t: np.ndarray, e: np.ndarray) -> float | None:
    """Mean absolute error in years over the patients with an event (`e` 1)
    at their observed time `t`; None if there are none."""
    if not len(pred_times) == len(t) == len(e):
        raise ValueError("need matching predictions and labels")
    p = np.asarray(pred_times, dtype=np.float64)
    mask = e == 1
    if not mask.any():
        return None
    return float(np.abs(p[mask] - t[mask]).mean())


def bootstrap_ci(metric: Callable[[Sequence], float | None], patients: Sequence, b: int,
                 level: float, seed: int) -> tuple[float, float]:
    """Patient-level percentile bootstrap interval: `index_bootstrap_ci`
    with each resample handed to `metric` as the list of its patients."""
    pool = np.fromiter(patients, dtype=object, count=len(patients))
    return index_bootstrap_ci(lambda idx: metric(pool[idx].tolist()), pool.size, b, level,
                              seed)


def index_bootstrap_ci(metric: Callable[[np.ndarray], float | None], n: int, b: int,
                       level: float, seed: int) -> tuple[float, float]:
    """Percentile bootstrap interval over patients 0..n-1.

    Each resample draws n patient indices with replacement using a seed
    derived from (seed, resample index), and `metric` gets them as an array.
    Resamples where the metric is undefined (returns None or raises
    ValueError) are discarded; more than half undefined is an error.
    """
    if b < 100:
        raise ValueError("bootstrap needs at least 100 resamples")
    if not (0.0 < level < 1.0):
        raise ValueError("level must be in (0, 1)")
    if n == 0:
        raise ValueError("no patients to resample")
    values = []
    for child in np.random.SeedSequence(seed).spawn(b):
        idx = np.random.default_rng(child).integers(0, n, size=n)
        try:
            v = metric(idx)
        except ValueError:
            v = None
        if v is not None:
            values.append(v)
    undefined = b - len(values)
    if undefined > b // 2:
        raise ValueError(f"{undefined}/{b} bootstrap resamples undefined")
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(np.array(values), [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def format_ci(level: float, lo: float, hi: float) -> str:
    """Render like '95% CI of [0.711, 0.796]'."""
    return f"{level:.0%} CI of [{lo:.3f}, {hi:.3f}]"
