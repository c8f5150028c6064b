"""Censored-survival evaluation metrics.

Conventions: equal observed times are never comparable in the concordance
index; the censoring survival G comes from a Kaplan-Meier fit with flipped
indicators; IPCW terms use G with a left limit at event times; undefined
metrics propagate as None (missing), never as zeros.

Cost for n patients, none of it an n x n matrix:
- `harrell_cindex`: O(n) memory, O(n log^2 n) time. The cohort is prepared
  once: one argsort of the times and one of the risks give the dense ranks
  from their sorted runs, and each event's comparable count from where its
  time run ends; one argsort of the rank key gives the (time, risk) order.
  The risk-tie count is exactly 0 when no equal-risk run holds two distinct
  times, as with continuous risks; otherwise one more argsort, of the
  (risk, time) key, counts it from run ends. The concordant pairs are one
  gather-compare of the 496 pairs inside each aligned block of 32 patients
  (15.5 booleans per patient), then ceil(log2 n) - 5 merge levels. Each
  level is one in-place value sort of rows made of two sorted runs and two
  masked index sums, with no argsort and no gather. A level is O(n log n),
  not the O(n) of a stable merge, but numpy's vectorised int32 sort is the
  faster at these sizes: 7 us for 2048 keys against 120 us for a stable
  argsort (2-core Xeon). At n = 2000 a call on label lists takes about
  0.5-0.9 ms (2-core Xeon, one BLAS thread).
- `bootstrap_cindex`: the same preparation once; each draw is then counted
  from it by its multiplicities (`_Concordance`), O(n) memory and no sort.
- `index_bootstrap_ci`, the draw loop of both bootstrap forms: the draws run
  in contiguous chunks, one per CPU the process may use, the first here and
  the others in forked children, so b draws cost about b / CPUs draw times
  plus one fork per extra CPU. The values and the interval are the serial
  loop's, whatever the CPU count.
- `time_dependent_auc`: O(n) memory; one sort of the controls and two
  binary searches per case, O(n log n) time.
- `km_censoring_survival`: O(n) memory; one sorted pass, O(n log n) time.
The rank metrics count pairs in integers and divide once, so they return
the value of a pair-by-pair count bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence

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
    n = len(labels)
    return cindex_arrays(np.asarray(risks, dtype=np.float64),
                         np.fromiter([lab.time for lab in labels], np.float64, n),
                         np.fromiter([lab.event for lab in labels], np.int64, n))


def _runs(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of a sorted array: each position's run number (so the dense rank of
    its value) and the exclusive end of each run."""
    change = sorted_values[1:] != sorted_values[:-1]
    ids = np.zeros(sorted_values.size, dtype=np.intp)
    np.cumsum(change, out=ids[1:])
    return ids, np.append(np.flatnonzero(change) + 1, sorted_values.size)


class _Concordance:
    """One cohort's concordance order, prepared once, and the C-index of the
    cohort or of any bootstrap draw of it counted from that order.

    A draw is its multiplicities w (w_i copies of patient i, summing to n),
    and its counts are prefix sums of w. Comparable: over events i, w_i times
    the w after the end of i's time run in the (time, risk) order. Tied:
    over events i, w_i times the w between the end of i's (risk, time) run
    and the end of its risk run in the (risk, time) order. The draw's
    (time, risk) order is the prepared order with patient i repeated w_i
    times, and the prepared risk ranks, all below n, stay valid codes for
    `_later_smaller_counts`. Copies share a time, so they are never
    comparable, as in the drawn list.
    """

    def __init__(self, r: np.ndarray, t: np.ndarray, e: np.ndarray):
        if not r.shape == t.shape == e.shape or t.size < 2:
            raise ValueError("need matching risks and at least two patients")
        if not np.isfinite(r).all():
            raise ValueError("risk scores must be finite")
        n = self.n = t.size
        by_time, by_risk = np.argsort(t), np.argsort(r)
        t_ids, t_ends = _runs(t[by_time])
        r_ids, r_ends = _runs(r[by_risk])
        t_rank, r_rank = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
        t_rank[by_time], r_rank[by_risk] = t_ids, r_ids
        # equal times sort by risk rank, so an event outranks exactly the
        # later patients with a smaller rank
        self.order = np.argsort(t_rank * r_ends.size + r_rank)
        self.codes = r_rank[self.order]
        self.is_event = e[self.order] == 1
        self.events = np.flatnonzero(self.is_event)
        self.time_ends = t_ends[t_rank[self.order[self.events]]]
        self.comparable = int((n - self.time_ends).sum())
        # tied: each event's equal-risk patients with a later time; 0, with
        # no tie order, when no equal-risk run holds two distinct times
        t_sorted = t[by_risk]
        self.tie_order = None
        self.tied = 0
        if np.any((r_ids[1:] == r_ids[:-1]) & (t_sorted[1:] != t_sorted[:-1])):
            key = r_rank * t_ends.size + t_rank
            self.tie_order = np.argsort(key)
            key_ids, key_ends = _runs(key[self.tie_order])
            self.tie_events = np.flatnonzero(e[self.tie_order] == 1)
            self.tie_lo = key_ends[key_ids[self.tie_events]]
            self.tie_hi = r_ends[r_rank[self.tie_order[self.tie_events]]]
            self.tied = int((self.tie_hi - self.tie_lo).sum())

    def cindex(self, w: np.ndarray | None = None) -> float:
        """The C-index of the cohort, or of the draw with multiplicities `w`."""
        if w is None:
            comparable, tied = self.comparable, self.tied
            codes, query = self.codes, self.events
        else:
            w_o = w[self.order]
            cum = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(w_o, out=cum[1:])
            comparable = int(w_o[self.events] @ (self.n - cum[self.time_ends]))
            tied = 0
            if self.tie_order is not None and comparable:
                w_t = w[self.tie_order]
                np.cumsum(w_t, out=cum[1:])
                tied = int(w_t[self.tie_events] @ (cum[self.tie_hi] - cum[self.tie_lo]))
            codes = np.repeat(self.codes, w_o)
            query = np.flatnonzero(np.repeat(self.is_event, w_o))
        if comparable == 0:
            raise ValueError("no comparable pairs")
        concordant = _later_smaller_counts(codes, query)
        return float((concordant + 0.5 * tied) / comparable)


def cindex_arrays(r: np.ndarray, t: np.ndarray, e: np.ndarray) -> float:
    """`harrell_cindex` on risk, time and event arrays of equal length."""
    return _Concordance(r, t, e).cindex()


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


def _workers() -> int:
    """The number of CPUs this process may run on."""
    import os
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _forked_map(fn: Callable, items: Sequence) -> list:
    """`[fn(item) for item in items]`, with items[0] run here and every other
    item in a forked child, all at once.

    Fork, because `fn` may be a closure or a lambda that cannot be pickled;
    a child sees this process's memory as it was at the fork, and only its
    return value, pickled through a pipe, comes back. An exception that `fn`
    raises in a child is raised here with its type and message, the first in
    item order as in the loop; a child that ends without a result is a
    RuntimeError. Every child is reaped before this returns or raises, also
    on KeyboardInterrupt. Without `fork`, or where a fork fails, the items
    run here in turn.
    """
    import os
    import pickle
    import signal
    if len(items) < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    children: list[tuple[int, int]] = []   # (pid, read end), in item order
    rest: Sequence = []                    # the items no child took
    try:
        for i, item in enumerate(items[1:], 1):
            read, write = os.pipe()
            # SIGINT waits until the pid is recorded here and, in the child,
            # until its exit is certain
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    os.close(read)
                    _child(fn, item, write, mask)
                children.append((pid, read))
            except OSError:   # no process to be had
                os.close(read)
                rest = items[i:]
                break
            finally:
                os.close(write)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = [fn(items[0])]
        for pid, read in children:
            chunks = []
            while chunk := os.read(read, 1 << 16):
                chunks.append(chunk)
            if not chunks:
                raise RuntimeError(f"worker process {pid} ended without a result")
            ok, value = pickle.loads(b"".join(chunks))
            if not ok:
                raise value
            results.append(value)
        return results + [fn(item) for item in rest]
    finally:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        for pid, read in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)   # a child still running is not waited for
            os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _child(fn: Callable, item, write: int, mask) -> NoReturn:
    """A forked child's whole run: `fn(item)`, or the exception it raised,
    pickled into the pipe end `write`, then `os._exit`, whatever happens, so
    that the child runs no exit handler and flushes no stdio buffer it
    inherited. A value or exception that cannot be rebuilt from its pickle
    travels as a RuntimeError naming its type and text."""
    import os
    import pickle
    import signal
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            reply = (True, fn(item))
        except BaseException as exc:
            reply = (False, exc)
        try:
            data = pickle.dumps(reply)
            pickle.loads(data)
        except Exception:
            what = reply[1]
            data = pickle.dumps((False, RuntimeError(
                f"a worker's {type(what).__name__} could not be sent back: {what}")))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def index_bootstrap_ci(metric: Callable[[np.ndarray], float | None], n: int, b: int,
                       level: float, seed: int) -> tuple[float, float]:
    """Percentile bootstrap interval over patients 0..n-1.

    Each resample draws n patient indices with replacement using a seed
    derived from (seed, resample index), and `metric` gets them as an array.
    Resamples where the metric is undefined (returns None or raises
    ValueError) are discarded; more than half undefined is an error.

    The draws are split into contiguous chunks, one per CPU this process may
    use; this process counts the first and forked children the others
    (`_forked_map`). Every draw's value is the serial loop's, joined in draw
    order, so the interval does not depend on the CPU count. A draw in a
    child changes nothing in this process: a `metric` that records into
    outer state records only the first chunk.
    """
    if b < 100:
        raise ValueError("bootstrap needs at least 100 resamples")
    if not (0.0 < level < 1.0):
        raise ValueError("level must be in (0, 1)")
    if n == 0:
        raise ValueError("no patients to resample")
    draws = np.random.SeedSequence(seed).spawn(b)

    def count(chunk: list) -> list:
        out = []
        for child in chunk:
            idx = np.random.default_rng(child).integers(0, n, size=n)
            try:
                out.append(metric(idx))
            except ValueError:
                out.append(None)
        return out

    k = min(_workers(), b)
    chunks = [draws[b * i // k:b * (i + 1) // k] for i in range(k)]
    values = [v for part in _forked_map(count, chunks) for v in part if v is not None]
    undefined = b - len(values)
    if undefined > b // 2:
        raise ValueError(f"{undefined}/{b} bootstrap resamples undefined")
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(np.array(values), [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def bootstrap_cindex(risk: np.ndarray, time: np.ndarray, event: np.ndarray, b: int,
                     level: float, seed: int) -> tuple[float, float]:
    """`index_bootstrap_ci` of `cindex_arrays` over the patients of the risk,
    time and event arrays, with the same draws and the same bits. The cohort
    is sorted once; each draw is counted from that order by its patients'
    multiplicities, so no draw sorts anything."""
    prepared = _Concordance(risk, time, event)
    return index_bootstrap_ci(
        lambda idx: prepared.cindex(np.bincount(idx, minlength=time.size)), time.size, b,
        level, seed)


def format_ci(level: float, lo: float, hi: float) -> str:
    """Render like '95% CI of [0.711, 0.796]', with the level as given
    ('97.5% CI', not '98% CI')."""
    return f"{level * 100:g}% CI of [{lo:.3f}, {hi:.3f}]"
