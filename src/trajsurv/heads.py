"""Cascaded discrete-time survival heads and hazard/survival transforms.

The recurrence branch projects the trajectory summary to logits over K time
bins and, with the cascade, to a compact context vector; the mortality
branch consumes the summary concatenated with that context, encoding that
recurrence informs mortality. Heads built without the cascade hold no
context weights, and the mortality branch reads the summary alone. Per-bin
sigmoid hazards multiply into survival curves, and a point event-time
estimate is the expectation with tail mass at the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import uniform_weight, zero_bias


class SaturatedCurveError(ValueError):
    """Curves a finite model cannot represent: logits that overflow, or valid
    hazards whose survival product underflows to 0."""


@dataclass(frozen=True)
class TimeBins:
    """K left-closed bins [edges[k], edges[k+1]) in years; edges[0] = 0."""

    edges: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "edges", e)
        if e.shape[0] < 2 or e[0] != 0.0 or not (np.diff(e) > 0).all():
            raise ValueError("bin edges must start at 0 and increase strictly")

    @property
    def count(self) -> int:
        return self.edges.shape[0] - 1

    @property
    def horizon(self) -> float:
        return float(self.edges[-1])

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def index(self, times) -> np.ndarray:
        """Largest k with edges[k] <= t, per time; at or past the horizon, K-1."""
        return np.minimum(np.searchsorted(self.edges, times, side="right") - 1, self.count - 1)


def annual_bins(count: int) -> TimeBins:
    return TimeBins(np.arange(count + 1, dtype=np.float64))


@dataclass
class HeadParams:
    """Recurrence logits (d_h -> K); with the cascade, a context projection
    (d_h -> d_c) and mortality logits on [h* | context] (d_h + d_c -> K);
    without it, `w_ctx` and `b_ctx` are None and `w_os` is d_h -> K."""

    w_ctx: np.ndarray | None
    b_ctx: np.ndarray | None
    w_dfs: np.ndarray
    b_dfs: np.ndarray
    w_os: np.ndarray
    b_os: np.ndarray

    def named_leaves(self) -> list[tuple[str, np.ndarray]]:
        return [(f"heads.{f.name}", getattr(self, f.name)) for f in fields(self)
                if getattr(self, f.name) is not None]


def init_heads(summary_dim: int, context_dim: int | None, num_bins: int,
               rng: np.random.Generator) -> HeadParams:
    """Heads on a summary of `summary_dim`; a `context_dim` builds the cascade."""
    cascade = context_dim is not None
    return HeadParams(
        w_ctx=uniform_weight(rng, summary_dim, context_dim) if cascade else None,
        b_ctx=zero_bias(context_dim) if cascade else None,
        w_dfs=uniform_weight(rng, summary_dim, num_bins),
        b_dfs=zero_bias(num_bins),
        w_os=uniform_weight(rng, summary_dim + (context_dim or 0), num_bins),
        b_os=zero_bias(num_bins),
    )


def dfs_head(h_star: np.ndarray, params: HeadParams) -> tuple[np.ndarray, np.ndarray | None]:
    """Recurrence logits (B x K) and the tanh-bounded context (B x d_c), or
    None for heads without the cascade."""
    context = None if params.w_ctx is None else np.tanh(h_star @ params.w_ctx + params.b_ctx)
    logits = h_star @ params.w_dfs + params.b_dfs
    return logits, context


def _joint(h_star: np.ndarray, context: np.ndarray | None) -> np.ndarray:
    """The input of the mortality logits: h* alone, or [h* | context]."""
    return h_star if context is None else np.concatenate([h_star, context], axis=1)


def os_head(h_star: np.ndarray, context: np.ndarray | None, params: HeadParams) -> np.ndarray:
    """Mortality logits from h* and the recurrence head's context, if any."""
    return _joint(h_star, context) @ params.w_os + params.b_os


def heads_backward(h_star: np.ndarray, context: np.ndarray | None, params: HeadParams,
                   d_dfs: np.ndarray, d_os: np.ndarray, grads: HeadParams) -> np.ndarray:
    """The gradient of h* from the gradients of both heads' logits; each
    `heads.*` parameter's is written into its zeroed array in `grads`. h*
    feeds up to three products: its gradient adds the mortality head's, then
    the context's, then the recurrence logits' share, the order in which the
    tape visits them, so its bits are the tape's."""
    width = h_star.shape[1]
    d_joint = d_os @ params.w_os.T
    dh_star = d_joint[:, :width]
    if context is not None:
        d_pre = d_joint[:, width:] * (1.0 - context * context)
        dh_star = dh_star + d_pre @ params.w_ctx.T
        np.matmul(h_star.T, d_pre, out=grads.w_ctx)
        d_pre.sum(axis=0, keepdims=True, out=grads.b_ctx)
    np.matmul(h_star.T, d_dfs, out=grads.w_dfs)
    d_dfs.sum(axis=0, keepdims=True, out=grads.b_dfs)
    np.matmul(_joint(h_star, context).T, d_os, out=grads.w_os)
    d_os.sum(axis=0, keepdims=True, out=grads.b_os)
    return dh_star + d_dfs @ params.w_dfs.T


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x); exp(-|x|) never overflows, and each branch is the
    stable form on its side."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def hazards_from_logits(logits: np.ndarray) -> np.ndarray:
    """(n, K) hazards; the clip keeps them inside (0, 1) at extreme logits."""
    x = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(x).all():
        raise SaturatedCurveError("logits must be finite: the model's outputs overflow")
    return np.clip(sigmoid(x), 1e-300, 1.0 - 1e-16)


def survival_from_hazards(h: np.ndarray) -> np.ndarray:
    """(n, K) survival S[:, k] beyond bin k. Hazards inside (0, 1) keep each row
    nonincreasing and at most 1; only an underflow to 0 is left to check."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.size == 0 or not np.isfinite(h).all() or (h <= 0).any() or (h >= 1).any():
        raise ValueError("hazards must be finite and strictly inside (0, 1)")
    s = np.cumprod(1.0 - h, axis=1)
    if (s[:, -1] <= 0.0).any():
        first = int((s <= 0.0).any(axis=0).argmax())
        raise SaturatedCurveError("survival curve must be nonincreasing within (0, 1]: the "
                                  f"hazards saturate, and S is 0 from bin {first}")
    return s


def point_estimate_time(s: np.ndarray, bins: TimeBins) -> np.ndarray:
    """Per row, the expected event time with the tail mass at the final edge.
    Rows are dotted one by one: a matrix product sums in another order."""
    if s.shape[1] != bins.count:
        raise ValueError(f"curve has {s.shape[1]} bins, grid has {bins.count}")
    mass = np.hstack([np.ones((s.shape[0], 1)), s[:, :-1]]) - s
    mid = bins.midpoints()
    return np.fromiter((m @ mid for m in mass), np.float64, s.shape[0]) + s[:, -1] * bins.edges[-1]
