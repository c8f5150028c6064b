"""Independent brute-force reference implementations for the metrics.

Everything here is written as plain per-patient loops, deliberately sharing
no code with the library: pair enumeration for the rank metrics, an explicit
product recursion for Kaplan-Meier, and direct summation for the weighted
Brier integral. Used to pin the vectorized implementations to 1e-12.
`argsort_later_smaller_counts` is the C-index's merge count in its first
numpy form, one stable argsort and one gather per merge level.
`tie_table_cindex` is the array C-index with every cohort ranked on its
own: two rank argsorts, a sorted (risk, time) key table binary-searched for
the risk ties, and the (time, risk) order for the library's merge count.
The curve classes and functions below are the per-patient scalar forms of
the (n, K) curve transforms, the reference the arrays are held to with ==.
`curve_rows` is a report's curves in their first form, one `CurveRow` per
(patient, task, bin) built from the fold outcomes.
`concat_step` is the evolution step in its first form, dense and per node.
`lstm_step` and `tape_integrate` are the LSTM integrator as per-op tape
nodes, `stacked_snapshot_grad` is the `lstm` node's snapshot gradient as
one stacked (T, 4, B, d) product summed over its gates, and
`leafwise_adamw_step` is AdamW one leaf at a time.
`list_kfold` is the repeated stratified k-fold split in its list form,
dealing patients one at a time.
`per_region_simulate` is the cohort simulator in its per-region form: one
draw per region kind into dicts keyed by `NodeKind`, stacked at the end,
and the censoring calibration's mixture summed one group at a time.
`tape_evolve` is the evolution rollout as per-op tape nodes: `rows_of`
selectors for the weight blocks and time rows, `residual_update` for a step
and `readout` for a snapshot. Its gat arcs are the dense one-hot gathers of
`arc_blocks`, built from the arc template, not the index form they check.
The per-op forms use three tape ops the model does not: `spmm`, `exp` and
`log`. They are defined here, and their backward rules join the engine's
table when this module is imported; `SRC_RULES` is that table before they do.
"""

from dataclasses import dataclass

import numpy as np

from trajsurv import autodiff as ad
from trajsurv.cohort import CohortError, FoldSpec, _geometric_time, make_cohort
from trajsurv.crossval import TASKS, CurveRow
from trajsurv.evolution import Blocks, adjacency, mean_pool
from trajsurv.graph import ANATOMICAL_KINDS, NodeKind, slots_in_use
from trajsurv.metrics import _later_smaller_counts
from trajsurv.objective import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, label_to_bin
from trajsurv.trajectory import _gate_grads


def spmm(s, x):
    """Constant block-diagonal matrix times a tape tensor; only x gets a gradient."""
    if s.shape[1] != x.rows:
        raise ad.ShapeMismatchError("spmm", s.shape, x.shape)
    return ad.Tensor._node(s.apply(x.data), "spmm", (x,), s)


def exp(a):
    return ad.Tensor._node(np.exp(a.data), "exp", (a,))


def log(a):
    return ad.Tensor._node(np.log(a.data), "log", (a,))


SRC_RULES = frozenset(ad._BACKWARD)
ad._BACKWARD.update({
    "spmm": lambda node, g: (node.ctx.T.apply(g),),
    "exp": lambda node, g: (g * node.data,),
    "log": lambda node, g: (g / node.parents[0].data,),
})


@dataclass(frozen=True)
class HazardCurve:
    """One patient's per-bin conditional event probabilities, each in (0, 1)."""

    h: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.h, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "h", v)
        if v.size == 0 or not np.isfinite(v).all() or (v <= 0).any() or (v >= 1).any():
            raise ValueError("hazards must be finite and strictly inside (0, 1)")


@dataclass(frozen=True)
class SurvivalCurve:
    """S(k) = probability of surviving beyond bin k; positive, nonincreasing."""

    s: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.s, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "s", v)
        if v.size == 0 or not np.isfinite(v).all():
            raise ValueError("survival values must be finite")
        if v[0] > 1.0 or v[-1] <= 0.0 or (np.diff(v) > 0).any():
            raise ValueError("survival curve must be nonincreasing within (0, 1]")

    def at_time(self, t, bins):
        """Step interpolation: the value of the bin containing t."""
        return float(self.s[label_to_bin(t, bins)])


def scalar_hazards(logits):
    """One row of logits to its clamped sigmoid hazards, element by element."""
    x = np.asarray(logits, dtype=np.float64).reshape(-1)
    if not np.isfinite(x).all():
        raise ValueError("logits must be finite")
    h = []
    for v in x:
        e = np.exp(-abs(v))
        h.append(min(max(1.0 / (1.0 + e) if v >= 0 else e / (1.0 + e), 1e-300),
                     1.0 - 1e-16))
    return HazardCurve(np.array(h))


def scalar_survival(hc):
    s, out = 1.0, []
    for h in hc.h:
        s *= 1.0 - h
        out.append(s)
    return SurvivalCurve(np.array(out))


def scalar_point_estimate(curve, bins):
    """Expected event time with the tail mass placed at the final edge."""
    s = curve.s
    if s.shape[0] != bins.count:
        raise ValueError(f"curve has {s.shape[0]} bins, grid has {bins.count}")
    mass = np.concatenate(([1.0], s[:-1])) - s
    return float(mass @ bins.midpoints() + s[-1] * bins.edges[-1])


def curve_rows(outcomes):
    """The curve rows of the repeat-0 outcomes that did not fail, in outcome
    order: patient by patient, task by task, bin by bin."""
    return [CurveRow(pid, task, k, h, s) for o in outcomes
            if o.failure is None and o.ids is not None
            for i, pid in enumerate(o.ids.tolist()) for task in TASKS
            for k, (h, s) in enumerate(zip(*(a[i].tolist() for a in o.curves[task])))]


def pair_cindex(risks, labels):
    """Enumerate ordered pairs; comparable iff the earlier time is an event."""
    num = 0.0
    den = 0
    n = len(labels)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if labels[i].time < labels[j].time and labels[i].event == 1:
                den += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    return None if den == 0 else num / den


def _dense_ranks(x):
    """Rank of each value among the distinct values of `x`, smallest 0."""
    order = np.argsort(x)
    ranked = x[order]
    rank = np.empty(x.size, dtype=np.intp)
    rank[order] = np.concatenate(([0], np.cumsum(ranked[1:] != ranked[:-1])))
    return rank


def tie_table_cindex(r, t, e):
    """The C-index of risk, time and event arrays, ranked from scratch."""
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


def argsort_later_smaller_counts(ranks, query):
    """Sum over positions p in `query` of #{j > p : ranks[j] < ranks[p]}.

    Codes 2r (queried) or 2r + 1, padded to a power of two; a dense
    comparison inside 32-aligned blocks, then at each merge level one stable
    argsort merges the two sorted halves of each row, and a left code moved
    from index i to k has k - i smaller right codes ahead.
    """
    base = 32
    n = ranks.size
    size = 1 << max(base.bit_length() - 1, (n - 1).bit_length())
    code = np.full(size, 2 * n + 1, dtype=np.int32)
    code[:n] = 2 * ranks + 1
    code[query] -= 1
    rows = code.reshape(-1, base)
    pairs = rows[:, :, None] > rows[:, None, :]
    pairs &= np.triu(np.ones((base, base), dtype=bool), 1)
    pairs &= (rows % 2 == 0)[:, :, None]
    total = int(np.count_nonzero(pairs))
    merged = np.sort(rows, axis=1)
    for w in (base << np.arange((size // base).bit_length() - 1)).tolist():
        merged = merged.reshape(-1, 2 * w)
        order = np.argsort(merged, axis=1, kind="stable")
        merged = np.take_along_axis(merged, order, axis=1)
        ahead = np.arange(2 * w) - order
        total += int(ahead[(order < w) & (merged % 2 == 0)].sum())
    return total


def pair_auc(scores, labels, horizon):
    """Case/control enumeration with censored-at-or-before-horizon exclusion."""
    cases = [s for s, lab in zip(scores, labels)
             if lab.event == 1 and lab.time <= horizon]
    controls = [s for s, lab in zip(scores, labels) if lab.time > horizon]
    if not cases or not controls:
        return None
    num = 0.0
    for c in cases:
        for u in controls:
            if c > u:
                num += 1.0
            elif c == u:
                num += 0.5
    return num / (len(cases) * len(controls))


def km_censor_at(labels, t, left=False):
    """G(t) (or the left limit) by explicit product over censoring times."""
    g = 1.0
    for u in sorted({lab.time for lab in labels if lab.event == 0}):
        inside = u < t if left else u <= t
        if not inside:
            continue
        at_risk = sum(1 for lab in labels if lab.time >= u)
        d = sum(1 for lab in labels if lab.time == u and lab.event == 0)
        g *= 1.0 - d / at_risk
    return g


def direct_ibs(curves, labels, bins, tau, cap=100.0):
    """Direct-summation IPCW Brier integral on the same 100-point grid."""
    def capped(g):
        w = 1.0 / g if g > 0.0 else np.inf
        return min(w, cap)

    grid = np.linspace(0.0, tau, 100)
    bs = []
    for t in grid:
        total = 0.0
        for curve, lab in zip(curves, labels):
            s = float(curve[label_to_bin(t, bins)])
            if lab.event == 1 and lab.time <= t:
                total += s * s * capped(km_censor_at(labels, lab.time, left=True))
            elif lab.time > t:
                total += (1.0 - s) ** 2 * capped(km_censor_at(labels, t))
        bs.append(total / len(labels))
    return float(np.trapezoid(bs, grid) / tau)


def unweighted_ibs(curves, labels, bins, tau):
    """No-censoring special case: plain integrated squared error."""
    grid = np.linspace(0.0, tau, 100)
    bs = []
    for t in grid:
        total = 0.0
        for curve, lab in zip(curves, labels):
            s = float(curve[label_to_bin(t, bins)])
            target = 0.0 if lab.time <= t else 1.0
            if lab.time <= t and lab.event == 0:
                continue
            total += (target - s) ** 2
        bs.append(total / len(labels))
    return float(np.trapezoid(bs, grid) / tau)


def arrays(labels):
    """The observed times and event flags of `labels` as float64 and int64 arrays."""
    return (np.array([lab.time for lab in labels], dtype=np.float64),
            np.array([lab.event for lab in labels], dtype=np.int64))


def random_survival_instance(rng, max_n=20):
    """A small cohort with deliberate time and risk ties plus random curves,
    one survival row per patient."""
    from trajsurv.heads import annual_bins
    from trajsurv.objective import SurvivalLabel

    bins = annual_bins(6)
    n = int(rng.integers(2, max_n + 1))
    times = rng.integers(1, 7, size=n).astype(np.float64)
    if rng.random() < 0.5:
        times += rng.integers(0, 2, size=n) * 0.5
    events = rng.integers(0, 2, size=n)
    labels = [SurvivalLabel(float(t), int(e)) for t, e in zip(times, events)]
    risks = rng.integers(0, 5, size=n).astype(np.float64)
    scores = np.round(rng.random(size=n), 1)
    curves = np.stack([scalar_survival(HazardCurve(rng.uniform(0.05, 0.6, size=bins.count))).s
                       for _ in range(n)])
    return bins, labels, risks, scores, curves


def concat_step(backbone, h, e_t, src, dst, attr, w):
    """One residual update as first specified: each node state is concatenated
    with e_t (x = [H | e_t]) and x itself is propagated, with dense matrices
    and per-node loops. `w` maps op.* parameter names (without the prefix) to
    arrays; arcs run src[k] -> dst[k] with attributes attr[k]."""
    n = h.shape[0]
    x = np.hstack([h, np.repeat(e_t, n, axis=0)])
    if backbone == "gcn":
        adj = np.eye(n)
        for s, t in zip(src, dst):
            adj[t, s] = 1.0
        deg = adj.sum(axis=1)
        pre = (adj / np.sqrt(np.outer(deg, deg))) @ x @ w["w_self"] + w["b_msg"]
    else:
        agg = np.zeros((n, x.shape[1] + attr.shape[1]))
        for i in range(n):
            arcs = [k for k in range(len(dst)) if dst[k] == i]
            if not arcs:
                continue
            msgs = np.array([np.concatenate([x[src[k]], attr[k]]) for k in arcs])
            if backbone == "graphsage":
                weights = np.full(len(arcs), 1.0 / len(arcs))
            else:
                scores = np.array([
                    np.tanh(np.concatenate([x[i], x[src[k]], attr[k]]) @ w["attn_u"]
                            + w["attn_b"][0]) @ w["attn_v"][:, 0] for k in arcs])
                e = np.exp(scores - scores.max())
                weights = e / e.sum()
            agg[i] = weights @ msgs
        pre = x @ w["w_self"] + agg @ w["w_neigh"] + w["b_msg"]
    return np.maximum(pre, 0.0) @ w["w_out"] + w["b_out"]


def star_operators(cohort, offset_scale=100.0):
    """The operators of a one-patient cohort, written out from the edge rules with loops.

    Slots follow `NodeKind` order: regions 0-4, the summary node 5 and the
    clinical node 6. Every present region k has a spatial edge 5 - k carrying
    clip((centroid_k - mean present centroid) / offset_scale, -1, 1) and a
    context edge 6 - k carrying 0; each edge gives two arcs, the reverse one
    with its attribute negated. Returns the dense 7 x 7 in-neighbour mean,
    the 7 x 3 mean in-arc attribute, the 7 x 7 gcn normalisation over the
    slots in use, and the arcs as (source, target, attribute) triples.
    """
    present = [k for k in range(5) if cohort.present[0, k]]
    centroids = {k: cohort.centroids[0, k] for k in present}
    centre = sum(centroids[k] for k in present) / len(present)
    arcs = []
    for k in present:
        offset = np.clip((centroids[k] - centre) / offset_scale, -1.0, 1.0)
        for hub, attr in ((5, offset), (6, np.zeros(3))):
            arcs.append((hub, k, attr))
            arcs.append((k, hub, -attr))
    used = present + [5, 6]
    mean = np.zeros((7, 7))
    attr_mean = np.zeros((7, 3))
    for t in range(7):
        into = [(s, a) for s, d, a in arcs if d == t]
        for s, a in into:
            mean[t, s] += 1.0 / len(into)
            attr_mean[t] += a / len(into)
    adj = np.zeros((7, 7))
    for i in used:
        adj[i, i] = 1.0
    for s, d, _ in arcs:
        adj[d, s] = 1.0
    deg = adj.sum(axis=1)
    norm = np.zeros((7, 7))
    for i in used:
        for j in used:
            norm[i, j] = adj[i, j] / np.sqrt(deg[i] * deg[j])
    return {"mean": mean, "attr_mean": attr_mean, "norm": norm, "arcs": arcs}


def _sigmoid(x):
    """The gate nonlinearity on the tape, as exp(log sigmoid(x))."""
    return exp(ad.log_sigmoid(x))


def lstm_step(z, h, c, params):
    """One LSTM cell on the tape, op by op, as the integrator was first
    written: c' = f*c + i*g, h' = o*tanh(c'), each gate its own matmul on
    [z | h]."""
    if z.cols != params.input_dim or h.cols != params.hidden_dim:
        raise ad.ShapeMismatchError("lstm-step", z.shape, h.shape,
                                    (params.input_dim, params.hidden_dim))
    zh = ad.concat_cols(z, h)
    i = _sigmoid(ad.add(ad.matmul(zh, params.w_i), params.b_i))
    f = _sigmoid(ad.add(ad.matmul(zh, params.w_f), params.b_f))
    g = ad.tanh(ad.add(ad.matmul(zh, params.w_g), params.b_g))
    o = _sigmoid(ad.add(ad.matmul(zh, params.w_o), params.b_o))
    c2 = ad.add(ad.mul(f, c), ad.mul(i, g))
    h2 = ad.mul(o, ad.tanh(c2))
    return h2, c2


def tape_integrate(snapshots, steps, params):
    """The per-op tape form of `trajectory.integrate`: the stacked snapshots
    split into steps by `rows_of`, `lstm_step` from a zero state, then the
    mean of h_1..h_T as a chain of adds and one scale."""
    rows = snapshots.rows // steps
    zeros = np.zeros((rows, params.hidden_dim))
    h, c = ad.constant(zeros), ad.constant(zeros)
    acc = None
    for t in range(steps):
        h, c = lstm_step(rows_of(snapshots, t * rows, (t + 1) * rows), h, c, params)
        acc = h if acc is None else ad.add(acc, h)
    return ad.mul(acc, ad.constant(np.full(acc.shape, 1.0 / steps)))


def stacked_snapshot_grad(node, g):
    """The snapshot gradient of the `lstm` node `node` from the upstream `g`,
    as it was first computed: the (T, 4, B, d) product of every gate's
    gradient with its input weights, summed over the gate axis."""
    z, w = node.ctx[:2]
    d = z.shape[2]
    return np.matmul(_gate_grads(node, g), w[:, :d].transpose(0, 2, 1)).sum(axis=1).reshape(-1, d)


def leafwise_adamw_step(params, grads, state, settings):
    """AdamW one leaf at a time, with moments keyed by leaf: the form the
    flat-vector `objective.adamw_step` must match bit for bit. `state` is a
    dict holding the learning rate "lr", the step count "t" and the moments
    by leaf name."""
    state["t"] = t = state.get("t", 0) + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params:
        g = grads[p].data
        m, v = state.get(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        state[name] = (m, v)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data -= state["lr"] * (update + settings.weight_decay * p.data)


def rows_of(x, start, stop):
    """Rows start..stop-1 of x on the tape, through a dense selector."""
    if not 0 <= start < stop <= x.rows:
        raise ad.ShapeMismatchError("rows", (start, stop), x.rows)
    return spmm(Blocks(np.eye(stop - start, x.rows, start)[None]), x)


def weight_blocks(params, name):
    """Weight `name` split by rows into its H, e_t (and A) blocks, on the tape."""
    d, d_t = params.w_out.cols, params.time_table.cols
    heights = {"w_self": (d, d_t), "w_neigh": (d, d_t, 3),
               "attn_u": (d, d_t, d, d_t, 3)}[name]
    stops = np.cumsum(heights).tolist()
    return [rows_of(getattr(params, name), stop - h, stop) for h, stop in zip(heights, stops)]


# The arc template: four arcs per region k, global -> k (attribute
# +offset_k), clinical -> k (0), k -> global (-offset_k), k -> clinical (0).
_ARC_REGION = np.repeat(np.arange(5), 4)
_ARC_SIGN = np.tile([1.0, 0.0, -1.0, 0.0], 5)
_ARC_SRC = np.array([(5, 6, k, k) for k in range(5)]).ravel()
_ARC_DST = np.array([(k, k, 5, 6) for k in range(5)]).ravel()


def arc_blocks(cohort):
    """gat's arcs as dense blocks: per patient the (20, 7) one-hot target and
    source gathers, zero on an absent region's arcs, the target sum as the
    target gather's transpose, (B, 7, 20), the (20B x 3) arc attributes, and
    `no_arcs` (7B x 1), 1 on rows without in-arcs."""
    used = cohort.present[:, _ARC_REGION].astype(np.float64)[:, :, None]
    at_dst = Blocks(used * np.eye(7)[_ARC_DST])
    attr = used * _ARC_SIGN[:, None] * cohort.offsets[:, _ARC_REGION]
    return {"at_dst": at_dst, "at_src": Blocks(used * np.eye(7)[_ARC_SRC]),
            "sum_dst": at_dst.T, "attr": attr.reshape(-1, 3),
            "no_arcs": (~slots_in_use(cohort.present)).astype(np.float64).reshape(-1, 1)}


def tape_segment_softmax(scores, ops):
    """`evolution.segment_softmax` on the tape over the blocks of
    `arc_blocks`, per-target maximum as a constant."""
    per_arc = scores.data.reshape(ops["at_dst"].blocks.shape[0], -1)
    in_arcs = ops["at_dst"].blocks > 0.0
    top = np.where(in_arcs, per_arc[:, :, None], -np.inf).max(axis=1)
    shift = np.where(in_arcs.any(axis=2),
                     np.take_along_axis(top, in_arcs.argmax(axis=2), axis=1), per_arc)
    # x - y is x + (-y), the same bits.
    shifted = ad.add(scores, ad.constant(-shift.reshape(-1, 1)))
    total = ad.add(spmm(ops["sum_dst"], exp(shifted)), ad.constant(ops["no_arcs"]))
    return exp(ad.add(shifted, ad.negate(spmm(ops["at_dst"], log(total)))))


def _attention(ops, params, w_na):
    """gat's neighbour term as a function of (H, H W_nh + 1 (e_t W_nt), t)."""
    u_dh, u_dt, u_sh, u_st, u_a = weight_blocks(params, "attn_u")
    attr = ad.constant(ops["attr"])
    score_rows = ad.matmul(params.time_table, ad.add(u_dt, u_st))
    score_arcs = ad.add(ad.matmul(attr, u_a), params.attn_b)
    msg_arcs = ad.matmul(attr, w_na)
    spread = ad.constant(np.ones((1, w_na.cols)))

    def neighbours(h, x_n, t):
        dst = spmm(ops["at_dst"], ad.add(ad.matmul(h, u_dh), rows_of(score_rows, t, t + 1)))
        src = spmm(ops["at_src"], ad.matmul(h, u_sh))
        hidden = ad.tanh(ad.add(ad.add(dst, src), score_arcs))
        alpha = tape_segment_softmax(ad.matmul(hidden, params.attn_v), ops)
        msgs = ad.add(spmm(ops["at_src"], x_n), msg_arcs)
        return spmm(ops["sum_dst"], ad.mul(msgs, ad.matmul(alpha, spread)))

    return neighbours


def residual_update(cohort, params):
    """dH of step t as a function of (H, t), as per-op tape nodes: the
    evolution step as the `evolve` primitive is held to it."""
    e = params.time_table
    ops = arc_blocks(cohort) if params.backbone == "gat" else adjacency(cohort, params.backbone)
    w_sh, w_st = weight_blocks(params, "w_self")
    self_rows = ad.matmul(e, w_st)
    if params.backbone == "gcn":
        norm = ops["norm"]

        def pre(h, t):
            own = ad.add(ad.matmul(h, w_sh), rows_of(self_rows, t, t + 1))
            return ad.add(spmm(norm, own), params.b_msg)
    else:
        w_nh, w_nt, w_na = weight_blocks(params, "w_neigh")
        neigh_rows = ad.matmul(e, w_nt)
        if params.backbone == "graphsage":
            fixed = ad.add(ad.matmul(ad.constant(ops["attr_mean"]), w_na), params.b_msg)

            def neighbours(h, x_n, t):
                return spmm(ops["mean"], x_n)
        else:
            fixed = params.b_msg
            neighbours = _attention(ops, params, w_na)

        def pre(h, t):
            x_n = ad.add(ad.matmul(h, w_nh), rows_of(neigh_rows, t, t + 1))
            own = ad.add(ad.matmul(h, w_sh), rows_of(self_rows, t, t + 1))
            return ad.add(ad.add(own, neighbours(h, x_n, t)), fixed)

    def update(h, t):
        # relu(x) as x times the constant mask x > 0: the same values, a zero's
        # sign aside, and the same gradient.
        x = pre(h, t)
        return ad.add(ad.matmul(ad.mul(x, ad.constant(x.data > 0.0)), params.w_out), params.b_out)

    return update


def readout(h, pool):
    """Patient-level snapshots on the tape: per patient, the mean of its rows in use."""
    if h.rows == 0:
        raise ValueError("readout of empty node-state matrix")
    return spmm(pool, h)


def tape_evolve(h0, cohort, params, horizon):
    """The per-op tape form of `evolution.evolve`: `residual_update` and a
    readout per step, the snapshots as a list of T tensors."""
    update = residual_update(cohort, params)
    pool = mean_pool(cohort.present)
    h, snapshots = h0, []
    for t in range(horizon):
        h = ad.add(h, update(h, t))
        snapshots.append(readout(h, pool))
    return snapshots


def _list_strata(indices, keys, k):
    """Joint (OS, DFS) event-indicator cells; sparse cells collapse to the OS margin."""
    cells = {}
    for i in indices:
        cells.setdefault(keys[i], []).append(i)
    strata = {}
    for os_event in (0, 1):
        children = {key: v for key, v in cells.items() if key[0] == os_event}
        if not children:
            continue
        if any(len(v) < k for v in children.values()):
            merged = []
            for key in sorted(children):
                merged.extend(children[key])
            strata[(os_event, -1)] = merged
        else:
            strata.update(children)
    return [strata[key] for key in sorted(strata)]


def _list_deal(strata, k, rng):
    """Shuffle each stratum and deal round-robin, carrying the fold pointer
    across strata."""
    folds = [[] for _ in range(k)]
    ptr = 0
    for members in strata:
        order = rng.permutation(len(members))
        for j in order:
            folds[ptr % k].append(members[j])
            ptr += 1
    return folds


def list_kfold(cohort, k, repeats, seed):
    """`stratified_repeated_kfold` with lists, sets and one patient dealt at a time."""
    n = len(cohort)
    too_small = (f"cohort of {n} patients cannot form {k} folds with "
                 "nonempty test, inner training and validation sets")
    if k > n:
        raise CohortError(too_small)
    all_idx = list(range(n))
    keys = list(zip(cohort.event["os"].tolist(), cohort.event["dfs"].tolist()))
    folds = []
    for rep in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
        outer = _list_deal(_list_strata(all_idx, keys, k), k, rng)
        for f in range(k):
            test = sorted(outer[f])
            in_test = set(test)
            rest = [i for i in all_idx if i not in in_test]
            inner_rng = np.random.default_rng(np.random.SeedSequence([seed, rep, f]))
            buckets = _list_deal(_list_strata(rest, keys, 5), 5, inner_rng)
            val = sorted(buckets[0])
            train = sorted(set(rest) - set(val))
            if not (test and train and val):
                raise CohortError(too_small)
            folds.append(FoldSpec(rep, f, test, train, val))
    return folds


_REGION_CENTERS = {
    NodeKind.LIVER_PARENCHYMA: np.array([60.0, 50.0, 40.0]),
    NodeKind.FUTURE_LIVER_REMNANT: np.array([30.0, 62.0, 46.0]),
    NodeKind.HEPATIC_VEINS: np.array([72.0, 66.0, 54.0]),
    NodeKind.PORTAL_VEINS: np.array([46.0, 34.0, 52.0]),
    NodeKind.METASTATIC_TUMORS: np.array([56.0, 44.0, 34.0]),
}


def _mixture_pmf(hazards, k_max=400):
    k = np.arange(k_max)
    pmf = np.zeros(k_max)
    for h in hazards:
        pmf += 0.5 * (1.0 - h) ** k * h
    return pmf


def _calibrate_censoring(scenario):
    target = scenario.censoring_rate
    pmf = _mixture_pmf(scenario.group_hazards("os"))
    k = np.arange(pmf.shape[0])

    def expected(c_max):
        return float(pmf @ np.minimum(k / c_max, 1.0))

    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def per_region_simulate(n, seed, scenario):
    """`simulate_cohort` with one draw per region kind, kept in dicts."""
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

    observed = {"dfs": t_dfs <= censor, "os": t_os <= censor}
    return make_cohort([f"sim{i:04d}" for i in range(n)],
                       np.stack([region_feats[kind] for kind in ANATOMICAL_KINDS], axis=1),
                       np.ones((n, len(ANATOMICAL_KINDS)), dtype=bool),
                       np.stack([centroids[kind] for kind in ANATOMICAL_KINDS], axis=1),
                       clinical,
                       {"dfs": np.where(observed["dfs"], t_dfs, censor),
                        "os": np.where(observed["os"], t_os, censor)},
                       {task: flags.astype(np.int64) for task, flags in observed.items()}), groups
