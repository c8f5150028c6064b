"""Residual message passing: backbones, time conditioning, and roll-out."""

import numpy as np
import pytest

from trajsurv import autodiff as ad
from trajsurv.cohort import simulate_cohort
from trajsurv.crossval import feature_widths
from trajsurv import evolution
from trajsurv.autodiff import uniform_weight
from trajsurv.evolution import (BACKBONES, Blocks, EvolutionParams, evolve, init_evolution,
                                mean_pool, segment_softmax)
from trajsurv.graph import ANATOMICAL_KINDS, NodeKind, slots_in_use
from trajsurv.model import ModelConfig, init_model
from trajsurv.objective import LossWeights
from trajsurv.training import loss_and_grads

import oracles
from oracles import leaves_of, readout, residual_update, rows_of, tape_evolve
from test_graph import join, make_graph, make_record

D = 4
DT = 2
DIN = D + DT
LIVER, SUMMARY, CLINICAL = 0, 5, 6


def one_region_graph():
    """The liver linked to both hubs, zero offset; rows 1-4 are padding."""
    return make_graph(kinds=(NodeKind.LIVER_PARENCHYMA,))


def full_graph(seed=0):
    return make_graph(seed=seed)


def residual_step(h, e_t, cohort, params):
    """dH of one step whose time embedding is e_t, on the tape: e_t is
    written into row 0 of the time table and step 0 is taken."""
    params.time_table[0] = e_t.data[0]
    return residual_update(cohort, leaves_of(params))(h, 0)


def time_table(steps, width, seed):
    return uniform_weight(np.random.default_rng(seed), steps, width)


def zero_weights(params):
    """The identity-trajectory configuration: every parameter zero."""
    for _, leaf in params.named_leaves():
        leaf[:] = 0.0


def rolled_states(h0, cohort, params, horizon):
    """H_0..H_T on the tape: the node states `evolve` passes through, H_0
    included."""
    update = residual_update(cohort, leaves_of(params))
    states = [h0]
    for t in range(horizon):
        states.append(oracles.add(states[-1], update(states[-1], t)))
    return states


def identity_params(backbone):
    """W_self=0, W_neigh=[I_din ; 0], W_out=[I_d ; 0]: delta picks out relu of
    the neighbor part of the state."""
    msg = DIN + 3
    w_neigh = np.zeros((msg, msg))
    np.fill_diagonal(w_neigh, 1.0)
    w_out = np.zeros((msg, D))
    w_out[:D, :D] = np.eye(D)
    return EvolutionParams(
        backbone=backbone,
        w_self=np.zeros((DIN, msg)),
        w_neigh=w_neigh,
        b_msg=np.zeros((1, msg)),
        w_out=w_out,
        b_out=np.zeros((1, D)),
        time_table=time_table(4, DT, 0),
    )


def time_embedding(t, table):
    """e_t: row t of the time table (a tape leaf), picked as the evolution
    step's tape form picks it."""
    return rows_of(table, t, t + 1)


def table_leaf(steps, width, seed):
    return oracles.Tensor(time_table(steps, width, seed), requires_grad=True)


class TestTimeEmbedding:
    def test_zero_table_gives_zero_vector(self):
        table = table_leaf(3, DT, 0)
        table.data[:] = 0.0
        assert np.array_equal(time_embedding(1, table).data, np.zeros((1, DT)))

    def test_one_hot_row_lookup(self):
        table = table_leaf(3, 3, 0)
        table.data[:] = np.eye(3)
        assert np.array_equal(time_embedding(2, table).data, [[0.0, 0.0, 1.0]])

    def test_out_of_range_step_rejected(self):
        table = table_leaf(3, DT, 0)
        with pytest.raises(ad.ShapeMismatchError):
            time_embedding(3, table)
        with pytest.raises(ad.ShapeMismatchError):
            time_embedding(-1, table)

    def test_rows_are_trainable(self):
        table = table_leaf(4, DT, 1)
        grads = oracles.backward(oracles.sum_all(time_embedding(2, table)), params=[table])
        g = grads[table].data
        assert np.allclose(g[2], 1.0)
        assert np.allclose(np.delete(g, 2, axis=0), 0.0)


class TestResidualStep:
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_zero_weights_give_zero_delta(self, backbone):
        params = init_evolution(backbone, D, DT, 4, D, np.random.default_rng(0), 16)
        zero_weights(params)
        g = full_graph()
        h = oracles.constant(np.random.default_rng(1).normal(size=(7 * len(g), D)))
        delta = residual_step(h, oracles.constant(params.time_table[:1]), g, params)
        assert np.array_equal(delta.data, np.zeros((7 * len(g), D)))

    def test_graphsage_single_neighbor_hand_case(self):
        g = one_region_graph()
        params = identity_params("graphsage")
        rng = np.random.default_rng(3)
        h = rng.normal(size=(7, D))
        e_t = rng.normal(size=(1, DT))
        delta = residual_step(oracles.constant(h), oracles.constant(e_t), g, params)
        # Each hub's only in-neighbor is the liver: the message is
        # relu([h_liver ; e_t ; 0]) and the output projection keeps the first
        # D entries.
        for i in (SUMMARY, CLINICAL):
            expected = np.maximum(np.concatenate([h[LIVER], e_t[0], np.zeros(3)]), 0.0)[:D]
            assert np.allclose(delta.data[i], expected)

    def test_gcn_one_region_hand_case(self):
        g = one_region_graph()
        params = EvolutionParams(
            backbone="gcn",
            w_self=np.eye(DIN),
            w_neigh=None,
            b_msg=np.zeros((1, DIN)),
            w_out=np.vstack([np.eye(D), np.zeros((DIN - D, D))]),
            b_out=np.zeros((1, D)),
            time_table=time_table(4, DT, 0),
        )
        rng = np.random.default_rng(4)
        h = rng.normal(size=(7, D))
        e_t = rng.normal(size=(1, DT))
        delta = residual_step(oracles.constant(h), oracles.constant(e_t), g, params)
        x = np.hstack([h, np.repeat(e_t, 7, axis=0)])
        # With self-loops the liver has degree 3 and each hub degree 2, so the
        # weights are 1/3 on the liver's own row, 1/2 on a hub's own row and
        # 1/sqrt(6) between the liver and a hub.
        liver = x[LIVER] / 3.0 + (x[SUMMARY] + x[CLINICAL]) / np.sqrt(6.0)
        assert np.allclose(delta.data[LIVER], np.maximum(liver, 0.0)[:D])
        for hub in (SUMMARY, CLINICAL):
            mixed = x[hub] / 2.0 + x[LIVER] / np.sqrt(6.0)
            assert np.allclose(delta.data[hub], np.maximum(mixed, 0.0)[:D])

    def test_gat_equals_graphsage_when_each_node_has_one_neighbor(self):
        # Every row but the liver's has at most one in-neighbor.
        g = one_region_graph()
        sage = identity_params("graphsage")
        gat = identity_params("gat")
        rng = np.random.default_rng(5)
        gat.attn_u = uniform_weight(rng, 2 * DIN + 3, 4)
        gat.attn_b = np.zeros((1, 4))
        gat.attn_v = uniform_weight(rng, 4, 1)
        h = oracles.constant(rng.normal(size=(7, D)))
        e_t = oracles.constant(rng.normal(size=(1, DT)))
        d_sage = residual_step(h, e_t, g, sage)
        d_gat = residual_step(h, e_t, g, gat)
        assert np.allclose(d_sage.data[1:], d_gat.data[1:])

    @pytest.mark.parametrize("backbone", ("graphsage", "gat"))
    def test_isolated_node_gets_zero_neighbor_term(self, backbone):
        g = one_region_graph()
        params = init_evolution(backbone, D, DT, 4, D, np.random.default_rng(2), 16)
        rng = np.random.default_rng(6)
        h = rng.normal(size=(7, D))
        e_t = rng.normal(size=(1, DT))
        delta = residual_step(oracles.constant(h), oracles.constant(e_t), g, params)
        # The portal veins' padding row has no arcs; only the self path remains.
        x_iso = np.concatenate([h[3], e_t[0]]).reshape(1, -1)
        m = np.maximum(x_iso @ params.w_self + params.b_msg, 0.0)
        expected = m @ params.w_out + params.b_out
        assert np.allclose(delta.data[3], expected[0])

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_gradients_through_one_step(self, backbone):
        params = leaves_of(init_evolution(backbone, D, DT, 4, D, np.random.default_rng(7), 16))
        g = full_graph(seed=1)
        h = oracles.constant(np.random.default_rng(8).normal(size=(7 * len(g), D)))

        def f():
            delta = residual_update(g, params)(h, 1)
            return oracles.sum_all(oracles.tanh(delta))

        assert oracles.tape_grad_check(f, dict(params.named_leaves())) <= 1e-4


class TestReadout:
    def test_identical_rows(self):
        r = np.array([[2.0, -1.0]])
        g = make_graph(kinds=ANATOMICAL_KINDS[1:3])
        out = mean_pool(g.present).apply(np.repeat(r, 7, axis=0))
        assert np.allclose(out, r)

    def test_hand_mean(self):
        # The liver and both hubs count; the padding rows do not.
        h = np.full((7, 2), 100.0)
        h[[LIVER, SUMMARY, CLINICAL]] = [[1.0, 3.0], [5.0, 7.0], [3.0, 2.0]]
        out = mean_pool(one_region_graph().present).apply(h)
        np.testing.assert_allclose(out, [[3.0, 4.0]], rtol=0, atol=1e-15)

    def test_single_row_passthrough(self):
        out = readout(oracles.constant([[1.0, 2.0]]), Blocks(np.ones((1, 1, 1))))
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_empty_matrix_rejected(self):
        params = init_evolution("graphsage", D, DT, 4, D, np.random.default_rng(0), 16)
        with pytest.raises(ValueError, match="empty"):
            evolve(np.zeros((0, D)), full_graph().take(slice(0, 0)), params, {})


class TestEvolve:
    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("horizon", (1, 12))
    def test_zero_weights_identity_trajectory(self, backbone, horizon):
        params = init_evolution(backbone, D, DT, horizon, D, np.random.default_rng(0), 16)
        zero_weights(params)
        g = full_graph()
        h0 = np.random.default_rng(9).normal(size=(7 * len(g), D))
        snaps, _ = evolve(h0, g, params, {})
        base = mean_pool(g.present).apply(h0)
        assert snaps.shape == (horizon, len(g), D)
        for z in snaps:
            assert np.array_equal(z, base)

    def test_snapshot_count_and_shapes(self):
        params = init_evolution("graphsage", D, DT, 12, D, np.random.default_rng(1), 16)
        g = full_graph()
        snaps, _ = evolve(np.zeros((7 * len(g), D)), g, params, {})
        assert snaps.shape == (12, 1, D)

    def test_time_embedding_conditions_each_step(self):
        # With distinct time rows, consecutive increments differ.
        params = init_evolution("graphsage", D, DT, 4, D, np.random.default_rng(2), 16)
        g = full_graph()
        h0 = oracles.constant(np.random.default_rng(3).normal(size=(7 * len(g), D)))
        states = rolled_states(h0, g, params, 3)
        d1 = states[1].data - states[0].data
        d2 = states[2].data - states[1].data
        assert not np.allclose(d1, d2)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_names_the_step(self):
        params = init_evolution("graphsage", D, DT, 4, D, np.random.default_rng(0), 16)
        params.w_out[:] = 1e300
        params.b_msg[:] = 1.0
        g = full_graph()
        h0 = np.full((7 * len(g), D), 1e10)
        with pytest.raises(ad.NonFiniteError, match="step 0"):
            evolve(h0, g, params, {})

    def test_collect_states_includes_initial(self):
        params = init_evolution("gcn", D, DT, 2, D, np.random.default_rng(4), 16)
        g = full_graph()
        h0 = oracles.constant(np.random.default_rng(5).normal(size=(7 * len(g), D)))
        states = rolled_states(h0, g, params, 2)
        assert len(states) == 3
        assert states[0] is h0
        # The rolled states are the ones `evolve` reads its snapshots from.
        for z, h in zip(evolve(h0.data, g, params, {})[0], states[1:], strict=True):
            assert np.array_equal(z, mean_pool(g.present).apply(h.data))


def test_uniform_weight_bound_and_determinism():
    w1 = uniform_weight(np.random.default_rng(11), 16, 8)
    w2 = uniform_weight(np.random.default_rng(11), 16, 8)
    assert np.array_equal(w1, w2)
    assert np.abs(w1).max() <= 1.0 / 4.0
    assert w1.shape == (16, 8) and w1.dtype == np.float64


def mixed_records():
    """Three patients: all regions, the hepatic veins missing, the liver alone."""
    kinds = (ANATOMICAL_KINDS, ANATOMICAL_KINDS[:2] + ANATOMICAL_KINDS[3:],
             (NodeKind.LIVER_PARENCHYMA,))
    return [make_record(k, seed) for seed, k in enumerate(kinds)]


def test_graphs_in_one_batch_match_graphs_alone():
    records = mixed_records()
    rng = np.random.default_rng(12)
    for backbone in BACKBONES:
        params = init_evolution(backbone, D, DT, 4, D, np.random.default_rng(13), 16)
        hs = [rng.normal(size=(7, D)) for _ in records]
        joint, _ = evolve(np.vstack(hs), join(records), params, {})
        alone = [evolve(h, r, params, {})[0] for h, r in zip(hs, records)]
        np.testing.assert_allclose(joint, np.concatenate(alone, axis=1), rtol=0, atol=1e-12)


class TestSegmentSoftmax:
    # Rows without in-arcs: the missing regions' padding rows.
    cohort = join(mixed_records()[1:])

    def in_arcs(self):
        """Per target row, the arc rows (of the 20B per-arc rows) that end there,
        written out from the arc template: arcs 4k .. 4k + 3 of a present
        region k run from the summary node and the clinical node to k, and
        from k to each of them."""
        into = {}
        for b, regions in enumerate(self.cohort.present):
            for k in np.flatnonzero(regions):
                for j, target in enumerate((k, k, SUMMARY, CLINICAL)):
                    into.setdefault(7 * b + target, []).append(20 * b + 4 * k + j)
        return into

    @pytest.mark.parametrize("scale", (1.0, 1000.0, -1000.0))
    def test_weights_sum_to_one_per_node_with_in_arcs(self, scale):
        into = self.in_arcs()
        assert len(into) < 7 * len(self.cohort)
        scores = np.random.default_rng(14).normal(size=(20 * len(self.cohort), 1)) * scale
        alpha = segment_softmax(scores, self.cohort.present)[0]
        assert np.isfinite(alpha).all() and (alpha >= 0).all()
        for arcs in into.values():
            np.testing.assert_allclose(alpha[arcs, 0].sum(), 1.0, rtol=0, atol=1e-12)

    def test_equal_extreme_scores_split_evenly(self):
        arcs = 20 * len(self.cohort)
        alpha = segment_softmax(np.full((arcs, 1), 1000.0), self.cohort.present)[0]
        for into in self.in_arcs().values():
            np.testing.assert_allclose(alpha[into, 0], 1.0 / len(into), rtol=0, atol=1e-15)


@pytest.mark.parametrize("backbone", BACKBONES)
def test_step_matches_concat_then_propagate_oracle(backbone):
    rng = np.random.default_rng(15)
    records = mixed_records()
    batch = join(records)
    params = init_evolution(backbone, D, DT, 4, 5, rng, attention_dim=3)
    for _, leaf in params.named_leaves():
        leaf[:] = rng.normal(size=leaf.shape)
    h = rng.normal(size=(7 * len(batch), D))
    delta = residual_update(batch, leaves_of(params))(oracles.constant(h), 2)
    weights = {name[3:]: leaf for name, leaf in params.named_leaves()}
    for b, rec in enumerate(records):
        src, dst, attr = zip(*oracles.star_operators(rec)["arcs"])
        expected = oracles.concat_step(backbone, h[7 * b:7 * b + 7],
                                       params.time_table[2:3],
                                       src, dst, np.array(attr), weights)
        used = slots_in_use(batch.present)[b]
        np.testing.assert_allclose(delta.data[7 * b:7 * b + 7][used], expected[used],
                                   rtol=0, atol=1e-12)


def absent_region_cohort(n):
    """n simulated patients with about a third of their regions absent, the
    first patient's hepatic veins among them."""
    cohort, _ = simulate_cohort(max(n, 10), seed=21)
    present = cohort.present[:n] & (np.random.default_rng(22).random((n, 5)) > 0.35)
    present[:, 0] = True
    present[0, 2] = False
    return cohort[:n].with_presence(present)


@pytest.mark.parametrize("backbone", BACKBONES)
@pytest.mark.parametrize("rows,steps,widths", ((1, 1, None), (1, 12, None), (64, 1, None),
                                               (64, 12, None), (40, 12, (9, 33, 17))),
                         ids=("B1-T1", "B1-T12", "B64-T1", "B64-T12", "B40-T12-d9-m33-a17"))
def test_evolve_primitive_matches_the_per_op_tape(backbone, rows, steps, widths):
    # The snapshots bit for bit at the default widths (d 32, message and
    # attention 32 and 16), within 1e-12 at widths off the BLAS tile, where
    # a dense matmul may sum in another order than the index form. The loss,
    # a weighted mean of tanh of each step's snapshots read through
    # `rows_of`, and the gradients of H0 and of every evolution leaf within
    # 1e-12; H0's padding rows get exactly zero.
    d, message_dim, attention_dim = widths or (32, 32, 16)
    cohort = absent_region_cohort(rows)
    rng = np.random.default_rng(23)
    params = leaves_of(init_evolution(backbone, d, 16, steps, message_dim, rng, attention_dim))
    used = slots_in_use(cohort.present).reshape(-1, 1)
    h0 = oracles.parameter(rng.normal(size=(7 * rows, d)) * used)
    weights = [oracles.constant(rng.normal(size=(rows, d)) / rows) for _ in range(steps)]
    leaves = [h0] + [leaf for _, leaf in params.named_leaves()]
    z = oracles.evolve_node(h0, cohort, params)
    snapshots = tape_evolve(h0, cohort, params, steps)
    reference = np.vstack([s.data for s in snapshots])
    if widths is None:
        assert np.array_equal(z.data, reference)
    else:
        np.testing.assert_allclose(z.data, reference, rtol=0, atol=1e-12)

    def loss(snapshots):
        terms = [oracles.sum_all(oracles.mul(oracles.tanh(s), w))
                 for s, w in zip(snapshots, weights)]
        total = terms[0]
        for term in terms[1:]:
            total = oracles.add(total, term)
        return total

    fused = loss([rows_of(z, t * rows, (t + 1) * rows) for t in range(steps)])
    ref = loss(snapshots)
    assert abs(fused.item() - ref.item()) <= 1e-12
    grads, ref_grads = oracles.backward(fused, leaves), oracles.backward(ref, leaves)
    for leaf in leaves:
        np.testing.assert_allclose(grads[leaf].data, ref_grads[leaf].data, rtol=0, atol=1e-12)
    for g in (grads, ref_grads):
        assert (g[h0].data[~used[:, 0]] == 0.0).all()


def test_evolve_writes_its_state_into_the_workspace():
    # The snapshots are a view of the workspace's buffer, and what backward
    # reads comes back with them. A second call into the same workspace
    # writes over the first's state, with the bits of a call on fresh
    # arrays, one per slot.
    g = join(mixed_records())
    h0 = np.random.default_rng(24).normal(size=(7 * len(g), D))
    for backbone in BACKBONES:
        params = init_evolution(backbone, D, DT, 4, D, np.random.default_rng(25), 16)
        workspace = {}
        first, kept = evolve(h0, g, params, workspace)
        assert sorted(workspace) == ["evolve.acts", "evolve.snapshots", "evolve.states"]
        assert np.shares_memory(first, workspace["evolve.snapshots"])
        assert len(kept[-1]) == 4
        first = first.copy()
        again, _ = evolve(h0, g, params, workspace)
        fresh, _ = evolve(h0, g, params, oracles.FreshArrays())
        assert np.array_equal(again, first) and np.array_equal(fresh, first)


def one_batch_loss(backbone, n=64):
    """The model's loss on one batch of `n` on the tape, and as
    `loss_and_grads`."""
    cohort, _ = simulate_cohort(n, seed=0)
    config = ModelConfig(backbone=backbone)
    model = init_model(config, feature_widths(cohort), np.random.default_rng(0))
    return (lambda: oracles.tape_mean_loss(model, cohort, config.bins(), LossWeights())[0],
            lambda: loss_and_grads(model, cohort, LossWeights()))


@pytest.mark.parametrize("backbone,nodes,differentiable",
                         (("graphsage", 98, 82), ("gcn", 97, 81), ("gat", 101, 85)),
                         ids=("graphsage", "gcn", "gat"))
def test_tape_node_count_of_one_batch_loss(backbone, nodes, differentiable):
    # Every distinct tensor reachable from the tape form's loss, leaves
    # included, and the nodes backward visits (`_topo_order`). The rollout
    # and the LSTM are one node each, so the counts do not depend on T or on
    # the backbone's per-step work; gcn has one leaf fewer (no w_neigh), gat
    # three more.
    loss, _ = one_batch_loss(backbone)
    out = loss()
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node.parents)
    assert len(seen) == nodes
    assert len(oracles._topo_order(out)) == differentiable


def test_forwards_build_their_operators_once(monkeypatch):
    # Each forward and its backward build the slice's operators once, gat's
    # included.
    _, loss_and_grads_of = one_batch_loss("gat", n=12)
    calls = []
    build = evolution.adjacency
    monkeypatch.setattr(evolution, "adjacency",
                        lambda cohort, backbone: calls.append(backbone) or build(cohort, backbone))
    loss_and_grads_of()
    assert calls == ["gat"]
