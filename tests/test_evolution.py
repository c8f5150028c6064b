"""Residual message passing: backbones, time conditioning, and roll-out."""

import numpy as np
import pytest

from trajsurv import autodiff as ad
from trajsurv.cohort import record_to_graph, simulate_cohort
from trajsurv.crossval import _feature_widths
from trajsurv.evolution import (BACKBONES, EvolutionParams, adjacency, evolve,
                                init_evolution, init_time_table, readout,
                                residual_update, rows_of, segment_softmax,
                                uniform_weight)
from trajsurv.graph import (ANATOMICAL_KINDS, Edge, EdgeKind, Node, NodeKind, PatientGraph,
                            batch_graphs, build_patient_graph, mean_pool)
from trajsurv.model import ModelConfig, init_model
from trajsurv.objective import LossWeights
from trajsurv.training import _mean_loss

import oracles

D = 4
DT = 2
DIN = D + DT


def two_node_graph():
    """Liver <-> summary pair joined by one zero-offset spatial edge."""
    nodes = {NodeKind.LIVER_PARENCHYMA: Node(NodeKind.LIVER_PARENCHYMA, True,
                                             np.zeros(D), np.zeros(3)),
             NodeKind.GLOBAL_CT: Node(NodeKind.GLOBAL_CT, True, np.zeros(D), np.zeros(3))}
    edges = [Edge(NodeKind.GLOBAL_CT, NodeKind.LIVER_PARENCHYMA,
                  EdgeKind.SPATIAL_TOPOLOGY, np.zeros(3))]
    return PatientGraph(patient_id="pair", nodes=nodes, edges=edges)


def full_graph(seed=0):
    from test_graph import make_graph
    return make_graph(seed=seed)


def residual_step(h, e_t, batch, params):
    """dH of one step whose time embedding is e_t: e_t is written into row 0
    of the time table and step 0 is taken."""
    params.time_table.table.data[0] = e_t.data[0]
    return residual_update(batch, params)(h, 0)


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
        w_self=ad.parameter(np.zeros((DIN, msg))),
        w_neigh=ad.parameter(w_neigh),
        b_msg=ad.parameter(np.zeros((1, msg))),
        w_out=ad.parameter(w_out),
        b_out=ad.parameter(np.zeros((1, D))),
        time_table=init_time_table(4, DT, np.random.default_rng(0)),
    )


def time_embedding(t, table):
    """e_t: row t of the time table, picked as the evolution step picks it."""
    return rows_of(table.table, t, t + 1)


class TestTimeEmbedding:
    def test_zero_table_gives_zero_vector(self):
        table = init_time_table(3, DT, np.random.default_rng(0))
        table.table.data[:] = 0.0
        assert np.array_equal(time_embedding(1, table).data, np.zeros((1, DT)))

    def test_one_hot_row_lookup(self):
        table = init_time_table(3, 3, np.random.default_rng(0))
        table.table.data[:] = np.eye(3)
        assert np.array_equal(time_embedding(2, table).data, [[0.0, 0.0, 1.0]])

    def test_out_of_range_step_rejected(self):
        table = init_time_table(3, DT, np.random.default_rng(0))
        with pytest.raises(ad.ShapeMismatchError):
            time_embedding(3, table)
        with pytest.raises(ad.ShapeMismatchError):
            time_embedding(-1, table)

    def test_rows_are_trainable(self):
        table = init_time_table(4, DT, np.random.default_rng(1))
        grads = ad.backward(ad.sum_all(time_embedding(2, table)),
                            params=[table.table])
        g = grads[table.table].data
        assert np.allclose(g[2], 1.0)
        assert np.allclose(np.delete(g, 2, axis=0), 0.0)


class TestResidualStep:
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_zero_weights_give_zero_delta(self, backbone):
        params = init_evolution(backbone, D, DT, 4, D, np.random.default_rng(0))
        params.zero_weights()
        g = full_graph()
        h = ad.constant(np.random.default_rng(1).normal(size=(g.num_nodes, D)))
        delta = residual_step(h, time_embedding(0, params.time_table), batch_graphs([g]),
                              params)
        assert np.array_equal(delta.data, np.zeros((g.num_nodes, D)))

    def test_graphsage_single_neighbor_hand_case(self):
        g = two_node_graph()
        params = identity_params("graphsage")
        rng = np.random.default_rng(3)
        h = rng.normal(size=(2, D))
        e_t = rng.normal(size=(1, DT))
        delta = residual_step(ad.constant(h), ad.constant(e_t), batch_graphs([g]), params)
        # Each node's only in-neighbor is the other node: the message is
        # relu([h_other ; e_t ; 0]) and the output projection keeps the first
        # D entries.
        for i, j in ((0, 1), (1, 0)):
            expected = np.maximum(np.concatenate([h[j], e_t[0], np.zeros(3)]), 0.0)[:D]
            assert np.allclose(delta.data[i], expected)

    def test_gcn_two_node_hand_case(self):
        g = two_node_graph()
        params = EvolutionParams(
            backbone="gcn",
            w_self=ad.parameter(np.eye(DIN)),
            w_neigh=None,
            b_msg=ad.parameter(np.zeros((1, DIN))),
            w_out=ad.parameter(np.vstack([np.eye(D), np.zeros((DIN - D, D))])),
            b_out=ad.parameter(np.zeros((1, D))),
            time_table=init_time_table(4, DT, np.random.default_rng(0)),
        )
        rng = np.random.default_rng(4)
        h = rng.normal(size=(2, D))
        e_t = rng.normal(size=(1, DT))
        delta = residual_step(ad.constant(h), ad.constant(e_t), batch_graphs([g]), params)
        x = np.hstack([h, np.repeat(e_t, 2, axis=0)])
        # With self-loops both degrees are 2, so every normalized weight is
        # 1/2 and the aggregate is the two-node average.
        mixed = np.maximum((x[0] + x[1]) / 2.0, 0.0)[:D]
        assert np.allclose(delta.data[0], mixed)
        assert np.allclose(delta.data[1], mixed)

    def test_gat_equals_graphsage_when_each_node_has_one_neighbor(self):
        g = two_node_graph()
        sage = identity_params("graphsage")
        gat = identity_params("gat")
        rng = np.random.default_rng(5)
        gat.attn_u = uniform_weight(rng, 2 * DIN + 3, 4, "u")
        gat.attn_b = ad.parameter(np.zeros((1, 4)))
        gat.attn_v = uniform_weight(rng, 4, 1, "v")
        h = ad.constant(rng.normal(size=(2, D)))
        e_t = ad.constant(rng.normal(size=(1, DT)))
        d_sage = residual_step(h, e_t, batch_graphs([g]), sage)
        d_gat = residual_step(h, e_t, batch_graphs([g]), gat)
        assert np.allclose(d_sage.data, d_gat.data)

    @pytest.mark.parametrize("backbone", ("graphsage", "gat"))
    def test_isolated_node_gets_zero_neighbor_term(self, backbone):
        nodes = {NodeKind.LIVER_PARENCHYMA: Node(NodeKind.LIVER_PARENCHYMA, True,
                                                 np.zeros(D), np.zeros(3)),
                 NodeKind.GLOBAL_CT: Node(NodeKind.GLOBAL_CT, True,
                                          np.zeros(D), np.zeros(3)),
                 NodeKind.CLINICAL: Node(NodeKind.CLINICAL, True, np.zeros(D))}
        edges = [Edge(NodeKind.GLOBAL_CT, NodeKind.LIVER_PARENCHYMA,
                      EdgeKind.SPATIAL_TOPOLOGY, np.zeros(3))]
        g = PatientGraph(patient_id="iso", nodes=nodes, edges=edges)
        params = init_evolution(backbone, D, DT, 4, D, np.random.default_rng(2))
        rng = np.random.default_rng(6)
        h = rng.normal(size=(3, D))
        e_t = rng.normal(size=(1, DT))
        delta = residual_step(ad.constant(h), ad.constant(e_t), batch_graphs([g]), params)
        # The clinical row has no incident edges; only the self path remains.
        x_iso = np.concatenate([h[2], e_t[0]]).reshape(1, -1)
        m = np.maximum(x_iso @ params.w_self.data + params.b_msg.data, 0.0)
        expected = m @ params.w_out.data + params.b_out.data
        assert np.allclose(delta.data[2], expected[0])

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_gradients_through_one_step(self, backbone):
        params = init_evolution(backbone, D, DT, 4, D, np.random.default_rng(7))
        g = full_graph(seed=1)
        h = ad.constant(np.random.default_rng(8).normal(size=(g.num_nodes, D)))

        def f():
            delta = residual_update(batch_graphs([g]), params)(h, 1)
            return ad.sum_all(ad.tanh(delta))

        leaves = dict(params.named_leaves())
        assert ad.grad_check(f, leaves) <= 1e-4


class TestReadout:
    def test_identical_rows(self):
        r = np.array([[2.0, -1.0]])
        out = readout(ad.constant(np.repeat(r, 4, axis=0)), mean_pool([4]))
        assert np.allclose(out.data, r)

    def test_hand_mean(self):
        out = readout(ad.constant([[1.0, 3.0], [5.0, 7.0]]), mean_pool([2]))
        assert np.array_equal(out.data, [[3.0, 5.0]])

    def test_single_row_passthrough(self):
        out = readout(ad.constant([[1.0, 2.0]]), mean_pool([1]))
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            readout(ad.constant(np.zeros((0, 3))), mean_pool([0]))


class TestEvolve:
    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("horizon", (1, 12))
    def test_zero_weights_identity_trajectory(self, backbone, horizon):
        params = init_evolution(backbone, D, DT, 12, D, np.random.default_rng(0))
        params.zero_weights()
        g = full_graph()
        h0 = ad.constant(np.random.default_rng(9).normal(size=(g.num_nodes, D)))
        snaps = evolve(h0, batch_graphs([g]), params, horizon)
        base = readout(h0, mean_pool([g.num_nodes])).data
        assert len(snaps) == horizon
        for z in snaps.z:
            assert np.array_equal(z.data, base)

    def test_snapshot_count_and_shapes(self):
        params = init_evolution("graphsage", D, DT, 12, D, np.random.default_rng(1))
        g = full_graph()
        h0 = ad.constant(np.zeros((g.num_nodes, D)))
        snaps = evolve(h0, batch_graphs([g]), params, 12)
        assert len(snaps) == 12
        assert all(z.shape == (1, D) for z in snaps.z)

    def test_time_embedding_conditions_each_step(self):
        # With distinct time rows, consecutive increments differ.
        params = init_evolution("graphsage", D, DT, 4, D, np.random.default_rng(2))
        g = full_graph()
        h0 = ad.constant(np.random.default_rng(3).normal(size=(g.num_nodes, D)))
        snaps = evolve(h0, batch_graphs([g]), params, 3, collect_states=True)
        d1 = snaps.h_seq[1].data - snaps.h_seq[0].data
        d2 = snaps.h_seq[2].data - snaps.h_seq[1].data
        assert not np.allclose(d1, d2)

    def test_horizon_bounds(self):
        params = init_evolution("graphsage", D, DT, 4, D, np.random.default_rng(0))
        g = full_graph()
        h0 = ad.constant(np.zeros((g.num_nodes, D)))
        with pytest.raises(ValueError):
            evolve(h0, batch_graphs([g]), params, 0)
        with pytest.raises(IndexError):
            evolve(h0, batch_graphs([g]), params, 5)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_names_the_step(self):
        params = init_evolution("graphsage", D, DT, 4, D, np.random.default_rng(0))
        params.w_out.data[:] = 1e300
        params.b_msg.data[:] = 1.0
        g = full_graph()
        h0 = ad.constant(np.full((g.num_nodes, D), 1e10))
        with pytest.raises(ad.NonFiniteError, match="step 0"):
            evolve(h0, batch_graphs([g]), params, 4)

    def test_collect_states_includes_initial(self):
        params = init_evolution("gcn", D, DT, 4, D, np.random.default_rng(4))
        g = full_graph()
        h0 = ad.constant(np.random.default_rng(5).normal(size=(g.num_nodes, D)))
        snaps = evolve(h0, batch_graphs([g]), params, 2, collect_states=True)
        assert len(snaps.h_seq) == 3
        assert snaps.h_seq[0] is h0


def test_uniform_weight_bound_and_determinism():
    w1 = uniform_weight(np.random.default_rng(11), 16, 8, "w")
    w2 = uniform_weight(np.random.default_rng(11), 16, 8, "w")
    assert np.array_equal(w1.data, w2.data)
    assert np.abs(w1.data).max() <= 1.0 / 4.0
    assert w1.requires_grad


def test_batch_operators_built_once_match_fresh_batch():
    g = full_graph(seed=2)
    params = init_evolution("graphsage", D, DT, 4, D, np.random.default_rng(3))
    h = ad.constant(np.random.default_rng(4).normal(size=(g.num_nodes, D)))
    e_t = time_embedding(0, params.time_table)
    batch = batch_graphs([g])
    first = residual_step(h, e_t, batch, params)
    ops = batch.operators["graphsage"]
    again = residual_step(h, e_t, batch, params)
    assert batch.operators["graphsage"] is ops
    fresh = residual_step(h, e_t, batch_graphs([g]), params)
    assert np.array_equal(again.data, first.data)
    assert np.array_equal(fresh.data, first.data)


def test_graphs_in_one_batch_match_graphs_alone():
    graphs = [full_graph(seed=s) for s in range(3)]
    graphs[1] = two_node_graph()
    rng = np.random.default_rng(12)
    for backbone in BACKBONES:
        params = init_evolution(backbone, D, DT, 4, D, np.random.default_rng(13))
        hs = [rng.normal(size=(g.num_nodes, D)) for g in graphs]
        e_t = time_embedding(1, params.time_table)
        joint = residual_step(ad.constant(np.vstack(hs)), e_t, batch_graphs(graphs), params)
        alone = [residual_step(ad.constant(h), e_t, batch_graphs([g]), params).data
                 for h, g in zip(hs, graphs)]
        np.testing.assert_allclose(joint.data, np.vstack(alone), rtol=0, atol=1e-12)


class TestSegmentSoftmax:
    def batch(self):
        # The summary node has three in-arcs; the clinical node (row 4) has none.
        regions = (NodeKind.LIVER_PARENCHYMA, NodeKind.HEPATIC_VEINS, NodeKind.PORTAL_VEINS)
        nodes = {k: Node(k, True, np.zeros(D), np.zeros(3))
                 for k in (*regions, NodeKind.GLOBAL_CT)}
        nodes[NodeKind.CLINICAL] = Node(NodeKind.CLINICAL, True, np.zeros(D))
        edges = [Edge(NodeKind.GLOBAL_CT, k, EdgeKind.SPATIAL_TOPOLOGY, np.full(3, 0.5))
                 for k in regions]
        return batch_graphs([PatientGraph(patient_id="seg", nodes=nodes, edges=edges),
                             two_node_graph()])

    @pytest.mark.parametrize("scale", (1.0, 1000.0, -1000.0))
    def test_weights_sum_to_one_per_node_with_in_arcs(self, scale):
        batch = self.batch()
        arcs = batch.dst.size
        scores = np.random.default_rng(14).normal(size=(arcs, 1)) * scale
        alpha = segment_softmax(ad.constant(scores), batch).data
        assert np.isfinite(alpha).all() and (alpha >= 0).all()
        per_node = np.bincount(batch.dst, weights=alpha[:, 0], minlength=batch.n_nodes)
        has_arcs = np.bincount(batch.dst, minlength=batch.n_nodes) > 0
        assert not has_arcs.all()
        np.testing.assert_allclose(per_node[has_arcs], 1.0, rtol=0, atol=1e-12)
        assert (per_node[~has_arcs] == 0.0).all()

    def test_equal_extreme_scores_split_evenly(self):
        batch = self.batch()
        alpha = segment_softmax(ad.constant(np.full((batch.dst.size, 1), 1000.0)), batch)
        deg = np.bincount(batch.dst, minlength=batch.n_nodes)
        np.testing.assert_allclose(alpha.data[:, 0], 1.0 / deg[batch.dst], rtol=0, atol=1e-15)


def isolated_clinical_graph():
    """Liver <-> summary pair plus a clinical node with no edges."""
    g = two_node_graph()
    g.nodes[NodeKind.CLINICAL] = Node(NodeKind.CLINICAL, True, np.zeros(D))
    return PatientGraph(patient_id="iso", nodes=g.nodes, edges=g.edges)


@pytest.mark.parametrize("backbone", BACKBONES)
def test_step_matches_concat_then_propagate_oracle(backbone):
    rng = np.random.default_rng(15)
    kinds = ANATOMICAL_KINDS[:2] + ANATOMICAL_KINDS[3:]   # hepatic veins missing
    missing = build_patient_graph({k: rng.normal(size=D) for k in kinds}, rng.uniform(size=D),
                                  {k: rng.uniform(-50, 50, size=3) for k in kinds})
    batch = batch_graphs([missing, isolated_clinical_graph(), two_node_graph()])
    assert np.bincount(batch.dst, minlength=batch.n_nodes).min() == 0
    params = init_evolution(backbone, D, DT, 4, 5, rng, attention_dim=3)
    for _, leaf in params.named_leaves():
        leaf.data[:] = rng.normal(size=leaf.shape)
    h = rng.normal(size=(batch.n_nodes, D))
    delta = residual_update(batch, params)(ad.constant(h), 2)
    weights = {name[3:]: leaf.data for name, leaf in params.named_leaves()}
    expected = oracles.concat_step(backbone, h, params.time_table.table.data[2:3],
                                   batch.src, batch.dst, batch.attr, weights)
    np.testing.assert_allclose(delta.data, expected, rtol=0, atol=1e-12)


def one_batch_loss(backbone, n=64):
    records, _ = simulate_cohort(n, seed=0)
    config = ModelConfig(backbone=backbone)
    model = init_model(config, _feature_widths(records), np.random.default_rng(0))
    batch = batch_graphs([record_to_graph(r) for r in records])
    return model, batch, lambda: _mean_loss(model, batch, [r.dfs for r in records],
                                            [r.os for r in records], config.bins(),
                                            LossWeights())


@pytest.mark.parametrize("backbone,nodes", (("graphsage", 534), ("gcn", 478), ("gat", 823)))
def test_tape_node_count_of_one_batch_loss(backbone, nodes):
    # Every distinct tensor reachable from the loss, leaves included. A change
    # that adds per-step work to the rollout moves this count.
    _, _, loss = one_batch_loss(backbone)
    seen, stack = set(), [loss()]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node.parents)
    assert len(seen) == nodes


def test_forwards_reuse_selectors_and_operators(monkeypatch):
    # A second forward and backward on the same batch builds no sparse matrix:
    # time-row and weight-block selectors, adjacency and transposes are reused.
    model, batch, loss = one_batch_loss("graphsage", n=12)
    params = [p for _, p in model.named_parameters()]
    ad.backward(loss(), params=params)
    built = []
    init = ad.SparseRows.__init__
    monkeypatch.setattr(ad.SparseRows, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    ad.backward(loss(), params=params)
    assert built == []
