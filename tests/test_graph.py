"""Patient-graph construction, validation, and node embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsurv import autodiff as ad
from trajsurv.graph import (ANATOMICAL_KINDS, EDGE_ATTR_DIM, EdgeKind, EmbeddingParams,
                            GraphConstructionError, NodeKind, batch_graphs,
                            build_patient_graph, embed_nodes, init_embedding,
                            validate_graph)

F = 4
CLIN = 3


def make_graph(kinds=ANATOMICAL_KINDS, seed=0, centroids=None, scale=100.0):
    rng = np.random.default_rng(seed)
    feats = {k: rng.normal(size=F) for k in kinds}
    if centroids is None:
        centroids = {k: rng.uniform(-50, 50, size=3) for k in kinds}
    return build_patient_graph(feats, rng.uniform(0, 1, size=CLIN), centroids,
                               patient_id="p0", offset_scale=scale)


class TestBuild:
    def test_full_graph_has_seven_nodes_ten_edges(self):
        g = make_graph()
        assert g.num_nodes == 7
        assert len(g.edges) == 10
        kinds = [e.kind for e in g.edges]
        assert kinds.count(EdgeKind.SPATIAL_TOPOLOGY) == 5
        assert kinds.count(EdgeKind.CLINICAL_CONTEXT) == 5

    def test_minimal_graph_three_nodes_two_edges(self):
        g = make_graph(kinds=(NodeKind.LIVER_PARENCHYMA,))
        assert g.num_nodes == 3
        assert len(g.edges) == 2
        assert not g.is_present(NodeKind.METASTATIC_TUMORS)

    def test_identical_centroids_give_zero_offset(self):
        c = np.array([10.0, 20.0, 30.0])
        g = make_graph(centroids={k: c.copy() for k in ANATOMICAL_KINDS})
        for e in g.edges:
            if e.kind is EdgeKind.SPATIAL_TOPOLOGY:
                assert np.array_equal(e.attr, np.zeros(3))

    def test_summary_node_averages_present_regions(self):
        g = make_graph()
        stacked = np.stack([g.nodes[k].features for k in ANATOMICAL_KINDS])
        assert np.allclose(g.nodes[NodeKind.GLOBAL_CT].features, stacked.mean(axis=0))
        cents = np.stack([g.nodes[k].centroid for k in ANATOMICAL_KINDS])
        assert np.allclose(g.nodes[NodeKind.GLOBAL_CT].centroid, cents.mean(axis=0))

    def test_offsets_scaled_and_clamped(self):
        kinds = (NodeKind.LIVER_PARENCHYMA, NodeKind.METASTATIC_TUMORS)
        cents = {NodeKind.LIVER_PARENCHYMA: np.array([0.0, 0.0, 0.0]),
                 NodeKind.METASTATIC_TUMORS: np.array([500.0, 10.0, 0.0])}
        g = make_graph(kinds=kinds, centroids=cents, scale=100.0)
        spatial = {e.target: e.attr for e in g.edges
                   if e.kind is EdgeKind.SPATIAL_TOPOLOGY}
        # Summary centroid is (250, 5, 0); the x offset saturates at the clamp.
        assert np.allclose(spatial[NodeKind.METASTATIC_TUMORS], [1.0, 0.05, 0.0])
        assert np.allclose(spatial[NodeKind.LIVER_PARENCHYMA], [-1.0, -0.05, 0.0])

    def test_context_edges_carry_zero_attr(self):
        g = make_graph()
        for e in g.edges:
            if e.kind is EdgeKind.CLINICAL_CONTEXT:
                assert np.array_equal(e.attr, np.zeros(EDGE_ATTR_DIM))

    def test_node_order_is_canonical(self):
        g = make_graph()
        assert g.order == [NodeKind.LIVER_PARENCHYMA, NodeKind.FUTURE_LIVER_REMNANT,
                           NodeKind.HEPATIC_VEINS, NodeKind.PORTAL_VEINS,
                           NodeKind.METASTATIC_TUMORS, NodeKind.GLOBAL_CT,
                           NodeKind.CLINICAL]

    def test_no_regions_rejected(self):
        with pytest.raises(GraphConstructionError, match="no anatomical region"):
            build_patient_graph({}, np.zeros(CLIN), {})

    def test_wrong_region_length_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(GraphConstructionError, match="expected length"):
            build_patient_graph({NodeKind.LIVER_PARENCHYMA: rng.normal(size=F)},
                                np.zeros(CLIN),
                                {NodeKind.LIVER_PARENCHYMA: np.zeros(3)},
                                region_len=F + 1)

    def test_inconsistent_region_widths_rejected(self):
        feats = {NodeKind.LIVER_PARENCHYMA: np.zeros(4),
                 NodeKind.METASTATIC_TUMORS: np.zeros(5)}
        cents = {k: np.zeros(3) for k in feats}
        with pytest.raises(GraphConstructionError, match="widths differ"):
            build_patient_graph(feats, np.zeros(CLIN), cents)

    def test_missing_centroid_rejected(self):
        with pytest.raises(GraphConstructionError, match="centroid missing"):
            build_patient_graph({NodeKind.LIVER_PARENCHYMA: np.zeros(F)},
                                np.zeros(CLIN), {})

    def test_nonfinite_feature_rejected(self):
        with pytest.raises(GraphConstructionError, match="non-finite"):
            build_patient_graph({NodeKind.LIVER_PARENCHYMA: np.array([np.nan] * F)},
                                np.zeros(CLIN),
                                {NodeKind.LIVER_PARENCHYMA: np.zeros(3)})


class TestArcs:
    def test_two_arcs_per_edge_with_flipped_attr(self):
        g = make_graph()
        src, dst, attr = g.arc_arrays()
        arcs = list(zip(src.tolist(), dst.tolist(), map(tuple, attr)))
        assert len(arcs) == 2 * len(g.edges)
        for e in g.edges:
            s, t = g.row_of(e.source), g.row_of(e.target)
            assert (s, t, tuple(e.attr)) in arcs
            assert (t, s, tuple(-e.attr)) in arcs

    def test_in_neighbors_degrees(self):
        g = make_graph()
        _, dst, _ = g.arc_arrays()
        # Regions hear from the summary and clinical nodes; the hubs hear
        # from every present region. Arcs come sorted by target.
        assert np.bincount(dst, minlength=g.num_nodes).tolist() == [2, 2, 2, 2, 2, 5, 5]
        assert (np.diff(dst) >= 0).all()

    def test_in_neighbors_row_indices_valid(self):
        g = make_graph(kinds=(NodeKind.LIVER_PARENCHYMA, NodeKind.HEPATIC_VEINS))
        src, dst, attr = g.arc_arrays()
        assert ((0 <= src) & (src < g.num_nodes) & (0 <= dst) & (dst < g.num_nodes)).all()
        assert attr.shape == (src.size, EDGE_ATTR_DIM)


class TestValidate:
    def test_well_formed_graph_is_clean(self):
        assert validate_graph(make_graph()) == []

    def test_absent_clinical_node_flagged(self):
        g = make_graph()
        g.nodes[NodeKind.CLINICAL].present = False
        g.order.remove(NodeKind.CLINICAL)
        violations = validate_graph(g)
        assert "clinical node absent" in violations

    def test_dangling_edge_flagged(self):
        g = make_graph()
        g.nodes[NodeKind.METASTATIC_TUMORS].present = False
        g.order.remove(NodeKind.METASTATIC_TUMORS)
        assert any(v.startswith("dangling edge") for v in validate_graph(g))

    def test_out_of_range_offset_flagged(self):
        g = make_graph()
        for e in g.edges:
            if e.kind is EdgeKind.SPATIAL_TOPOLOGY:
                e.attr[0] = 1.5
                break
        assert any("outside [-1,1]" in v for v in validate_graph(g))

    def test_duplicate_spatial_edge_flagged(self):
        g = make_graph()
        g.edges.append(g.edges[0])
        assert any("exactly one spatial edge" in v for v in validate_graph(g))


class TestEmbedding:
    def widths(self):
        w = {k: F for k in ANATOMICAL_KINDS}
        w[NodeKind.GLOBAL_CT] = F
        w[NodeKind.CLINICAL] = CLIN
        return w

    def test_zero_params_embed_to_zero(self):
        params = init_embedding(self.widths(), 6, np.random.default_rng(0))
        for _, leaf in params.named_leaves():
            leaf.data[:] = 0.0
        h0 = embed_nodes(batch_graphs([make_graph()]), params)
        assert h0.shape == (7, 6)
        assert np.array_equal(h0.data, np.zeros((7, 6)))

    def test_identity_projection_reproduces_features(self):
        g = make_graph(kinds=(NodeKind.LIVER_PARENCHYMA,), seed=3)
        params = EmbeddingParams(
            weights={k: ad.parameter(np.eye(F if k is not NodeKind.CLINICAL else CLIN,
                                            F))
                     for k in (NodeKind.LIVER_PARENCHYMA, NodeKind.GLOBAL_CT,
                               NodeKind.CLINICAL)},
            biases={k: ad.parameter(np.zeros((1, F)))
                    for k in (NodeKind.LIVER_PARENCHYMA, NodeKind.GLOBAL_CT,
                              NodeKind.CLINICAL)})
        h0 = embed_nodes(batch_graphs([g]), params)
        assert np.allclose(h0.data[g.row_of(NodeKind.LIVER_PARENCHYMA)],
                           g.nodes[NodeKind.LIVER_PARENCHYMA].features)

    def test_hand_projection_example(self):
        g = build_patient_graph({NodeKind.LIVER_PARENCHYMA: np.array([3.0, 5.0])},
                                np.array([1.0]),
                                {NodeKind.LIVER_PARENCHYMA: np.zeros(3)})
        w = ad.parameter(np.array([[1.0, 0.0], [0.0, 2.0]]))
        params = EmbeddingParams(
            weights={NodeKind.LIVER_PARENCHYMA: w, NodeKind.GLOBAL_CT: w,
                     NodeKind.CLINICAL: ad.parameter(np.array([[1.0, 1.0]]))},
            biases={k: ad.parameter(np.zeros((1, 2)))
                    for k in (NodeKind.LIVER_PARENCHYMA, NodeKind.GLOBAL_CT,
                              NodeKind.CLINICAL)})
        h0 = embed_nodes(batch_graphs([g]), params)
        assert np.allclose(h0.data[g.row_of(NodeKind.LIVER_PARENCHYMA)], [3.0, 10.0])

    def test_missing_projection_for_present_kind(self):
        params = init_embedding({NodeKind.LIVER_PARENCHYMA: F}, 4,
                                np.random.default_rng(0))
        batch = batch_graphs([make_graph(kinds=(NodeKind.LIVER_PARENCHYMA,))])
        with pytest.raises(KeyError, match="global_ct"):
            embed_nodes(batch, params)

    def test_feature_width_mismatch_names_kind_and_widths(self):
        widths = {**self.widths(), NodeKind.CLINICAL: CLIN + 1}
        params = init_embedding(widths, 4, np.random.default_rng(0))
        with pytest.raises(GraphConstructionError,
                           match=f"clinical features have width {CLIN}, .* expects {CLIN + 1}"):
            embed_nodes(batch_graphs([make_graph()]), params)

    def test_embedding_is_differentiable(self):
        params = init_embedding(self.widths(), 5, np.random.default_rng(1))
        g = make_graph(seed=2)
        leaves = [leaf for _, leaf in params.named_leaves()]
        batch = batch_graphs([g])
        err = ad.grad_check(lambda: ad.sum_all(ad.tanh(embed_nodes(batch, params))), leaves)
        assert err <= 1e-4

    def test_init_respects_fan_in_bound(self):
        params = init_embedding(self.widths(), 64, np.random.default_rng(5))
        for kind, w in params.weights.items():
            bound = 1.0 / np.sqrt(w.rows)
            assert np.abs(w.data).max() <= bound
            assert np.array_equal(params.biases[kind].data, np.zeros((1, 64)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(ANATOMICAL_KINDS), min_size=1, max_size=5, unique=True),
       st.integers(0, 2 ** 31 - 1))
def test_any_built_graph_validates_clean(kinds, seed):
    g = make_graph(kinds=tuple(kinds), seed=seed)
    assert validate_graph(g) == []
    assert g.num_nodes == len(kinds) + 2
    assert len(g.edges) == 2 * len(kinds)
