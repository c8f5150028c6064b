"""The 7-slot star layout: cohort arrays, operator blocks, and node embedding."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trajsurv import autodiff as ad
from trajsurv.cohort import (REGION_KEYS, CohortError, load_cohort, make_cohort, save_cohort,
                             simulate_cohort)
from trajsurv.evolution import SOURCE, TARGET, adjacency, gather, mean_pool, scatter
from trajsurv.graph import (ANATOMICAL_KINDS, EDGE_ATTR_DIM, SLOTS, EmbeddingParams,
                            GraphConstructionError, NodeKind, embed_backward, embed_nodes,
                            init_embedding, slots_in_use)

F = 4
CLIN = 3


def one_patient(regions, present, centroids, clinical):
    """The cohort of one patient, p0, from its (5, L) regions, (5,) presence,
    (5, 3) centroids and clinical features."""
    return make_cohort(["p0"], np.array([regions]), np.array([present]), np.array([centroids]),
                       np.array([clinical]), {"dfs": np.array([1.0]), "os": np.array([2.0])},
                       {"dfs": np.array([1]), "os": np.array([0])})


def make_record(kinds=ANATOMICAL_KINDS, seed=0, centroids=None):
    """Patient p0 with random features and centroids for the regions `kinds`."""
    rng = np.random.default_rng(seed)
    feats = {k: rng.normal(size=F) for k in kinds}
    if centroids is None:
        centroids = {k: rng.uniform(-50, 50, size=3) for k in kinds}
    return one_patient([feats.get(k, np.zeros(F)) for k in ANATOMICAL_KINDS],
                       [k in kinds for k in ANATOMICAL_KINDS],
                       [centroids.get(k, np.zeros(3)) for k in ANATOMICAL_KINDS],
                       rng.uniform(0, 1, size=CLIN))


def join(cohorts):
    """The patients of `cohorts`, in order, as one cohort."""
    return make_cohort(range(sum(map(len, cohorts))),
                       *(np.concatenate([getattr(c, name) for c in cohorts])
                         for name in ("regions", "present", "centroids", "clinical")),
                       *({task: np.concatenate([getattr(c, name)[task] for c in cohorts])
                          for task in ("dfs", "os")} for name in ("time", "event")))


def make_graph(kinds=ANATOMICAL_KINDS, seed=0, centroids=None):
    """Patient p0's graph: its one-patient cohort, which the model reads."""
    return make_record(kinds, seed, centroids)


def arc_list(cohort, patient=0):
    """(source slot, target slot, attribute) of every arc in use: each node's
    row number, counted from 1, gathered at both ends of every arc (0 on the
    arcs of an absent region)."""
    rows = np.arange(1.0, SLOTS * len(cohort) + 1).reshape(-1, 1)
    src, dst = (gather(rows, cohort.present, end).reshape(len(cohort), -1)[patient] - 1
                - SLOTS * patient for end in (SOURCE, TARGET))
    attr = adjacency(cohort, "gat")["attr"].reshape(len(cohort), -1, EDGE_ATTR_DIM)[patient]
    return [(int(s), int(d), attr[a]) for a, (s, d) in enumerate(zip(src, dst))
            if d >= 0]


def cohort_file(tmp_path, change):
    """A saved 10-patient simulated cohort with `change` applied to its JSON."""
    cohort, _ = simulate_cohort(10, seed=0)
    path = tmp_path / "c.json"
    save_cohort(cohort, path)
    doc = json.loads(path.read_text())
    change(doc["patients"][3])
    path.write_text(json.dumps(doc))
    return path


class TestBuild:
    def test_full_graph_has_seven_nodes_ten_edges(self):
        g = make_graph()
        assert slots_in_use(g.present).shape == (1, SLOTS) and slots_in_use(g.present).all()
        arcs = arc_list(g)
        assert len(arcs) == 2 * 10
        summary = list(NodeKind).index(NodeKind.GLOBAL_CT)
        assert sum(1 for s, d, _ in arcs if summary in (s, d)) == 2 * 5

    def test_minimal_graph_three_nodes_two_edges(self):
        g = make_graph(kinds=(NodeKind.LIVER_PARENCHYMA,))
        slots = slots_in_use(g.present)
        assert slots.sum() == 3
        assert len(arc_list(g)) == 2 * 2
        assert not slots[0, list(NodeKind).index(NodeKind.METASTATIC_TUMORS)]

    def test_identical_centroids_give_zero_offset(self):
        c = np.array([10.0, 20.0, 30.0])
        g = make_graph(centroids={k: c.copy() for k in ANATOMICAL_KINDS})
        assert np.array_equal(g.offsets, np.zeros((1, 5, 3)))
        for _, _, attr in arc_list(g):
            assert np.array_equal(attr, np.zeros(3))

    def test_summary_node_averages_present_regions(self):
        kinds = ANATOMICAL_KINDS[:2] + ANATOMICAL_KINDS[3:]
        data = make_record(kinds=kinds)
        stacked = data.regions[0, [ANATOMICAL_KINDS.index(k) for k in kinds]]
        np.testing.assert_allclose(data.global_features[0], stacked.mean(axis=0),
                                   rtol=0, atol=1e-15)
        # The offsets are taken from the mean present centroid, so they sum to 0.
        np.testing.assert_allclose(data.offsets[0].sum(axis=0), 0.0, rtol=0, atol=1e-15)
        assert np.array_equal(data.offsets[0, 2], np.zeros(3))

    def test_offsets_scaled_and_clamped(self):
        kinds = (NodeKind.LIVER_PARENCHYMA, NodeKind.METASTATIC_TUMORS)
        cents = {NodeKind.LIVER_PARENCHYMA: np.array([0.0, 0.0, 0.0]),
                 NodeKind.METASTATIC_TUMORS: np.array([500.0, 10.0, 0.0])}
        g = make_graph(kinds=kinds, centroids=cents)
        # Summary centroid is (250, 5, 0); the x offset saturates at the clamp.
        assert np.allclose(g.offsets[0, 4], [1.0, 0.05, 0.0])
        assert np.allclose(g.offsets[0, 0], [-1.0, -0.05, 0.0])

    def test_context_edges_carry_zero_attr(self):
        clinical = list(NodeKind).index(NodeKind.CLINICAL)
        context = [attr for s, d, attr in arc_list(make_graph()) if clinical in (s, d)]
        assert len(context) == 10
        for attr in context:
            assert np.array_equal(attr, np.zeros(EDGE_ATTR_DIM))

    def test_node_order_is_canonical(self):
        # Kind j of patient b lands on row 7b + j: with zero weights, each
        # kind's row is its bias, here j + 1, and a padding row stays zero.
        g = join([make_graph(), make_graph(kinds=ANATOMICAL_KINDS[1:], seed=1)])
        params = EmbeddingParams(
            weights={k: np.zeros((CLIN if k is NodeKind.CLINICAL else F, 2))
                     for k in NodeKind},
            biases={k: np.full((1, 2), j + 1.0) for j, k in enumerate(NodeKind)})
        h0 = embed_nodes(g, params)
        assert np.array_equal(h0[:SLOTS, 0], np.arange(1.0, SLOTS + 1))
        assert np.array_equal(h0[SLOTS:, 0], [0.0, *np.arange(2.0, SLOTS + 1)])

    def test_no_regions_rejected(self, tmp_path):
        def clear(patient):
            patient["regions"] = {key: {"present": False} for key in REGION_KEYS}
        with pytest.raises(CohortError, match="sim0003: no region is present"):
            load_cohort(cohort_file(tmp_path, clear))

    def test_wrong_region_length_rejected(self, tmp_path):
        def shorten(patient):
            patient["regions"]["liver"]["centroid"] = [1.0, 2.0]
        with pytest.raises(CohortError, match="sim0003: region liver centroid must have length 3"):
            load_cohort(cohort_file(tmp_path, shorten))

    def test_inconsistent_region_widths_rejected(self, tmp_path):
        def widen(patient):
            patient["regions"]["tumors"]["features"].append(0.0)
        with pytest.raises(CohortError, match="sim0003: region tumors features must have length 8"):
            load_cohort(cohort_file(tmp_path, widen))

    def test_missing_centroid_rejected(self, tmp_path):
        def drop(patient):
            del patient["regions"]["portal_veins"]["centroid"]
        with pytest.raises(CohortError, match="sim0003: region portal_veins must have"):
            load_cohort(cohort_file(tmp_path, drop))

    def test_nonfinite_feature_rejected(self, tmp_path):
        def poison(patient):
            patient["regions"]["liver"]["features"][2] = float("nan")
        with pytest.raises(CohortError, match="sim0003: region liver features must be finite"):
            load_cohort(cohort_file(tmp_path, poison))


class TestArcs:
    def test_two_arcs_per_edge_with_flipped_attr(self):
        arcs = arc_list(make_graph())
        assert len(arcs) == 20
        for s, d, attr in arcs:
            assert sum(1 for s2, d2, a2 in arcs
                       if (s2, d2) == (d, s) and np.array_equal(a2, -attr)) == 1

    def test_in_neighbors_degrees(self):
        g = make_graph()
        # Regions hear from the summary and clinical nodes; the hubs hear
        # from every present region.
        mean = adjacency(g, "graphsage")["mean"].blocks[0]
        assert (mean > 0).sum(axis=1).tolist() == [2, 2, 2, 2, 2, 5, 5]
        np.testing.assert_allclose(mean.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_in_neighbors_row_indices_valid(self):
        g = make_graph(kinds=(NodeKind.LIVER_PARENCHYMA, NodeKind.HEPATIC_VEINS))
        unused = ~slots_in_use(g.present)[0]
        # No gather reads a padding row, and no sum adds into one.
        x = np.where(unused, np.nan, 1.0).reshape(-1, 1)
        for end in (TARGET, SOURCE):
            assert np.isfinite(gather(x, g.present, end)).all()
            assert not scatter(np.ones((20, 1)), g.present, end)[unused].any()
        assert adjacency(g, "gat")["attr"].shape == (20, EDGE_ATTR_DIM)

    @pytest.mark.parametrize("width", (1, 3, 8, 16, 32, 33))
    def test_index_gathers_and_sums_match_one_hot_blocks(self, width):
        # The dense one-hot gathers of the oracle, and their transposes as the
        # sums, on a slice with regions absent; an absent region's arc values
        # are ignored by the sums.
        cohort = join([make_record(k, seed) for seed, k in enumerate(
            (ANATOMICAL_KINDS, ANATOMICAL_KINDS[1:4], (NodeKind.PORTAL_VEINS,)))])
        blocks = oracles.arc_blocks(cohort)
        rng = np.random.default_rng(width)
        x = rng.normal(size=(SLOTS * len(cohort), width))
        v = rng.normal(size=(20 * len(cohort), width))
        v_used = v * cohort.present.repeat(4, axis=1).reshape(-1, 1)
        for end, name in ((TARGET, "at_dst"), (SOURCE, "at_src")):
            assert np.array_equal(gather(x, cohort.present, end), blocks[name].apply(x))
            np.testing.assert_allclose(scatter(v, cohort.present, end),
                                       blocks[name].T.apply(v_used), rtol=0, atol=1e-12)


class TestValidate:
    def test_well_formed_graph_is_clean(self):
        rec = make_record(seed=4)
        expected = oracles.star_operators(rec)
        np.testing.assert_allclose(adjacency(rec, "graphsage")["mean"].blocks[0],
                                   expected["mean"], rtol=0, atol=1e-15)
        np.testing.assert_allclose(adjacency(rec, "gcn")["norm"].blocks[0], expected["norm"],
                                   rtol=0, atol=1e-15)

    def test_absent_clinical_node_flagged(self, tmp_path):
        # Every patient has a clinical node; the loader flags one without values.
        def empty(patient):
            patient["clinical"] = []
        with pytest.raises(CohortError, match="sim0003: clinical features must have length 6"):
            load_cohort(cohort_file(tmp_path, empty))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.booleans(), min_size=5, max_size=5).filter(any),
                min_size=1, max_size=4),
       st.integers(0, 2 ** 31 - 1))
def test_batch_blocks_match_star_oracle(patterns, seed):
    # Each patient of the slice has its own presence pattern.
    records = [make_record(tuple(k for k, on in zip(ANATOMICAL_KINDS, p) if on), seed + i)
               for i, p in enumerate(patterns)]
    batch = join(records)
    mean = adjacency(batch, "graphsage")
    norm = adjacency(batch, "gcn")["norm"].blocks
    for b, rec in enumerate(records):
        expected = oracles.star_operators(rec)
        np.testing.assert_allclose(mean["mean"].blocks[b], expected["mean"], rtol=0, atol=1e-15)
        np.testing.assert_allclose(mean["attr_mean"][SLOTS * b:SLOTS * (b + 1)],
                                   expected["attr_mean"], rtol=0, atol=1e-15)
        np.testing.assert_allclose(norm[b], expected["norm"], rtol=0, atol=1e-15)
        got = sorted((s, d, tuple(a)) for s, d, a in arc_list(batch, b))
        want = sorted((s, d, tuple(a)) for s, d, a in expected["arcs"])
        assert [(s, d) for s, d, _ in got] == [(s, d) for s, d, _ in want]
        np.testing.assert_allclose([a for *_, a in got], [a for *_, a in want],
                                   rtol=0, atol=1e-15)


class TestEmbedding:
    def widths(self):
        w = {k: F for k in ANATOMICAL_KINDS}
        w[NodeKind.GLOBAL_CT] = F
        w[NodeKind.CLINICAL] = CLIN
        return w

    def test_zero_params_embed_to_zero(self):
        params = init_embedding(self.widths(), 6, np.random.default_rng(0))
        for _, leaf in params.named_leaves():
            leaf[:] = 0.0
        h0 = embed_nodes(make_graph(), params)
        assert h0.shape == (7, 6)
        assert np.array_equal(h0, np.zeros((7, 6)))

    def test_identity_projection_reproduces_features(self):
        data = make_record(kinds=(NodeKind.LIVER_PARENCHYMA,), seed=3)
        params = EmbeddingParams(
            weights={k: np.eye(CLIN if k is NodeKind.CLINICAL else F, F)
                     for k in NodeKind},
            biases={k: np.zeros((1, F)) for k in NodeKind})
        liver = data.regions[0, 0].copy()
        data.regions[0, 1:] = 7.0
        h0 = embed_nodes(data, params)
        assert np.allclose(h0[0], liver)
        # The missing regions' rows start at zero, whatever their feature slots hold.
        assert np.array_equal(h0[1:5], np.zeros((4, F)))

    def test_hand_projection_example(self):
        rec = one_patient([[3.0, 5.0]] + [[0.0, 0.0]] * 4, [True] + [False] * 4,
                          np.zeros((5, 3)), [1.0])
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        params = EmbeddingParams(
            weights={**{k: w for k in ANATOMICAL_KINDS}, NodeKind.GLOBAL_CT: w,
                     NodeKind.CLINICAL: np.array([[1.0, 1.0]])},
            biases={k: np.zeros((1, 2)) for k in NodeKind})
        h0 = embed_nodes(rec, params)
        assert np.allclose(h0[0], [3.0, 10.0])
        assert np.allclose(h0[6], [1.0, 1.0])

    def test_missing_projection_for_present_kind(self):
        # Every patient has both hubs, so the embedding needs every kind's width.
        widths = {k: w for k, w in self.widths().items() if k is not NodeKind.GLOBAL_CT}
        with pytest.raises(KeyError, match="global_ct"):
            init_embedding(widths, 4, np.random.default_rng(0))

    def test_feature_width_mismatch_names_kind_and_widths(self):
        widths = {**self.widths(), NodeKind.CLINICAL: CLIN + 1}
        params = init_embedding(widths, 4, np.random.default_rng(0))
        with pytest.raises(GraphConstructionError,
                           match=f"clinical features have width {CLIN}, .* expects {CLIN + 1}"):
            embed_nodes(make_graph(), params)

    def test_embedding_is_differentiable(self):
        params = init_embedding(self.widths(), 5, np.random.default_rng(1))
        batch = make_graph(kinds=ANATOMICAL_KINDS[1:], seed=2)
        h0 = embed_nodes(batch, params)
        grads = ad.map_arrays(params, np.zeros_like)
        embed_backward(batch, 1.0 - np.tanh(h0) ** 2, grads)
        err = ad.grad_check(lambda: np.tanh(embed_nodes(batch, params)).sum(),
                            dict(grads.named_leaves()), dict(params.named_leaves()))
        assert err <= 1e-4

    def test_init_respects_fan_in_bound(self):
        params = init_embedding(self.widths(), 64, np.random.default_rng(5))
        for kind, w in params.weights.items():
            bound = 1.0 / np.sqrt(w.shape[0])
            assert np.abs(w).max() <= bound
            assert np.array_equal(params.biases[kind], np.zeros((1, 64)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(ANATOMICAL_KINDS), min_size=1, max_size=5, unique=True),
       st.integers(0, 2 ** 31 - 1))
def test_any_built_graph_validates_clean(kinds, seed):
    g = make_graph(kinds=tuple(kinds), seed=seed)
    slots = slots_in_use(g.present)
    assert slots.sum() == len(kinds) + 2
    assert slots[0, 5:].all()
    assert len(arc_list(g)) == 4 * len(kinds)
    assert np.abs(g.offsets).max() <= 1.0
    np.testing.assert_allclose(mean_pool(g.present).blocks[0, 0], slots[0] / (len(kinds) + 2),
                               rtol=0, atol=0)
