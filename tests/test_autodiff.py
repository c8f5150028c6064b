"""The reference tape of `oracles`: forward values, backward rules and
finite-difference checks; the central-difference check; the LSTM
backward's memory; and `Blocks`."""

import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trajsurv import autodiff as ad
from trajsurv import model as model_module
from trajsurv.cohort import simulate_cohort
from trajsurv.crossval import feature_widths
from trajsurv.evolution import BACKBONES, Blocks, init_evolution
from trajsurv.graph import slots_in_use
from trajsurv.model import ModelConfig, init_model
from trajsurv.objective import LossWeights
from trajsurv.trajectory import LstmParams, integrate, integrate_backward


# Three 2 x 1 blocks, one of them zero: a 6 x 3 block-diagonal matrix.
BLOCKS = Blocks([[[0.5], [-1.0]], [[0.0], [0.0]], [[2.0], [3.0]]])


def params_of(*arrays):
    return [oracles.parameter(a) for a in arrays]


class TestForwardValues:
    def test_matmul_hand_example(self):
        out = oracles.matmul(oracles.constant([[1.0, 2.0], [3.0, 4.0]]), oracles.constant([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_sum_all(self):
        x = oracles.constant([[1.0, 2.0], [3.0, 4.0]])
        assert oracles.sum_all(x).item() == 10.0

    def test_elementwise_and_unary(self):
        a = oracles.constant([[1.0, -2.0]])
        b = oracles.constant([[3.0, 5.0]])
        assert np.array_equal(oracles.add(a, b).data, [[4.0, 3.0]])
        assert np.array_equal(oracles.mul(a, b).data, [[3.0, -10.0]])
        assert np.array_equal(oracles.negate(a).data, [[-1.0, 2.0]])
        assert np.array_equal(oracles.tanh(a).data, np.tanh(a.data))

    def test_concat_then_slice_roundtrip(self):
        a = oracles.constant([[1.0, 2.0], [3.0, 4.0]])
        b = oracles.constant([[5.0], [6.0]])
        cat = oracles.concat_cols(a, b)
        assert cat.shape == (2, 3)
        assert np.array_equal(cat.data[:, 0:2], a.data)
        assert np.array_equal(cat.data[:, 2:3], b.data)

    def test_reshape_keeps_row_major_order(self):
        a = oracles.constant([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        assert np.array_equal(oracles.reshape(a, 4, 2).data, [[1.0, 2.0], [3.0, 4.0],
                                                         [5.0, 6.0], [7.0, 8.0]])
        with pytest.raises(oracles.ShapeMismatchError, match="reshape"):
            oracles.reshape(a, 3, 3)

    def test_add_broadcasts_single_row(self):
        a = oracles.constant([[1.0, 1.0], [2.0, 2.0]])
        bias = oracles.constant([[10.0, 20.0]])
        assert np.array_equal(oracles.add(a, bias).data, [[11.0, 21.0], [12.0, 22.0]])

    def test_log_exp_inverse(self):
        x = oracles.constant([[0.5, 2.0]])
        assert np.allclose(oracles.log(oracles.exp(x)).data, x.data)


class TestErrors:
    def test_matmul_shape_error_names_op(self):
        with pytest.raises(oracles.ShapeMismatchError, match="matmul"):
            oracles.matmul(oracles.constant([[1.0, 2.0]]), oracles.constant([[1.0, 2.0]]))

    def test_elementwise_shape_error(self):
        with pytest.raises(oracles.ShapeMismatchError, match="add"):
            oracles.add(oracles.constant([[1.0, 2.0]]), oracles.constant([[1.0], [2.0]]))

    def test_backward_rejects_nonscalar(self):
        x = oracles.parameter([[1.0, 2.0]])
        with pytest.raises(oracles.ShapeMismatchError, match="backward"):
            oracles.backward(oracles.tanh(x))

    def test_item_rejects_nonscalar(self):
        with pytest.raises(oracles.ShapeMismatchError):
            oracles.constant([[1.0, 2.0]]).item()

    def test_tensor_rejects_3d(self):
        with pytest.raises(oracles.ShapeMismatchError):
            oracles.constant(np.zeros((2, 2, 2)))


class TestBackwardExamples:
    def test_quadratic_gradient(self):
        x = oracles.parameter([[3.0]])
        grads = oracles.backward(oracles.sum_all(oracles.mul(x, x)))
        assert grads[x].item() == pytest.approx(6.0)

    def test_matmul_weight_gradient_rows(self):
        w = oracles.parameter(np.zeros((2, 2)))
        v = oracles.constant([[1.0], [2.0]])
        grads = oracles.backward(oracles.sum_all(oracles.matmul(w, v)))
        assert np.allclose(grads[w].data, [[1.0, 2.0], [1.0, 2.0]])

    def test_unreachable_parameter_gets_zeros(self):
        x = oracles.parameter([[1.0]])
        unused = oracles.parameter([[5.0, 5.0]])
        grads = oracles.backward(oracles.sum_all(x), params=[x, unused])
        assert np.array_equal(grads[unused].data, np.zeros((1, 2)))

    def test_reused_tensor_accumulates(self):
        x = oracles.parameter([[2.0]])
        grads = oracles.backward(oracles.sum_all(oracles.add(oracles.mul(x, x), x)))
        assert grads[x].item() == pytest.approx(5.0)  # 2x + 1

    def test_gradient_through_broadcast_row(self):
        # A single row added to every row of a matrix gets the column sums.
        x = oracles.parameter([[1.0, 2.0]])
        grads = oracles.backward(oracles.sum_all(oracles.add(oracles.constant(np.zeros((4, 2))), x)))
        assert np.allclose(grads[x].data, [[4.0, 4.0]])

    def test_shared_upstream_gradient_is_not_summed_in_place(self):
        # The outer add hands the same array to x and to the inner add; the
        # inner add hands it on to x and y. Summing in place would double y's.
        x, y = oracles.parameter([[1.0]]), oracles.parameter([[1.0]])
        grads = oracles.backward(oracles.sum_all(oracles.add(oracles.add(x, y), x)))
        assert grads[x].item() == 2.0 and grads[y].item() == 1.0

    def test_constant_operand_gets_no_gradient_product(self):
        w = oracles.parameter(np.ones((2, 2)))
        for node in (oracles.matmul(oracles.constant(np.ones((3, 2))), w),
                     oracles.mul(oracles.constant(np.ones((2, 2))), w)):
            const_grad, w_grad = oracles._BACKWARD[node.op](node, np.ones(node.shape))
            assert const_grad is None and w_grad.shape == (2, 2)

    def test_gradient_additivity_across_terms(self):
        rng = np.random.default_rng(0)
        x = oracles.parameter(rng.normal(size=(2, 3)))

        def f():
            return oracles.sum_all(oracles.tanh(x))

        def g():
            return oracles.sum_all(oracles.mul(x, x))

        gf = oracles.backward(f(), params=[x])[x].data
        gg = oracles.backward(g(), params=[x])[x].data
        combined = oracles.backward(oracles.add(f(), g()), params=[x])[x].data
        assert np.allclose(combined, gf + gg, atol=1e-12)

    def test_backward_is_deterministic_bitwise(self):
        rng = np.random.default_rng(7)
        x = oracles.parameter(rng.normal(size=(3, 3)))

        def run():
            y = oracles.spmm(BLOCKS, oracles.matmul(x, oracles.tanh(x)))
            return oracles.backward(oracles.sum_all(y), params=[x])[x].data.copy()

        assert np.array_equal(run(), run())


def _fd_builders():
    """One scalar-valued builder per primitive, the test-side ops of `oracles`
    included, over trainable leaves."""
    rng = np.random.default_rng(42)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    row = rng.normal(size=(1, 4))
    pos = rng.uniform(0.5, 2.0, size=(3, 4))

    def leafy(arr):
        return oracles.parameter(arr.copy())

    cases = {}
    x, y = leafy(a), leafy(b)
    wl, rl, pl = leafy(w), leafy(row), leafy(pos)
    cases["matmul"] = ([x, wl], lambda: oracles.sum_all(oracles.matmul(x, wl)))
    cases["add"] = ([x, y], lambda: oracles.sum_all(oracles.add(x, y)))
    cases["add-broadcast"] = ([x, rl], lambda: oracles.sum_all(oracles.add(x, rl)))
    cases["mul"] = ([x, y], lambda: oracles.sum_all(oracles.mul(x, y)))
    cases["negate"] = ([x], lambda: oracles.sum_all(oracles.negate(x)))
    cases["concat-cols"] = ([x, y], lambda: oracles.sum_all(oracles.mul(
        oracles.concat_cols(x, y), oracles.constant(np.arange(24.0).reshape(3, 8)))))
    cases["reshape"] = ([x], lambda: oracles.sum_all(oracles.mul(
        oracles.reshape(x, 6, 2), oracles.constant(np.arange(12.0).reshape(6, 2)))))
    # Saturated logits included: log-sigmoid stays exact and differentiable there.
    sat = a.copy()
    sat[0] = [40.0, -40.0, 700.0, -700.0]
    sl = leafy(sat)
    cases["log-sigmoid"] = ([sl], lambda: oracles.sum_all(oracles.log_sigmoid(sl)))
    cases["tanh"] = ([x], lambda: oracles.sum_all(oracles.tanh(x)))
    cases["exp"] = ([x], lambda: oracles.sum_all(oracles.exp(x)))
    cases["log"] = ([pl], lambda: oracles.sum_all(oracles.log(pl)))
    cases["sum-all"] = ([x], lambda: oracles.sum_all(x))
    cases["spmm"] = ([x], lambda: oracles.sum_all(oracles.mul(
        oracles.spmm(BLOCKS, x), oracles.constant(np.arange(24.0).reshape(6, 4)))))
    # Three snapshots of two rows, d = 2, d_h = 3: every gate weight and bias
    # and the stacked snapshots are leaves.
    snaps = leafy(rng.normal(size=(6, 2)))
    lstm = LstmParams(np.empty((4, 5, 3)), np.empty((4, 1, 3)))
    for _, leaf in lstm.named_leaves():
        leaf[:] = rng.normal(size=leaf.shape)
    mix = oracles.constant(rng.normal(size=(2, 3)))
    lstm = oracles.leaves_of(lstm)
    gate_leaves = [leaf for _, leaf in lstm.named_leaves()]
    cases["lstm"] = ([snaps] + gate_leaves,
                     lambda: oracles.sum_all(oracles.mul(oracles.lstm_node(snaps, 3, lstm), mix)))
    # Three steps over two patients, the second without two regions: H0 and
    # every evolution leaf of each backbone.
    cohort, _ = simulate_cohort(10, seed=1)
    present = cohort.present[:2].copy()
    present[1, 1:3] = False
    cohort = cohort[:2].with_presence(present)
    for backbone in BACKBONES:
        params = oracles.leaves_of(init_evolution(backbone, 3, 2, 3, 4, rng, attention_dim=2))
        h0 = leafy(rng.normal(size=(14, 3)) * slots_in_use(present).reshape(-1, 1))
        weight = oracles.constant(rng.normal(size=(6, 3)))
        cases[f"evolve/{backbone}"] = (
            [h0] + [leaf for _, leaf in params.named_leaves()],
            lambda h0=h0, params=params, weight=weight: oracles.sum_all(oracles.mul(
                oracles.tanh(oracles.evolve_node(h0, cohort, params)), weight)))
    return cases


@pytest.mark.parametrize("op", sorted(_fd_builders()))
def test_primitive_gradients_match_central_differences(op):
    leaves, f = _fd_builders()[op]
    assert oracles.tape_grad_check(f, leaves) <= 1e-4


def _integrated(steps, rows, d, d_h, seed=0, weight_scale=0.05, bias_scale=0.05):
    """What `integrate` keeps over (steps rows x d) snapshots at hidden width
    d_h, a gradient for its summary, and zeroed arrays laid out as the
    parameters for the parameters' gradients."""
    rng = np.random.default_rng(seed)
    snaps = rng.normal(size=(steps, rows, d))
    params = LstmParams(np.empty((4, d + d_h, d_h)), np.empty((4, 1, d_h)))
    for name, leaf in params.named_leaves():
        leaf[:] = rng.normal(scale=weight_scale if ".w_" in name else bias_scale, size=leaf.shape)
    h_star, kept = integrate(snaps, params, {})
    return kept, rng.normal(size=h_star.shape), ad.map_arrays(params, np.zeros_like)


def test_lstm_backward_sums_weight_gradients_step_by_step():
    # At T = 64 and d = d_h = 128, the per-step products of both weight
    # gradients stacked at once would take 2 x 33.5 MB.
    kept, g, grads = _integrated(64, 1, 128, 128, bias_scale=0.0)
    tracemalloc.start()
    try:
        integrate_backward(kept, g, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("steps,rows,d,d_h", [(1, 1, 3, 3), (5, 7, 4, 6), (12, 64, 32, 32)])
def test_lstm_snapshot_gradient_is_the_stacked_gate_sum(steps, rows, d, d_h):
    # Each backward consumes the state its forward kept, so the oracle runs
    # on a second forward of the same draws.
    kept, g, grads = _integrated(steps, rows, d, d_h)
    expected = oracles.stacked_snapshot_grad(_integrated(steps, rows, d, d_h)[0], g)
    got = integrate_backward(kept, g, grads)
    assert got.shape == (steps, rows, d)
    assert np.array_equal(got, expected)


def test_lstm_backward_never_stacks_the_snapshot_gradient():
    # At T = 64, B = 32, d = 256 and d_h = 32, the gate gradients take
    # 2.1 MB and the snapshot gradient 4.2 MB; the stacked (T, 4, B, d)
    # product of the two would take 16.8 MB more.
    kept, g, grads = _integrated(64, 32, 256, 32)
    tracemalloc.start()
    try:
        integrate_backward(kept, g, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_every_primitive_is_covered_by_fd_sweep():
    covered = {name.replace("-broadcast", "").split("/")[0] for name in _fd_builders()}
    assert set(oracles._BACKWARD) <= covered


def test_every_primitive_is_on_a_loss_tape():
    # The ops backward visits on the tape losses of every backbone,
    # integrator and cascade setting are exactly the model's rules,
    # `oracles.MODEL_RULES`: a rule the model's tape form no longer uses
    # fails here.
    cohort, _ = simulate_cohort(10, seed=0)
    found = set()
    for backbone, integrator, cascade in itertools.product(BACKBONES, ("lstm", "mean"),
                                                           (True, False)):
        config = ModelConfig(backbone=backbone, integrator=integrator, cascade=cascade,
                             hidden_dim=4, time_dim=2, summary_dim=4, context_dim=2,
                             horizon=2, num_bins=3, message_dim=4, attention_dim=2)
        model = init_model(config, feature_widths(cohort), np.random.default_rng(0))
        loss, _ = oracles.tape_mean_loss(model, cohort, config.bins(), LossWeights())
        found |= {node.op for node in oracles._topo_order(loss) if node.op is not None}
    assert found == oracles.MODEL_RULES


def test_backward_frees_each_ctx_before_the_next_rule(monkeypatch):
    # A node whose rule is the last reader of its 8 MiB ctx sits above a node
    # whose rule allocates 8 MiB. Keeping every ctx until backward returns
    # peaks at 16 MiB; releasing each once its rule has run, at 8 MiB.
    size = 1 << 20
    monkeypatch.setitem(oracles._BACKWARD, "cached", lambda node, g: (g,))
    monkeypatch.setitem(oracles._BACKWARD, "scratch", lambda node, g: (g * np.ones(size)[:1],))
    x = oracles.parameter(np.ones((1, 1)))
    tracemalloc.start()
    try:
        scratch = oracles.Tensor._node(x.data.copy(), "scratch", (x,))
        cached = oracles.Tensor._node(scratch.data.copy(), "cached", (scratch,), ctx=np.ones(size))
        grads = oracles.backward(oracles.sum_all(cached), params=[x])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads[x].data[0, 0] == 1.0
    assert peak < 1.5 * 8 * size


def test_lstm_cache_is_released_before_the_evolve_rule_runs(monkeypatch):
    # `FullModel.backward` drops what `integrate` kept before the evolution's
    # backward runs, so the LSTM's gates are freed by then.
    cohort, _ = simulate_cohort(10, seed=0)
    config = ModelConfig(hidden_dim=4, time_dim=2, summary_dim=4, context_dim=2, horizon=3,
                         num_bins=3, message_dim=4)
    model = init_model(config, feature_widths(cohort), np.random.default_rng(0))
    logits = model.forward(cohort, keep=True)
    gates = weakref.ref(model.workspace["kept"]["lstm"][2])
    released, evolve_backward = [], model_module.evolve_backward

    def spy(*args):
        released.append(gates() is None)
        return evolve_backward(*args)

    monkeypatch.setattr(model_module, "evolve_backward", spy)
    model.backward({task: np.ones_like(x) for task, x in logits.items()})
    assert released == [True]


def test_second_backward_over_a_consumed_tape_raises():
    x = oracles.parameter(np.array([[0.5, -1.0]]))
    hidden = oracles.tanh(x)
    loss = oracles.sum_all(oracles.mul(hidden, hidden))
    first = oracles.backward(loss, params=[x])[x].data
    with pytest.raises(RuntimeError, match="already backpropagated"):
        oracles.backward(loss, params=[x])
    # A new output over the consumed part of the tape is refused as well.
    with pytest.raises(RuntimeError, match="already backpropagated"):
        oracles.backward(oracles.sum_all(hidden), params=[x])
    fresh = oracles.sum_all(oracles.mul(oracles.tanh(x), oracles.tanh(x)))
    assert np.array_equal(oracles.backward(fresh, params=[x])[x].data, first)


class TestGradCheck:
    """`autodiff.grad_check` on plain arrays and hand-written gradients."""

    def test_quadratic_is_exact_to_roundoff(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        err = ad.grad_check(lambda: (x * x).sum(), {"x": 2.0 * x}, {"x": x})
        assert err <= 1e-6
        # A wrong gradient is seen.
        assert ad.grad_check(lambda: (x * x).sum(), {"x": 3.0 * x}, {"x": x}) > 0.4

    def test_unreachable_parameter_contributes_zero_error(self):
        x, unused = np.array([[1.5]]), np.array([[9.0]])
        err = ad.grad_check(lambda: (x * x).sum(), {"x": 2.0 * x, "unused": np.zeros((1, 1))},
                            {"x": x, "unused": unused})
        assert err <= 1e-6

    def test_leaves_are_restored_after_check(self):
        x = np.array([[1.0, 2.0]])
        before = x.copy()
        ad.grad_check(lambda: np.tanh(x).sum(), {"x": 1.0 - np.tanh(x) ** 2}, {"x": x})
        assert np.array_equal(x, before)

    def test_rejects_nonpositive_step(self):
        x = np.array([[1.0]])
        with pytest.raises(ValueError):
            ad.grad_check(lambda: x.sum(), {"x": np.ones((1, 1))}, {"x": x}, step=0.0)

    def test_named_mapping_accepted(self):
        # The names label the parameters, in a non-finite value's report too.
        x = np.array([[2.0]])
        assert ad.grad_check(lambda: (x * x).sum(), {"x": 2.0 * x}, {"x": x}) <= 1e-6
        with np.errstate(invalid="ignore"), pytest.raises(ad.NonFiniteError,
                                                          match=r"weight\(0, 0\)"):
            ad.grad_check(lambda: np.log(x - 2.0).sum(), {"weight": x}, {"weight": x})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.integers(0, 2 ** 31 - 1))
def test_blocks_apply_matches_dense_product(count, r, c, m, seed):
    # Random blocks with some zero entries, and their transpose, applied
    # against their block diagonal.
    rng = np.random.default_rng(seed)
    blocks = rng.normal(size=(count, r, c)) * (rng.random(size=(count, r, c)) < 0.7)
    dense = np.zeros((count * r, count * c))
    for b in range(count):
        dense[b * r:(b + 1) * r, b * c:(b + 1) * c] = blocks[b]
    x = rng.normal(size=(count * c, m))
    np.testing.assert_allclose(Blocks(blocks).apply(x), dense @ x, rtol=0, atol=1e-12)
    g = rng.normal(size=(count * r, m))
    np.testing.assert_allclose(Blocks(blocks).T.apply(g), dense.T @ g, rtol=0, atol=1e-12)


def test_no_grad_keeps_no_tape_and_restores_leaves():
    w = oracles.parameter([[1.0, 2.0]])
    taped = oracles.tanh(oracles.mul(w, w))
    with oracles.no_grad([w]):
        free = oracles.tanh(oracles.mul(w, w))
    assert not free.requires_grad and free.parents == ()
    assert np.array_equal(free.data, taped.data)
    assert w.requires_grad
    grads = oracles.backward(oracles.sum_all(oracles.mul(w, w)), params=[w])
    assert np.array_equal(grads[w].data, [[2.0, 4.0]])


def test_spmm_shape_and_index_errors():
    s = Blocks(np.ones((2, 1, 1)))
    assert s.shape == (2, 2)
    with pytest.raises(oracles.ShapeMismatchError, match="spmm"):
        oracles.spmm(s, oracles.constant(np.ones((3, 1))))
    with pytest.raises(oracles.ShapeMismatchError):
        Blocks(np.ones((2, 2)))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_concat_slice_inverse_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(rows, cols)), rng.normal(size=(rows, cols))
    cat = oracles.concat_cols(oracles.constant(a), oracles.constant(b))
    assert np.array_equal(cat.data[:, :cols], a)
    assert np.array_equal(cat.data[:, cols:], b)


def test_blocks_transpose_is_the_transposed_stack_built_once():
    t = BLOCKS.T
    assert t is BLOCKS.T
    assert t.shape == (3, 6)
    assert np.array_equal(t.blocks, BLOCKS.blocks.transpose(0, 2, 1))


def test_blocks_with_a_transpose_are_freed_without_the_cycle_collector():
    # A reference cycle would keep every batch's blocks alive until a full
    # collection, raising peak memory.
    import gc
    import weakref
    blocks = Blocks(np.ones((2, 3, 4)))
    assert blocks.T.shape == (8, 6)
    ref = weakref.ref(blocks)
    gc.disable()
    try:
        del blocks
        assert ref() is None
    finally:
        gc.enable()
