"""LSTM integrator: cell equations, the lstm primitive against its per-op
tape form, summary mean, and the mean ablation."""

from pathlib import Path

import numpy as np
import pytest

from trajsurv import autodiff as ad
from trajsurv.cohort import Scenario, simulate_cohort
from trajsurv.model import load_model
from trajsurv.trajectory import (init_lstm, integrate, integrate_backward, integrate_mean,
                                 integrate_mean_backward)

import oracles
from oracles import constant, leaves_of, lstm_step, tape_integrate


def summary(snapshots, steps, params):
    """h* of `integrate` alone, over the (T B x d) snapshots read as `steps` steps."""
    return integrate(snapshots.reshape(steps, -1, snapshots.shape[1]), params, {})[0]

DIM = 3


def zero_params(input_dim=DIM, hidden_dim=DIM):
    p = init_lstm(input_dim, hidden_dim, np.random.default_rng(0))
    for _, leaf in p.named_leaves():
        leaf[:] = 0.0
    return p


def numpy_lstm(z_seq, params):
    """Independent recomputation of the cell recurrence in plain numpy."""
    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    h = np.zeros((1, params.hidden_dim))
    c = np.zeros((1, params.hidden_dim))
    p = dict(params.named_leaves())
    hidden = []
    for z in z_seq:
        zh = np.hstack([z, h])
        i = sig(zh @ p["lstm.w_i"] + p["lstm.b_i"])
        f = sig(zh @ p["lstm.w_f"] + p["lstm.b_f"])
        g = np.tanh(zh @ p["lstm.w_g"] + p["lstm.b_g"])
        o = sig(zh @ p["lstm.w_o"] + p["lstm.b_o"])
        c = f * c + i * g
        h = o * np.tanh(c)
        hidden.append(h)
    return np.mean(hidden, axis=0)


class TestLstmStep:
    """The cell equations, on the per-op tape form the primitive is held to
    and, where a zero initial state allows, on `integrate` itself."""

    def test_zero_params_zero_cell(self):
        p = zero_params()
        # All gates sit at sigmoid(0)=0.5 and the candidate at tanh(0)=0.
        out = summary(np.ones((1, DIM)), 1, p)
        assert np.array_equal(out, np.zeros((1, DIM)))

    def test_zero_params_unit_cell_memory(self):
        p = zero_params()
        z = constant(np.zeros((1, DIM)))
        h = constant(np.zeros((1, DIM)))
        c = constant(np.ones((1, DIM)))
        h2, c2 = lstm_step(z, h, c, leaves_of(p))
        assert np.allclose(c2.data, 0.5)
        assert np.allclose(h2.data, 0.5 * np.tanh(0.5))
        assert np.allclose(h2.data, 0.2311, atol=5e-5)

    def test_saturated_forget_gate_preserves_cell(self):
        p = zero_params()
        leaves = dict(p.named_leaves())
        leaves["lstm.b_f"][:] = 100.0
        leaves["lstm.b_i"][:] = -100.0
        c0 = np.array([[0.3, -1.2, 2.0]])
        _, c2 = lstm_step(constant(np.zeros((1, DIM))),
                          constant(np.zeros((1, DIM))), constant(c0), leaves_of(p))
        assert np.allclose(c2.data, c0, atol=1e-12)

    def test_width_mismatch_rejected(self):
        p = init_lstm(DIM, DIM, np.random.default_rng(0))
        with pytest.raises(ad.ShapeMismatchError, match="lstm"):
            integrate(np.zeros((1, 1, DIM + 1)), p, {})

    def test_multi_row_step_matches_per_row(self):
        p = init_lstm(DIM, DIM, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        seq = [rng.normal(size=(4, DIM)) for _ in range(3)]
        out = summary(np.vstack(seq), 3, p)
        for r in range(4):
            row = summary(np.vstack([z[r:r + 1] for z in seq]), 3, p)
            np.testing.assert_allclose(out[r], row[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows,steps,bias,constant", [
    (1, 1, None, False), (1, 12, None, False), (64, 1, None, False),
    (64, 12, None, False), (64, 12, 100.0, False), (64, 12, None, True)],
    ids=["B1-T1", "B1-T12", "B64-T1", "B64-T12", "saturated", "constant"])
def test_lstm_primitive_matches_the_per_op_tape(rows, steps, bias, constant):
    # Loss sum(h* . W) and the gradients of the snapshots and every lstm.*
    # leaf, `integrate` and its backward as one tape node.
    rng = np.random.default_rng(5)
    p = init_lstm(32, 32, rng)
    if bias is not None:
        for name, leaf in p.named_leaves():
            if ".b_" in name:
                leaf[:] = bias * rng.choice([-1.0, 1.0], size=leaf.shape)
    first = rng.normal(size=(rows, 32))
    snaps = oracles.parameter(np.vstack([first if constant else rng.normal(size=(rows, 32))
                                         for _ in range(steps)]))
    weight = oracles.constant(rng.normal(size=(rows, 32)))
    p = leaves_of(p)
    leaves = [snaps] + [leaf for _, leaf in p.named_leaves()]
    loss, ref = (oracles.sum_all(oracles.mul(f(snaps, steps, p), weight))
                 for f in (oracles.lstm_node, tape_integrate))
    assert abs(loss.item() - ref.item()) <= 1e-12
    grads, ref_grads = oracles.backward(loss, leaves), oracles.backward(ref, leaves)
    for leaf in leaves:
        np.testing.assert_allclose(grads[leaf].data, ref_grads[leaf].data, rtol=0, atol=1e-12)


def test_lstm_rejects_ragged_snapshots():
    # Five rows of a (rows x d) matrix are no (T, B, d) trajectory.
    p = init_lstm(DIM, DIM, np.random.default_rng(0))
    with pytest.raises(ad.ShapeMismatchError, match="lstm"):
        integrate(np.zeros((5, DIM)), p, {})


def test_lstm_writes_its_state_into_the_workspace():
    # The gates, cells, hidden states and tanh(c) are views of the
    # workspace's buffers, and come back as what backward reads. A second
    # call into the same workspace gives the bits of a call on fresh arrays.
    p = init_lstm(DIM, DIM, np.random.default_rng(0))
    snaps = np.random.default_rng(1).normal(size=(4, 2, DIM))
    workspace = {}
    first, kept = integrate(snaps, p, workspace)
    assert sorted(workspace) == ["lstm.cells", "lstm.gates", "lstm.hidden", "lstm.tanh_c"]
    for name, array in zip(("lstm.gates", "lstm.cells", "lstm.hidden", "lstm.tanh_c"), kept[2:]):
        assert np.shares_memory(array, workspace[name]), name
    again, _ = integrate(snaps, p, workspace)
    fresh, _ = integrate(snaps, p, oracles.FreshArrays())
    assert np.array_equal(again, first) and np.array_equal(fresh, first)


class TestIntegrate:
    def snaps(self, arrays):
        return np.vstack(arrays), len(arrays)

    def test_zero_params_zero_summary(self):
        p = zero_params()
        rng = np.random.default_rng(3)
        out = summary(*self.snaps([rng.normal(size=(1, DIM)) for _ in range(5)]), p)
        assert np.array_equal(out, np.zeros((1, DIM)))

    def test_single_snapshot_equals_single_hidden_state(self):
        p = init_lstm(DIM, DIM, np.random.default_rng(4))
        z = np.random.default_rng(5).normal(size=(1, DIM))
        out = summary(*self.snaps([z]), p)
        h1, _ = lstm_step(constant(z), constant(np.zeros((1, DIM))),
                          constant(np.zeros((1, DIM))), leaves_of(p))
        assert np.allclose(out, h1.data)

    def test_matches_numpy_recurrence_oracle(self):
        p = init_lstm(DIM, 5, np.random.default_rng(6))
        z_const = np.random.default_rng(7).normal(size=(1, DIM))
        seq = [z_const.copy() for _ in range(8)]
        out = summary(*self.snaps(seq), p)
        assert np.allclose(out, numpy_lstm(seq, p), atol=1e-12)

    def test_varying_sequence_matches_oracle(self):
        p = init_lstm(DIM, 4, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        seq = [rng.normal(size=(1, DIM)) for _ in range(6)]
        out = summary(*self.snaps(seq), p)
        assert np.allclose(out, numpy_lstm(seq, p), atol=1e-12)

    def test_empty_sequence_rejected(self):
        p = init_lstm(DIM, DIM, np.random.default_rng(0))
        with pytest.raises(ValueError):
            integrate(np.zeros((0, 1, DIM)), p, {})

    def test_gradients_through_recurrence(self):
        p = init_lstm(DIM, DIM, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        seq = rng.normal(size=(3, DIM))
        _, kept = integrate(seq.reshape(3, 1, DIM), p, {})
        grads = ad.map_arrays(p, np.zeros_like)
        integrate_backward(kept, np.ones((1, DIM)), grads)
        assert ad.grad_check(lambda: summary(seq, 3, p).sum(), dict(grads.named_leaves()),
                             dict(p.named_leaves())) <= 1e-4


class TestIntegrateMean:
    def test_mean_of_snapshots(self):
        snaps = np.array([[[1.0, 2.0]], [[3.0, 6.0]]])
        assert np.allclose(integrate_mean(snaps), [[2.0, 4.0]])
        # Two steps of two rows: row r of the mean averages row r of each step.
        snaps = np.array([[[1.0, 2.0], [5.0, 0.0]], [[3.0, 6.0], [7.0, 2.0]]])
        assert np.allclose(integrate_mean(snaps), [[2.0, 4.0], [6.0, 1.0]])
        # Each snapshot row gets 1/T of its mean row's gradient.
        g = np.array([[1.0, -2.0], [4.0, 8.0]])
        assert np.array_equal(integrate_mean_backward(g, 2), np.stack([g, g]) * 0.5)

    def test_single_is_identity_value(self):
        z = np.array([[1.5, -2.0]])
        out = integrate_mean(z[None])
        assert np.array_equal(out, z)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            integrate_mean(np.zeros((0, 1, 2)))


def test_init_lstm_zero_biases_and_fan_in_bound():
    p = init_lstm(6, 4, np.random.default_rng(12))
    bound = 1.0 / np.sqrt(10)
    for name, leaf in p.named_leaves():
        if ".b_" in name:
            assert np.array_equal(leaf, np.zeros((1, 4)))
        else:
            assert leaf.shape == (10, 4)
            assert np.abs(leaf).max() <= bound
    assert p.input_dim == 6
    assert p.hidden_dim == 4


DATA = Path(__file__).resolve().parent / "data"


def test_a_model_file_written_before_the_stacked_gates_gives_its_curves():
    # tests/data/lstm_d4_t2_k4.npz was written by the eight-array LSTM layout:
    # graphsage, d 4, d_t 2, d_h 4, d_c 2, T 2, K 4, message 4, attention 2,
    # `init_model` on rng 11 with N(0, 0.5^2) draws of rng 12 added to every
    # parameter in `named_parameters` order; the curves file holds its
    # `predict_curves` on `simulate_cohort(10, seed=7)` with region_len 4 and
    # clinical_len 3. Forward, backward and training agree with each other
    # whichever gate slice a file name maps to; only an earlier file shows it.
    # Swapping two gates' names moves the curves by 0.04 to 0.09. The curves
    # were computed with OpenBLAS's SkylakeX kernels; its Haswell, Zen,
    # Sandybridge and Nehalem kernels move them by at most 1.1e-16. So they
    # are compared within 1e-12: far above the kernels, far below a swap.
    cohort, _ = simulate_cohort(10, seed=7, scenario=Scenario(region_len=4, clinical_len=3))
    curves = load_model(DATA / "lstm_d4_t2_k4.npz").predict_curves(cohort)
    with np.load(DATA / "lstm_d4_t2_k4_curves.npz") as want:
        assert sorted(want.files) == ["dfs.h", "dfs.s", "os.h", "os.s"]
        for task, (hazards, survival) in curves.items():
            np.testing.assert_allclose(hazards, want[f"{task}.h"], rtol=0, atol=1e-12,
                                       err_msg=task)
            np.testing.assert_allclose(survival, want[f"{task}.s"], rtol=0, atol=1e-12,
                                       err_msg=task)
