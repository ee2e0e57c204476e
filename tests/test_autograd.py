"""Unit and property tests for the reverse-mode tape."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styleswap import autograd as ag


def small_arrays(min_dims=1, max_dims=2, max_side=8, lo=-2.0, hi=2.0):
    return st.lists(
        st.floats(min_value=lo, max_value=hi, allow_nan=False),
        min_size=1,
        max_size=max_side,
    ).map(lambda v: np.asarray(v, dtype=np.float64))


class TestMatmul:
    def test_identity(self):
        eye = ag.Tensor(np.eye(2))
        m = ag.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ag.matmul(eye, m).data, m.data)

    def test_hand_product(self):
        a = ag.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ag.Tensor([[5.0], [6.0]])
        assert np.array_equal(ag.matmul(a, b).data, [[17.0], [39.0]])

    def test_inner_dim_mismatch_names_both_shapes(self):
        a = ag.Tensor(np.zeros((4, 2)))
        b = ag.Tensor(np.zeros((3, 5)))
        with pytest.raises(ag.DimensionError, match=r"\(4, 2\).*\(3, 5\)"):
            ag.matmul(a, b)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(3, 4, 5))
        out = ag.matmul(ag.Tensor(a), ag.Tensor(b)).data
        for i in range(3):
            assert np.allclose(out[i], a[i] @ b[i])

    def test_batch_dim_mismatch(self):
        with pytest.raises(ag.DimensionError):
            ag.matmul(ag.Tensor(np.zeros((2, 3, 4))), ag.Tensor(np.zeros((5, 4, 2))))


class TestLayerNorm:
    def test_constant_vector_normalizes_to_zero(self):
        z = ag.Tensor([[4.0, 4.0, 4.0]])
        out = ag.layer_norm(z, ag.Tensor([1.0, 1.0, 1.0]), ag.Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 0.0)

    def test_two_point_vector(self):
        out = ag.layer_norm(
            ag.Tensor([1.0, 3.0]), ag.Tensor([1.0, 1.0]), ag.Tensor([0.0, 0.0]), eps=1e-12
        )
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_zero_gain_gives_bias(self):
        z = ag.Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        out = ag.layer_norm(z, ag.Tensor(np.zeros(3)), ag.Tensor(np.full(3, 2.5)))
        assert np.allclose(out.data, 2.5)

    def test_feature_dim_mismatch(self):
        with pytest.raises(ag.DimensionError):
            ag.layer_norm(ag.Tensor(np.zeros((2, 4))), ag.Tensor(np.ones(3)), ag.Tensor(np.zeros(3)))

    def test_mean_zero_var_one_before_affine(self):
        rng = np.random.default_rng(7)
        z = ag.Tensor(rng.normal(size=(5, 16)) * 3 + 1)
        out = ag.layer_norm(z, ag.Tensor(np.ones(16)), ag.Tensor(np.zeros(16)), eps=1e-12)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-6)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(ag.softmax(ag.Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_hand_value(self):
        out = ag.softmax(ag.Tensor([math.log(2.0), 0.0]))
        assert np.allclose(out.data, [2 / 3, 1 / 3])

    def test_large_inputs_stable(self):
        out = ag.softmax(ag.Tensor([1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_invalid_axis(self):
        with pytest.raises(ag.DimensionError):
            ag.softmax(ag.Tensor([1.0, 2.0]), axis=3)

    @given(small_arrays(), st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, row, shift):
        base = ag.softmax(ag.Tensor(row)).data
        shifted = ag.softmax(ag.Tensor(row + shift)).data
        assert abs(base.sum() - 1.0) < 1e-6
        assert np.allclose(base, shifted, atol=1e-9)


class TestCrossEntropy:
    def test_uniform_logits(self):
        v = 7
        loss = ag.cross_entropy(ag.Tensor(np.zeros((3, v))), np.array([0, 3, 6]), ignore_id=-1)
        assert np.allclose(loss.data, math.log(v))

    def test_hand_value(self):
        loss = ag.cross_entropy(ag.Tensor([[math.log(3.0), 0.0]]), np.array([0]), ignore_id=-1)
        assert np.allclose(loss.data, math.log(4 / 3))

    def test_all_ignored_is_error(self):
        with pytest.raises(ValueError, match="empty loss"):
            ag.cross_entropy(ag.Tensor(np.zeros((2, 3))), np.array([9, 9]), ignore_id=9)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            ag.cross_entropy(ag.Tensor(np.zeros((1, 3))), np.array([5]), ignore_id=-1)

    def test_ignored_positions_do_not_contribute(self):
        logits = np.array([[0.0, 2.0], [5.0, -1.0]])
        full = ag.cross_entropy(ag.Tensor(logits), np.array([1, 0]), ignore_id=-1)
        first = ag.cross_entropy(ag.Tensor(logits[:1]), np.array([1]), ignore_id=-1)
        masked = ag.cross_entropy(ag.Tensor(logits), np.array([1, 3]), ignore_id=3)
        assert np.allclose(masked.data, first.data)
        assert not np.allclose(masked.data, full.data)


class TestBackward:
    def test_sum_gives_ones(self):
        w = ag.Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        ag.backward(ag.tsum(w))
        assert np.array_equal(w.grad, np.ones((3, 4)))

    def test_square_at_three(self):
        w = ag.Tensor(3.0, requires_grad=True)
        ag.backward(ag.tsum(ag.mul(w, w)))
        assert np.allclose(w.grad, 6.0)

    def test_frozen_tensor_receives_no_grad(self):
        frozen = ag.Tensor([2.0], requires_grad=False)
        live = ag.Tensor([5.0], requires_grad=True)
        ag.backward(ag.tsum(ag.mul(frozen, live)))
        assert frozen.grad is None
        assert np.allclose(live.grad, 2.0)

    def test_non_scalar_loss_is_error(self):
        w = ag.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ag.backward(ag.mul(w, w))

    def test_grads_accumulate_across_calls(self):
        w = ag.Tensor(2.0, requires_grad=True)
        loss = ag.tsum(ag.mul(w, w))
        ag.backward(loss)
        ag.backward(loss)
        assert np.allclose(w.grad, 8.0)

    def test_repeat_with_cleared_grads_is_identical(self):
        rng = np.random.default_rng(3)
        w = ag.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        x = ag.Tensor(rng.normal(size=(4, 4)))
        loss = ag.cross_entropy(
            ag.matmul(x, ag.relu(w)), np.array([0, 1, 2, 3]), ignore_id=-1
        )
        ag.backward(loss)
        first = w.grad.copy()
        w.grad = None
        ag.backward(loss)
        assert np.array_equal(first, w.grad)

    def test_no_grad_builds_no_graph(self):
        w = ag.Tensor([1.0], requires_grad=True)
        with ag.no_grad():
            out = ag.mul(w, w)
        assert not out.requires_grad
        assert out._parents == ()


class TestDtype:
    def test_float32_and_float64_kept_other_input_widened(self):
        narrow = np.ones(3, dtype=np.float32)
        assert ag.Tensor(narrow).data is narrow
        assert ag.Tensor(np.ones(3)).data.dtype == np.float64
        assert ag.Tensor([1, 2]).data.dtype == np.float64
        assert ag.Tensor(np.ones(2, dtype=np.float16)).data.dtype == np.float64

    def test_ops_and_gradients_keep_float32(self):
        a = ag.Tensor(np.full((2, 3), 0.5, dtype=np.float32), requires_grad=True)
        b = ag.Tensor(np.full((3, 2), 2.0, dtype=np.float32), requires_grad=True)
        y = ag.tsum(ag.relu(ag.mul(ag.matmul(a, b), ag.Tensor(np.float32(3.0)))))
        ag.backward(y)
        assert y.data.dtype == a.grad.dtype == b.grad.dtype == np.float32


class TestGradCheck:
    def test_constant_function(self):
        err = ag.grad_check(lambda t: ag.tsum(ag.mul(t, ag.Tensor(0.0))), ag.Tensor([1.0, 2.0]))
        assert err == 0.0

    def test_quadratic(self):
        err = ag.grad_check(lambda t: ag.tsum(ag.mul(t, t)), ag.Tensor([3.0]), eps=1e-4)
        assert err < 1e-6

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            ag.grad_check(lambda t: ag.tsum(t), ag.Tensor([1.0]), eps=0.0)

    def test_float32_probe_is_refused(self):
        probe = ag.Tensor(np.array([3.0], dtype=np.float32))
        with pytest.raises(ValueError, match="^grad_check: w must be float64, got float32$"):
            ag.grad_check(lambda t: ag.tsum(ag.mul(t, t)), probe)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_op_pipelines(self, seed):
        """Random small tensors through each differentiable op stay under 1e-4,
        probed through matmul's left operand and through its right one."""
        rng = np.random.default_rng(seed)
        # feature dims >= 3: a 2-wide layer norm is degenerate (output is
        # +-gain for any input) and its ~0 gradients drown in FD roundoff
        m, k, n = rng.integers(1, 8), rng.integers(3, 8), rng.integers(3, 8)
        a = ag.Tensor(rng.uniform(-2, 2, size=(m, k)))
        b = ag.Tensor(rng.uniform(-2, 2, size=(k, n)))
        gain = ag.Tensor(rng.uniform(0.5, 1.5, size=n))
        bias = ag.Tensor(rng.uniform(-0.5, 0.5, size=n))
        targets = rng.integers(0, n, size=m)

        def f(left, right):
            y = ag.matmul(left, right)
            y = ag.layer_norm(y, gain, bias, eps=1e-5)
            # keep relu inputs away from the kink so finite differences apply
            y = ag.relu(ag.add(y, ag.Tensor(np.full((m, n), 3.0))))
            y = ag.add(y, ag.mul(y, ag.Tensor(0.5)))
            return ag.cross_entropy(y, targets, ignore_id=-1)

        assert ag.grad_check(lambda t: f(t, b), a, eps=1e-5) < 1e-4
        assert ag.grad_check(lambda t: f(a, t), b, eps=1e-5) < 1e-4

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_softmax_and_embedding_grads(self, seed):
        rng = np.random.default_rng(seed)
        v, h = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        ids = rng.integers(0, v, size=5)
        targets = rng.integers(0, h, size=5)

        def f(t):
            e = ag.embedding(t, ids)
            p = ag.softmax(e, axis=-1)
            return ag.cross_entropy(ag.mul(p, ag.Tensor(4.0)), targets, ignore_id=-1)

        w = ag.Tensor(rng.uniform(-2, 2, size=(v, h)))
        assert ag.grad_check(f, w, eps=1e-5) < 1e-4
