"""Numeric kernel: forward values against independent oracles, taped
gradients against central finite differences."""

import numpy as np
import pytest

import fagcn.tensor as T
from fagcn.errors import ConfigError, NumericError, ShapeError
from fagcn.tensor import Tape, Tensor

from conftest import numeric_gradient


def loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple-loop product, the oracle for matmul."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestMatmul:
    def test_identity(self):
        z = T.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(z.data, [[3.0], [4.0]])

    def test_hand_product(self):
        z = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(z.data, [[11.0]])

    def test_matches_loop_oracle(self, rng):
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        z = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(z.data, loop_matmul(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_backward_matches_finite_differences(self, rng):
        for _ in range(10):
            m, k, n = rng.integers(1, 9, size=3)
            a = Tensor(rng.standard_normal((m, k)))
            b = Tensor(rng.standard_normal((k, n)))

            def run():
                return float(T.sum_all(T.matmul(a, b)).item())

            a.zero_grad()
            b.zero_grad()
            with Tape() as tape:
                out = T.sum_all(T.matmul(a, b))
                tape.backward(out)
            for t in (a, b):
                expected = numeric_gradient(run, t.data)
                denom = np.maximum(np.abs(expected), 1.0)
                assert np.max(np.abs(t.grad - expected) / denom) < 1e-6


class TestActivations:
    def test_tanh_at_zero(self):
        assert T.tanh(Tensor([[0.0]])).item() == 0.0

    def test_relu_clips_negatives(self):
        out = T.relu(Tensor([[-2.0, 3.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 3.0]])

    @pytest.mark.parametrize("kind", ["tanh", "relu"])
    def test_backward_matches_finite_differences(self, kind, rng):
        fn = getattr(T, kind)
        x = Tensor(rng.standard_normal((3, 4)) + 0.1)  # keep away from relu kink

        def run():
            return T.sum_all(fn(x)).item()

        with Tape() as tape:
            tape.backward(T.sum_all(fn(x)))
        expected = numeric_gradient(run, x.data)
        np.testing.assert_allclose(x.grad, expected, atol=1e-7)


class TestRowwiseSoftmax:
    def test_uniform_input(self):
        out = T.rowwise_softmax(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_large_inputs_no_overflow(self):
        out = T.rowwise_softmax(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_array_equal(out.data, [[0.5, 0.5]])

    def test_log_ratio_closed_form(self):
        out = T.rowwise_softmax(Tensor([[np.log(1.0), np.log(2.0), np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        out = T.rowwise_softmax(Tensor(rng.standard_normal((6, 5)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((4, 5))
        a = T.rowwise_softmax(Tensor(x)).data
        b = T.rowwise_softmax(Tensor(x + 17.5)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_backward_matches_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        w = rng.standard_normal((3, 4))  # weigh entries so the grad is non-trivial

        def run():
            return T.sum_all(T.mul(T.constant(w), T.rowwise_softmax(x))).item()

        with Tape() as tape:
            tape.backward(T.sum_all(T.mul(T.constant(w), T.rowwise_softmax(x))))
        expected = numeric_gradient(run, x.data)
        np.testing.assert_allclose(x.grad, expected, atol=1e-8)


class TestDropout:
    def test_p_zero_is_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 4)))
        out = T.dropout(x, 0.0, rng, training=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 4)))
        out = T.dropout(x, 0.3, rng, training=False)
        assert out is x

    def test_survivor_fraction_and_scaling(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones((100, 100)))
        out = T.dropout(x, 0.5, rng, training=True)
        survivors = out.data[out.data != 0.0]
        assert abs(survivors.size / 10_000 - 0.5) < 0.02
        np.testing.assert_array_equal(survivors, 2.0)

    def test_invalid_probability(self, rng):
        with pytest.raises(ConfigError):
            T.dropout(Tensor([[1.0]]), 1.0, rng, training=True)
        with pytest.raises(ConfigError):
            T.dropout(Tensor([[1.0]]), -0.1, rng, training=True)

    def test_backward_scales_like_forward(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones((10, 10)))
        with Tape() as tape:
            out = T.dropout(x, 0.25, rng, training=True)
            tape.backward(T.sum_all(out))
        # gradient is the same mask/scale the forward applied
        np.testing.assert_array_equal((x.grad != 0), (out.data != 0))
        np.testing.assert_allclose(x.grad[x.grad != 0], 1 / 0.75)


class TestStructuralOps:
    def test_take_rows_gathers_and_scatters(self, rng):
        x = Tensor(rng.standard_normal((5, 3)))
        idx = [0, 2, 2, 4]
        with Tape() as tape:
            out = T.take_rows(x, idx)
            np.testing.assert_array_equal(out.data, x.data[idx])
            tape.backward(T.sum_all(out))
        counts = np.array([1.0, 0.0, 2.0, 0.0, 1.0])
        np.testing.assert_array_equal(x.grad, counts[:, None] * np.ones((5, 3)))

    def test_stack_rows_routes_gradients(self, rng):
        parts = [Tensor(rng.standard_normal((1, 3))) for _ in range(4)]
        weights = rng.standard_normal((4, 3))
        with Tape() as tape:
            stacked = T.stack_rows(parts)
            tape.backward(T.sum_all(T.mul(T.constant(weights), stacked)))
        for k, p in enumerate(parts):
            np.testing.assert_array_equal(p.grad, weights[k:k + 1])

    def test_transpose_backward(self, rng):
        x = Tensor(rng.standard_normal((2, 5)))
        w = rng.standard_normal((5, 2))
        with Tape() as tape:
            tape.backward(T.sum_all(T.mul(T.constant(w), T.transpose(x))))
        np.testing.assert_array_equal(x.grad, w.T)

    def test_sum_rows(self, rng):
        x = Tensor(rng.standard_normal((4, 3)))
        out = T.sum_rows(x)
        np.testing.assert_allclose(out.data, x.data.sum(axis=0, keepdims=True), atol=1e-15)

    def test_broadcast_add_bias(self, rng):
        x = Tensor(rng.standard_normal((4, 3)))
        bias = Tensor(rng.standard_normal((1, 3)))
        with Tape() as tape:
            tape.backward(T.sum_all(T.add(x, bias)))
        np.testing.assert_array_equal(bias.grad, np.full((1, 3), 4.0))
        np.testing.assert_array_equal(x.grad, np.ones((4, 3)))


class TestTape:
    def test_constants_accumulate_no_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 2)))
        c = T.constant(rng.standard_normal((2, 2)))
        with Tape() as tape:
            tape.backward(T.sum_all(T.mul(x, c)))
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, c.data)

    def test_gradients_accumulate_across_backwards_until_zeroed(self, rng):
        x = Tensor(rng.standard_normal((2, 2)))

        def once():
            with Tape() as tape:
                tape.backward(T.sum_all(x))

        once()
        first = x.grad.copy()
        once()
        np.testing.assert_array_equal(x.grad, 2 * first)
        x.zero_grad()
        once()
        np.testing.assert_array_equal(x.grad, first)

    def test_no_tape_means_no_recording(self, rng):
        x = Tensor(rng.standard_normal((2, 2)))
        T.sum_all(T.mul(x, x))
        assert x.grad is None

    def test_same_seed_gives_bit_identical_gradients(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.standard_normal((3, 3)))
            with Tape() as tape:
                out = T.sum_all(T.dropout(T.tanh(x), 0.3, rng, training=True))
                tape.backward(out)
            return x.grad

        a = run(99)
        b = run(99)
        assert np.array_equal(a, b)


class TestGradCheck:
    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
    def test_linear_function(self, eps):
        params = [("theta", Tensor(0.1 * np.arange(6.0).reshape(2, 3)))]

        def loss_fn():
            return T.sum_all(params[0][1])

        err = T.grad_check(loss_fn, params, eps=eps)
        assert err < 1e-10

    def test_quadratic_function(self, rng):
        theta = Tensor(rng.standard_normal((3, 3)))

        def loss_fn():
            return T.scale(T.frobenius_sq(theta), 0.5)

        err = T.grad_check(loss_fn, [("theta", theta)], eps=1e-5)
        assert err < 1e-8
        # analytic gradient of 0.5*||theta||^2 is theta itself
        with Tape() as tape:
            tape.backward(loss_fn())
        np.testing.assert_allclose(theta.grad, theta.data, atol=1e-12)

    def test_non_finite_loss_raises(self):
        bad = Tensor([[np.inf]])

        def loss_fn():
            return T.sum_all(bad)

        with pytest.raises(NumericError):
            T.grad_check(loss_fn, [("bad", bad)], eps=1e-5)

    def test_invalid_eps(self):
        with pytest.raises(ConfigError):
            T.grad_check(lambda: Tensor([[0.0]]), [], eps=0.0)
