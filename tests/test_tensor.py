"""Numeric kernel: forward values against independent oracles, taped
gradients against central finite differences."""

import tracemalloc

import numpy as np
import pytest

import fagcn.tensor as T
from fagcn.errors import ConfigError, ShapeError
from fagcn.tensor import Tape, Tensor

from conftest import grad_check, numeric_gradient, sum_all


def loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple-loop product, the oracle for matmul."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestTensor:
    @pytest.mark.parametrize("data", [1.5, [1.0, 2.0], np.zeros(0), np.zeros((2, 2, 1))],
                             ids=["0-D", "1-D", "empty-1-D", "3-D"])
    def test_data_that_is_not_2d_is_a_shape_error(self, data):
        with pytest.raises(ShapeError, match="2-D"):
            Tensor(data)
        with pytest.raises(ShapeError, match="2-D"):
            T.constant(data)


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

            assert grad_check(lambda: sum_all(T.matmul(a, b)), [("a", a), ("b", b)],
                              eps=1e-6) < 1e-6


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
            return sum_all(fn(x)).item()

        with Tape() as tape:
            tape.backward(sum_all(fn(x)))
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
            return sum_all(T.mul(T.constant(w), T.rowwise_softmax(x))).item()

        with Tape() as tape:
            tape.backward(sum_all(T.mul(T.constant(w), T.rowwise_softmax(x))))
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
            tape.backward(sum_all(out))
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
            tape.backward(sum_all(out))
        counts = np.array([1.0, 0.0, 2.0, 0.0, 1.0])
        np.testing.assert_array_equal(x.grad, counts[:, None] * np.ones((5, 3)))

    def test_take_rows_adds_to_an_existing_gradient(self, rng):
        x = Tensor(rng.standard_normal((4, 2)))
        with Tape() as tape:
            tape.backward(sum_all(T.mul(T.take_rows(x, [3, 3, 0]), T.take_rows(x, [1, 3, 2]))))
        expected = np.zeros((4, 2))
        np.add.at(expected, [3, 3, 0], x.data[[1, 3, 2]])
        np.add.at(expected, [1, 3, 2], x.data[[3, 3, 0]])
        np.testing.assert_allclose(x.grad, expected, rtol=1e-15)

    def test_transpose_backward(self, rng):
        x = Tensor(rng.standard_normal((2, 5)))
        w = rng.standard_normal((5, 2))
        with Tape() as tape:
            tape.backward(sum_all(T.mul(T.constant(w), T.transpose(x))))
        np.testing.assert_array_equal(x.grad, w.T)

    @pytest.mark.parametrize("op", [T.mul])
    @pytest.mark.parametrize("other", [(1, 3), (4, 1), (1, 1), (3, 4)])
    def test_elementwise_shapes_must_match(self, rng, op, other):
        with pytest.raises(ShapeError):
            op(Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal(other)))
        with pytest.raises(ShapeError):
            op(Tensor(rng.standard_normal(other)), Tensor(rng.standard_normal((4, 3))))


def check_gradients(objective, inputs: list[Tensor]) -> None:
    """Taped gradients of sum(probe * objective()) against central differences."""
    probe = np.random.default_rng(7).standard_normal(objective().shape)
    for x in inputs:
        x.zero_grad()
    with Tape() as tape:
        tape.backward(sum_all(T.mul(T.constant(probe), objective())))
    for k, x in enumerate(inputs):
        expected = numeric_gradient(lambda: float((probe * objective().data).sum()), x.data)
        np.testing.assert_allclose(x.grad, expected, atol=1e-7, err_msg=f"input {k}")


# ragged segments with length-1 segments among them
STARTS = [0, 1, 4, 5, 7]


class TestSegmentOps:
    def test_segment_softmax_matches_per_segment_softmax(self, rng):
        x = rng.standard_normal((9, 1)) * 4
        out = T.segment_softmax(Tensor(x), STARTS).data[:, 0]
        bounds = STARTS + [9]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            e = np.exp(x[lo:hi, 0])
            np.testing.assert_allclose(out[lo:hi], e / e.sum(), atol=1e-15)
        np.testing.assert_array_equal(out[[0, 4]], [1.0, 1.0])

    def test_segment_softmax_runs_per_column(self, rng):
        x = rng.standard_normal((9, 2))
        out = T.segment_softmax(Tensor(x), STARTS).data
        for j in range(2):
            np.testing.assert_array_equal(
                out[:, j], T.segment_softmax(Tensor(x[:, j:j + 1]), STARTS).data[:, 0])

    def test_segment_softmax_large_scores_no_overflow(self):
        out = T.segment_softmax(Tensor([[1000.0], [1000.0], [-1000.0]]), [0, 2])
        np.testing.assert_allclose(out.data[:, 0], [0.5, 0.5, 1.0], atol=1e-15)

    def test_gather_dot_matches_loop(self, rng):
        x, y = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        rows = [0, 2, 2, 1, 3, 3, 3, 0, 1]
        out = T.gather_dot(Tensor(x), rows, Tensor(y), STARTS).data
        bounds = STARTS + [9]
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            for t in range(lo, hi):
                expected = sum(x[rows[t], j] * y[k, j] for j in range(3))
                np.testing.assert_allclose(out[t, 0], expected, atol=1e-14)

    def test_gather_dot_blocks_match_one_whole_gather(self, rng):
        # 3.5 blocks of rows, so the last block is partial
        cols = 16
        n_rows = 7 * T.GATHER_BLOCK // (2 * cols)
        x, y = rng.standard_normal((50, cols)), rng.standard_normal((9, cols))
        rows, seg = rng.integers(0, 50, n_rows), np.arange(n_rows) * 9 // n_rows
        starts = np.searchsorted(seg, np.arange(9))
        out = T.gather_dot(Tensor(x), rows, Tensor(y), starts).data
        np.testing.assert_array_equal(out[:, 0], np.einsum("ij,ij->i", x[rows], y[seg]))

    def test_gather_dot_never_gathers_all_rows_at_once(self, rng):
        # the context-attention shape: 5,100 (pair, token) rows of width 80
        # in 100 center segments
        x, y = rng.standard_normal((300, 80)), rng.standard_normal((100, 80))
        rows, starts = rng.integers(0, 300, 5100), np.arange(0, 5100, 51)
        tracemalloc.start()
        try:
            T.gather_dot(Tensor(x), rows, Tensor(y), starts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x[rows].nbytes / 2

    def test_gather_dot_backward_never_gathers_all_rows_at_once(self, rng):
        # the feature gradient sums over rows sorted by target, in blocks;
        # a bincount scatter would hold a whole y[seg] gather and its flat index
        x, y = Tensor(rng.standard_normal((300, 80))), Tensor(rng.standard_normal((100, 80)))
        rows, starts = rng.integers(0, 300, 5100), np.arange(0, 5100, 51)
        with Tape() as tape:
            loss = sum_all(T.mul(T.constant(rng.standard_normal((5100, 1))),
                                   T.gather_dot(x, rows, y, starts)))
            tracemalloc.start()
            try:
                tape.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < x.data[rows].nbytes / 2

    def test_gather_segment_sum_never_gathers_all_rows_at_once(self, rng):
        w, x = rng.standard_normal((5100, 1)), rng.standard_normal((300, 80))
        rows, starts = rng.integers(0, 300, 5100), np.arange(0, 5100, 51)
        tracemalloc.start()
        try:
            T.gather_segment_sum(Tensor(w), Tensor(x), rows, starts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x[rows].nbytes / 2

    def test_gather_dot_feature_gradient_across_real_blocks(self, rng):
        # 3.5 blocks of entries in segments longer than one block, so both
        # operands' gradients sum some segments in pieces
        cols = 16
        n_rows = 7 * T.GATHER_BLOCK // (2 * cols)
        x, y, g = (rng.standard_normal(shape) for shape in ((50, cols), (3, cols), (n_rows, 1)))
        rows, starts = rng.integers(0, 45, n_rows), [0, n_rows // 3, 2 * n_rows // 3]
        xt, yt = Tensor(x), Tensor(y)
        with Tape() as tape:
            tape.backward(sum_all(T.mul(T.constant(g), T.gather_dot(xt, rows, yt, starts))))
        seg = np.repeat(np.arange(3), np.diff(starts, append=n_rows))
        expected = np.zeros_like(x)
        np.add.at(expected, rows, g * y[seg])
        np.testing.assert_allclose(xt.grad, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(xt.grad[45:], 0.0)
        np.testing.assert_allclose(yt.grad, np.add.reduceat(g * x[rows], starts),
                                   rtol=1e-12, atol=1e-12)

    def test_gather_segment_sum_matches_loop(self, rng):
        w, x = rng.standard_normal((9, 1)), rng.standard_normal((4, 3))
        rows = [0, 2, 2, 1, 3, 3, 3, 0, 1]
        out = T.gather_segment_sum(Tensor(w), Tensor(x), rows, STARTS).data
        bounds = STARTS + [9]
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            expected = sum(w[t, 0] * x[rows[t]] for t in range(lo, hi))
            np.testing.assert_allclose(out[k], expected, atol=1e-14)

    def test_backward_matches_finite_differences(self, rng):
        scores = Tensor(rng.standard_normal((9, 1)))
        check_gradients(lambda: T.segment_softmax(scores, STARTS), [scores])
        x, y = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((5, 3)))
        rows = [0, 2, 2, 1, 3, 3, 3, 0, 1]
        check_gradients(lambda: T.gather_dot(x, rows, y, STARTS), [x, y])
        w = Tensor(rng.standard_normal((9, 1)))
        check_gradients(lambda: T.gather_segment_sum(w, x, rows, STARTS), [w, x])

    def test_gather_dot_key_gradient_is_a_segment_sum(self, rng):
        # d sum(g * gather_dot(x, rows, y, starts)) / dy = gather_segment_sum(g, x, rows, starts)
        x, y, g = (rng.standard_normal(shape) for shape in ((4, 3), (5, 3), (9, 1)))
        rows = [0, 2, 2, 1, 3, 3, 3, 0, 1]
        key = Tensor(y)
        with Tape() as tape:
            tape.backward(sum_all(T.mul(T.constant(g), T.gather_dot(T.constant(x), rows,
                                                                       key, STARTS))))
        expected = T.gather_segment_sum(T.constant(g), T.constant(x), rows, STARTS).data
        np.testing.assert_array_equal(key.grad, expected)

    def test_gather_segment_sum_weight_gradient_is_a_gather_dot(self, rng):
        # d sum(dY * gather_segment_sum(w, x, rows, starts)) / dw = gather_dot(x, rows, dY, starts)
        w, x, dy = (rng.standard_normal(shape) for shape in ((9, 1), (4, 3), (5, 3)))
        rows = [0, 2, 2, 1, 3, 3, 3, 0, 1]
        weights = Tensor(w)
        with Tape() as tape:
            tape.backward(sum_all(T.mul(T.constant(dy), T.gather_segment_sum(
                weights, T.constant(x), rows, STARTS))))
        expected = T.gather_dot(T.constant(x), rows, T.constant(dy), STARTS).data
        np.testing.assert_array_equal(weights.grad, expected)

    def test_chained_backward_matches_finite_differences(self, rng):
        # the attention pattern: scores -> segment softmax -> weighted sum
        x = Tensor(rng.standard_normal((4, 3)))
        keys = Tensor(rng.standard_normal((5, 3)))
        rows = [0, 2, 2, 1, 3, 3, 3, 0, 1]

        def mixed():
            scores = T.gather_dot(x, rows, keys, STARTS)
            return T.gather_segment_sum(T.segment_softmax(scores, STARTS), x, rows, STARTS)

        check_gradients(mixed, [x, keys])

    def test_constant_weights_get_no_gradient(self, rng):
        w, x = T.constant(np.ones((3, 1))), Tensor(rng.standard_normal((2, 2)))
        with Tape() as tape:
            tape.backward(sum_all(T.gather_segment_sum(w, x, [1, 1, 0], [0, 2])))
        assert w.grad is None
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [2.0, 2.0]])

    @pytest.mark.parametrize("starts", [[], [1, 3], [0, 2, 2], [0, 3, 2], [0, 9], [[0, 2]]],
                             ids=["none", "not-from-zero", "empty-inner", "falling",
                                  "empty-last", "not-flat"])
    def test_bad_segments_are_shape_errors(self, rng, starts):
        with pytest.raises(ShapeError):
            T.segment_softmax(Tensor(rng.standard_normal((9, 1))), starts)
        with pytest.raises(ShapeError):
            T.gather_segment_sum(Tensor(np.ones((9, 1))), Tensor(np.ones((2, 2))),
                                 [0] * 9, starts)

    @pytest.mark.parametrize("indices", [[0.5, 1.9], [True, False], np.array([0.0, 1.0])],
                             ids=["fractional", "bool", "integral-floats"])
    def test_indices_must_be_integers(self, rng, indices):
        # a cast would gather rows 0 and 1 for [0.5, 1.9], and 1 and 0 for
        # [True, False]
        x, w = Tensor(rng.standard_normal((3, 2))), Tensor(np.ones((2, 1)))
        with pytest.raises(ShapeError, match="integers"):
            T.take_rows(x, indices)
        with pytest.raises(ShapeError, match="integers"):
            T.gather_dot(x, indices, Tensor(np.ones((1, 2))), [0])
        with pytest.raises(ShapeError, match="integers"):
            T.gather_segment_sum(w, x, indices, [0])

    @pytest.mark.parametrize("starts", [[0.0, 1.7], [0.0, 1.0], [False, True]],
                             ids=["fractional", "integral-floats", "bool"])
    def test_segment_starts_must_be_integers(self, rng, starts):
        # a cast would run [0.0, 1.7] as [0, 1]
        with pytest.raises(ShapeError, match="integers"):
            T.gather_segment_sum(Tensor(np.ones((2, 1))), Tensor(np.ones((3, 2))), [0, 1], starts)
        with pytest.raises(ShapeError, match="integers"):
            T.segment_softmax(Tensor(np.ones((2, 1))), starts)

    def test_empty_and_unsigned_indices_are_accepted(self, rng):
        x = Tensor(rng.standard_normal((3, 2)))
        assert T.take_rows(x, []).shape == (0, 2)
        np.testing.assert_array_equal(T.take_rows(x, np.array([2, 0], dtype=np.uint8)).data,
                                      x.data[[2, 0]])

    def test_misaligned_operands_are_shape_errors(self, rng):
        x = Tensor(rng.standard_normal((3, 2)))
        with pytest.raises(ShapeError):
            T.gather_segment_sum(Tensor(np.ones((2, 1))), x, [0, 1, 2], [0])
        with pytest.raises(ShapeError):
            T.gather_segment_sum(Tensor(np.ones((1, 3))), x, [0, 1, 2], [0])
        with pytest.raises(ShapeError):
            T.gather_segment_sum(Tensor(np.ones((2, 1))), x, [0, 3], [0])
        with pytest.raises(ShapeError):
            T.gather_dot(x, [0, 1, 2], x, [0])
        with pytest.raises(ShapeError):
            T.gather_dot(x, [0], Tensor(np.ones((1, 3))), [0])
        with pytest.raises(ShapeError):
            T.gather_dot(x, [-1], Tensor(np.ones((1, 2))), [0])
        with pytest.raises(ShapeError):
            T.gather_dot(x, [0, 1], Tensor(np.ones((1, 2))), [0, 1])


class TestTape:
    def test_constants_accumulate_no_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 2)))
        c = T.constant(rng.standard_normal((2, 2)))
        with Tape() as tape:
            tape.backward(sum_all(T.mul(x, c)))
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, c.data)

    def test_gradients_accumulate_across_backwards_until_zeroed(self, rng):
        x = Tensor(rng.standard_normal((2, 2)))

        def once():
            with Tape() as tape:
                tape.backward(sum_all(x))

        once()
        first = x.grad.copy()
        once()
        np.testing.assert_array_equal(x.grad, 2 * first)
        x.zero_grad()
        once()
        np.testing.assert_array_equal(x.grad, first)

    def test_no_tape_means_no_recording(self, rng):
        x = Tensor(rng.standard_normal((2, 2)))
        sum_all(T.mul(x, x))
        assert x.grad is None

    def test_same_seed_gives_bit_identical_gradients(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.standard_normal((3, 3)))
            with Tape() as tape:
                out = sum_all(T.dropout(T.tanh(x), 0.3, rng, training=True))
                tape.backward(out)
            return x.grad

        a = run(99)
        b = run(99)
        assert np.array_equal(a, b)


# every taped op, applied to (4 x 3) inputs a, b and a (1 x 3) row; the
# "_self" entries pass one tensor as two inputs
OPS = {
    "matmul": lambda a, b, row: T.matmul(a, T.transpose(b)),
    "mul": lambda a, b, row: T.mul(a, b),
    "mul_self": lambda a, b, row: T.mul(a, a),
    "tanh": lambda a, b, row: T.tanh(a),
    "relu": lambda a, b, row: T.relu(a),
    "rowwise_softmax": lambda a, b, row: T.rowwise_softmax(a),
    "dropout": lambda a, b, row: T.dropout(a, 0.5, np.random.default_rng(3), training=True),
    "transpose": lambda a, b, row: T.transpose(a),
    "take_rows": lambda a, b, row: T.take_rows(a, [3, 0, 3]),
    "sum_all": lambda a, b, row: sum_all(a),
    "segment_softmax": lambda a, b, row: T.segment_softmax(a, [0, 1]),
    "gather_dot": lambda a, b, row: T.gather_dot(a, [0, 2, 2, 1, 3], b, [0, 1, 3, 4]),
    "gather_dot_self": lambda a, b, row: T.gather_dot(a, [0, 2, 2, 1, 3], a, [0, 1, 3, 4]),
    "gather_segment_sum": lambda a, b, row: T.gather_segment_sum(
        T.transpose(row), a, [3, 0, 3], [0, 2]),
}


class TestOpContract:
    @pytest.mark.parametrize("name", OPS)
    def test_gradients_share_no_memory(self, rng, name):
        a, b = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((4, 3)))
        row = Tensor(rng.standard_normal((1, 3)))
        with Tape() as tape:
            out = OPS[name](a, b, row)
            probe = T.constant(rng.standard_normal(out.shape))
            tape.backward(sum_all(T.mul(probe, out)))
        tensors = [t for t in (a, b, row, out) if t.grad is not None]
        assert len(tensors) >= 2
        for t in tensors:
            before = [u.grad.copy() for u in tensors]
            t.grad += 1.0
            for u, grad in zip(tensors, before):
                if u is not t:
                    np.testing.assert_array_equal(u.grad, grad)

    def test_constant_inputs_get_no_gradient_call(self, rng):
        def never(g):
            raise AssertionError("gradient function of a constant was called")

        x = Tensor(rng.standard_normal((2, 3)))
        c = T.constant(rng.standard_normal((2, 3)))
        with Tape() as tape:
            out = T._op(x.data + c.data, (x, c), (lambda g: g.copy(), never))
            assert T._op(c.data, (c,), (never,)).requires_grad is False
            assert len(tape) == 1
            tape.backward(sum_all(out))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))
        assert c.grad is None

    def test_unused_outputs_get_no_gradient_call(self, rng):
        def never(g):
            raise AssertionError("gradient function of an unused output was called")

        x = Tensor(rng.standard_normal((2, 3)))
        with Tape() as tape:
            unused = T._op(2.0 * x.data, (x,), (never,))
            tape.backward(sum_all(x))
        assert unused.grad is None
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))
