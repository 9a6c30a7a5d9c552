"""Recurrent encoder against a scalar hand-trace and an independent
step-by-step recurrence oracle."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import fagcn.lstm as lstm
import fagcn.tensor as T
import fagcn.training as training
from fagcn.corpus import split
from fagcn.datasets import two_cluster_fixture
from fagcn.errors import ShapeError
from fagcn.lstm import LstmDirectionParams, _run_direction, bilstm_encode
from fagcn.model import ModelParams
from fagcn.tensor import Tape, Tensor
from fagcn.training import ExperimentConfig, init_params, train
from fagcn.util import derive_rng

from conftest import grad_check, sum_all


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_recurrence(weights: dict[str, np.ndarray], seq: np.ndarray) -> list[np.ndarray]:
    """Independent plain-numpy recurrence over 1-D state vectors."""
    d = weights["w_forget"].shape[1]
    h = np.zeros(d)
    c = np.zeros(d)
    outputs = []
    for t in range(seq.shape[0]):
        x = np.concatenate([seq[t], h])
        f = sigmoid(x @ weights["w_forget"] + weights["b_forget"])
        i = sigmoid(x @ weights["w_input"] + weights["b_input"])
        g = np.tanh(x @ weights["w_cell"] + weights["b_cell"])
        o = sigmoid(x @ weights["w_output"] + weights["b_output"])
        c = f * c + i * g
        h = o * np.tanh(c)
        outputs.append(h.copy())
    return outputs


def random_params(embed_dim: int, feature_dim: int, rng) -> LstmDirectionParams:
    return LstmDirectionParams.init(embed_dim, feature_dim, rng)


GATES = ("forget", "input", "cell", "output")


def params_arrays(params: LstmDirectionParams) -> dict[str, np.ndarray]:
    """Each gate's weight block and bias, sliced out of the stacked layout."""
    d = params.feature_dim
    arrays = {}
    for k, gate in enumerate(GATES):
        arrays[f"w_{gate}"] = params.weight.data[:, k * d:(k + 1) * d]
        arrays[f"b_{gate}"] = params.bias.data[0, k * d:(k + 1) * d]
    return arrays


def forward_direction(params: LstmDirectionParams, seq: Tensor) -> np.ndarray:
    """One forward direction over all rows of ``seq`` as one sequence."""
    n = seq.rows
    return _run_direction(params, seq.data, T.GatherLayout(np.arange(n), [0]), np.arange(n))[0]


def encode(fwd: LstmDirectionParams, bwd: LstmDirectionParams, seq: Tensor,
           starts=(0,)) -> Tensor:
    """Both directions over ``seq`` as the embedding table, row t token t."""
    return bilstm_encode(fwd, bwd, seq, T.GatherLayout(np.arange(seq.rows), starts))


def zero_params(embed_dim: int, feature_dim: int) -> LstmDirectionParams:
    return LstmDirectionParams(weight=Tensor(np.zeros((embed_dim + feature_dim, 4 * feature_dim))),
                               bias=Tensor(np.zeros((1, 4 * feature_dim))))


class TestLstmForward:
    def test_zero_parameters_give_zero_outputs(self, rng):
        params = zero_params(3, 4)
        seq = Tensor(rng.standard_normal((5, 3)))
        np.testing.assert_array_equal(forward_direction(params, seq), np.zeros((5, 4)))

    def test_scalar_hand_trace(self):
        # 1-dim gates with hand-set weights; expected values computed by
        # hand from the per-step formulas (sigmoid/tanh of affine maps).
        # Columns: forget, input, cell, output.
        params = LstmDirectionParams(
            weight=Tensor([[0.5, -0.4, 0.7, 0.1],
                           [0.25, 0.3, -0.2, 0.6]]),
            bias=Tensor([[0.1, 0.2, 0.0, -0.3]]))
        h = forward_direction(params, Tensor([[0.3]]))
        assert abs(h[0, 0] - 0.046410583479716876) < 1e-12

    def test_matches_independent_recurrence(self, rng):
        params = random_params(3, 4, rng)
        seq = rng.standard_normal((5, 3))
        outputs = forward_direction(params, Tensor(seq))
        expected = oracle_recurrence(params_arrays(params), seq)
        np.testing.assert_allclose(outputs, np.array(expected), atol=1e-12)

    def test_dimension_mismatch(self, rng):
        params = random_params(3, 4, rng)
        with pytest.raises(ShapeError, match="dim"):
            encode(params, params, Tensor(rng.standard_normal((2, 5))))

    def test_outputs_strictly_inside_unit_box(self, rng):
        params = random_params(2, 3, rng)
        outputs = forward_direction(params, Tensor(rng.standard_normal((8, 2)) * 5))
        assert outputs.shape == (8, 3)
        assert np.all(np.abs(outputs) < 1.0)

    def test_one_direction_holds_one_gate_buffer(self, rng):
        # the input projection is gathered into the gate buffer and the
        # reverse sweep writes its gradients over it, so forward plus
        # backward peaks below three (tokens x 4 feature_dim) buffers even
        # here, where every token is a term of its own and the sums of the
        # gate gradients per term take one buffer more
        n, d = 20000, 16
        params = random_params(4, d, rng)
        x = rng.standard_normal((n, 4))
        probe = rng.standard_normal((n, d))
        # sequences of 10 rows: step t visits row t of each
        tokens = T.GatherLayout(np.arange(n), np.arange(0, n, 10))
        visits = np.arange(n).reshape(-1, 10).T.ravel()
        tracemalloc.start()
        try:
            _, gradients = _run_direction(params, x, tokens, visits)
            gradients = gradients(probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [g.shape for g in gradients] == [x.shape, params.weight.shape, params.bias.shape]
        assert peak < 2.75 * n * 4 * d * 8


class TestBilstmEncode:
    def test_zero_backward_params_reduce_to_forward(self, rng):
        fwd = random_params(3, 4, rng)
        seq = Tensor(rng.standard_normal((4, 3)))
        encoded = encode(fwd, zero_params(3, 4), seq)
        np.testing.assert_allclose(encoded.data, forward_direction(fwd, seq), atol=1e-15)

    def test_single_token_sums_both_directions(self, rng):
        fwd = random_params(3, 4, rng)
        bwd = random_params(3, 4, rng)
        seq = Tensor(rng.standard_normal((1, 3)))
        encoded = encode(fwd, bwd, seq)
        expected = forward_direction(fwd, seq) + forward_direction(bwd, seq)
        np.testing.assert_allclose(encoded.data, expected, atol=1e-15)

    def test_palindrome_with_tied_directions_is_row_symmetric(self, rng):
        params = random_params(3, 4, rng)
        token = rng.standard_normal(3)
        other = rng.standard_normal(3)
        seq = Tensor(np.vstack([token, other, token]))
        encoded = encode(params, params, seq)
        np.testing.assert_allclose(encoded.data, encoded.data[::-1], atol=1e-12)

    def test_empty_sequence_rejected(self, rng):
        fwd = random_params(3, 4, rng)
        with pytest.raises(ShapeError, match="empty"):
            bilstm_encode(fwd, fwd, Tensor(rng.standard_normal((2, 3))), T.GatherLayout([], [0]))

    def test_directional_causality(self, rng):
        # perturbing token k moves forward outputs only at j >= k and
        # backward outputs only at j <= k
        fwd = random_params(3, 4, rng)
        seq = rng.standard_normal((5, 3))
        base_f = forward_direction(fwd, Tensor(seq))
        base_b = forward_direction(fwd, Tensor(seq[::-1]))
        k = 2
        bumped = seq.copy()
        bumped[k] += 0.5
        new_f = forward_direction(fwd, Tensor(bumped))
        new_b = forward_direction(fwd, Tensor(bumped[::-1]))
        for j in range(5):
            forward_changed = not np.allclose(base_f[j], new_f[j], atol=1e-14)
            assert forward_changed == (j >= k)
            # backward pass index j corresponds to original position 4-j
            backward_changed = not np.allclose(base_b[j], new_b[j], atol=1e-14)
            assert backward_changed == (4 - j <= k)

    @pytest.mark.parametrize("length", [1, 3, 12])
    def test_gradients_match_finite_differences(self, rng, length):
        fwd = random_params(4, 4, rng)
        bwd = random_params(4, 4, rng)
        seq = Tensor(rng.standard_normal((length, 4)))
        weights = rng.standard_normal((length, 4))
        targets = ([("seq", seq)] + fwd.named_parameters("fwd")
                   + bwd.named_parameters("bwd"))

        def run():
            return sum_all(T.mul(T.constant(weights), encode(fwd, bwd, seq)))

        assert grad_check(run, targets, eps=1e-5) < 1e-4

    @pytest.mark.parametrize("length", [1, 9])
    def test_one_tape_record(self, rng, length):
        # the lookup, both directions and their sum
        fwd = random_params(3, 4, rng)
        table = Tensor(rng.standard_normal((4, 3)))
        with Tape() as tape:
            bilstm_encode(fwd, random_params(3, 4, rng), table,
                          T.GatherLayout(rng.integers(0, 4, size=length), [0]))
        assert len(tape) == 1

    def test_forward_and_backward_copy_no_output_gradient(self, rng):
        # two gate buffers, each direction's states and outputs, and their
        # sum: the output gradient reaches both directions uncopied
        n, d = 20000, 16
        fwd, bwd = random_params(4, d, rng), random_params(4, d, rng)
        table = Tensor(rng.standard_normal((50, 4)))
        tokens = T.GatherLayout(rng.integers(0, 50, size=n), np.arange(0, n, 10))
        probe = T.constant(rng.standard_normal((n, d)))
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = bilstm_encode(fwd, bwd, table, tokens)
                tape.backward(sum_all(T.mul(probe, out)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.3 * n * 4 * d * 8

    def test_without_a_tape_keeps_no_buffer_of_token_size(self, rng):
        # the forward-only path holds both directions' outputs and index
        # arrays, less than the one (tokens x 4 feature_dim) gate buffer a
        # taped direction keeps; 2,000 lanes run in several lane blocks
        n, d = 20000, 16
        fwd, bwd = random_params(4, d, rng), random_params(4, d, rng)
        table = Tensor(rng.standard_normal((50, 4)))
        tokens = T.GatherLayout(rng.integers(0, 50, size=n), np.arange(0, n, 10))
        tracemalloc.start()
        try:
            out = bilstm_encode(fwd, bwd, table, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (n, d)
        assert peak < n * 4 * d * 8


RAGGED = [3, 1, 4, 4, 1, 2, 1]  # tied lengths and length-1 segments, unsorted


def ragged_starts() -> np.ndarray:
    return np.cumsum([0] + RAGGED[:-1])


class TestPackedSegments:
    def test_matches_each_segment_encoded_alone(self, rng):
        fwd, bwd = random_params(3, 4, rng), random_params(3, 4, rng)
        seq = Tensor(rng.standard_normal((sum(RAGGED), 3)))
        starts = ragged_starts()
        packed = encode(fwd, bwd, seq, starts).data
        for lo, length in zip(starts, RAGGED):
            alone = encode(fwd, bwd, Tensor(seq.data[lo:lo + length]))
            np.testing.assert_allclose(packed[lo:lo + length], alone.data, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        # repeated token ids within and across sequences, and a table row
        # no token gathers
        fwd, bwd = random_params(3, 4, rng), random_params(3, 4, rng)
        table = Tensor(rng.standard_normal((6, 3)))
        tokens = rng.integers(0, 5, size=sum(RAGGED))
        starts = ragged_starts()
        weights = rng.standard_normal((sum(RAGGED), 4))
        targets = [("table", table)] + fwd.named_parameters("fwd") + bwd.named_parameters("bwd")

        def run():
            out = bilstm_encode(fwd, bwd, table, T.GatherLayout(tokens, starts))
            return sum_all(T.mul(T.constant(weights), out))

        assert grad_check(run, targets, eps=1e-5) < 1e-6

    @pytest.mark.parametrize("starts", [[0, 2, 2, 5], [1, 3], [0, 4, 2], [0, 7]],
                             ids=["empty-segment", "not-from-zero", "unordered", "past-end"])
    def test_bad_starts_are_shape_errors(self, rng, starts):
        fwd = random_params(3, 4, rng)
        with pytest.raises(ShapeError):
            encode(fwd, fwd, Tensor(rng.standard_normal((7, 3))), starts)


class TestForwardOnly:
    @pytest.mark.parametrize("block", [2, lstm.LANE_BLOCK])
    @pytest.mark.parametrize("embed_dim, feature_dim", [(3, 4), (6, 80)])
    def test_without_a_tape_gives_the_taped_output(self, rng, monkeypatch, block,
                                                   embed_dim, feature_dim):
        # at block 2 the seven lanes run in four blocks, and the later ones
        # end with one active lane where the taped step runs three
        monkeypatch.setattr(lstm, "LANE_BLOCK", block)
        starts = ragged_starts()
        for _ in range(5):
            fwd = random_params(embed_dim, feature_dim, rng)
            bwd = random_params(embed_dim, feature_dim, rng)
            table = Tensor(rng.standard_normal((6, embed_dim)))
            tokens = T.GatherLayout(rng.integers(0, 6, size=sum(RAGGED)), starts)
            with Tape():
                taped = bilstm_encode(fwd, bwd, table, tokens).data
            np.testing.assert_array_equal(bilstm_encode(fwd, bwd, table, tokens).data, taped)

    def test_one_distinct_term_gives_the_taped_output(self, rng, monkeypatch):
        monkeypatch.setattr(lstm, "LANE_BLOCK", 2)
        fwd, bwd = random_params(3, 4, rng), random_params(3, 4, rng)
        table = Tensor(rng.standard_normal((6, 3)))
        tokens = T.GatherLayout(np.full(sum(RAGGED), 4), ragged_starts())
        with Tape():
            taped = bilstm_encode(fwd, bwd, table, tokens).data
        np.testing.assert_array_equal(bilstm_encode(fwd, bwd, table, tokens).data, taped)


def visit_orders(lengths: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The tokens each direction visits, in order, for sequences stacked
    in index order: step t takes token t of every sequence longer than t
    (the backward direction counts from the end), longest first, ties in
    index order."""
    starts = np.cumsum([0] + lengths[:-1])
    lanes = sorted(range(len(lengths)), key=lambda s: -lengths[s])
    ahead, behind = [], []
    for t in range(max(lengths)):
        for s in (s for s in lanes if lengths[s] > t):
            ahead.append(starts[s] + t)
            behind.append(starts[s] + lengths[s] - 1 - t)
    return np.array(ahead), np.array(behind)


def assert_sums_close(actual: np.ndarray, expected: np.ndarray, scale: np.ndarray) -> None:
    """``actual`` is ``expected`` to 1e-13 relative to ``scale``, the sums
    of their terms' magnitudes: two orders of one sum differ by a rounding
    of those, however much the terms cancel."""
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= 1e-13 * scale), np.abs(actual - expected).max()


class TestTermSpaceBackward:
    @pytest.mark.parametrize("tokens", [np.array([0, 3, 1, 3, 4, 0, 0, 2, 1, 4, 3, 3, 0, 2, 1, 3]),
                                        np.full(sum(RAGGED), 2)],
                             ids=["repeated-terms", "one-term"])
    def test_gradients_match_sums_over_tokens(self, rng, monkeypatch, tokens):
        # each direction's gate gradients dz, in visit order, summed over
        # the tokens instead of per term: x[visits]^T dz for W_x, dz's
        # column sums for the bias and np.add.at of dz @ W_x^T for the
        # table, whose row 5 no token uses
        fwd, bwd = random_params(3, 4, rng), random_params(3, 4, rng)
        table = Tensor(rng.standard_normal((6, 3)))
        dz, distinct_sums = [], T.GatherLayout.distinct_sums

        def recorded(layout, y, at):
            dz.append(y.copy())
            return distinct_sums(layout, y, at)

        monkeypatch.setattr(T.GatherLayout, "distinct_sums", recorded)
        with Tape() as tape:
            out = bilstm_encode(fwd, bwd, table, T.GatherLayout(tokens, ragged_starts()))
            tape.backward(sum_all(T.mul(T.constant(rng.standard_normal(out.shape)), out)))
        assert len(dz) == 2
        expected, scale = np.zeros(table.shape), np.zeros(table.shape)
        for params, visits, grads in zip((fwd, bwd), visit_orders(RAGGED), dz):
            w_x, x = params.weight.data[:3], table.data[tokens[visits]]
            np.add.at(expected, tokens[visits], grads @ w_x.T)
            np.add.at(scale, tokens[visits], np.abs(grads) @ np.abs(w_x.T))
            assert_sums_close(params.weight.grad[:3], x.T @ grads, np.abs(x.T) @ np.abs(grads))
            assert_sums_close(params.bias.grad[0], grads.sum(axis=0), np.abs(grads).sum(axis=0))
        assert_sums_close(table.grad, expected, scale)
        assert not table.grad[5].any()

    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_an_unused_embedding_row_of_1e300_changes_no_loss(self, monkeypatch, variant):
        # no token uses the spare term, so no product reads its table row
        graph, corpus, _ = two_cluster_fixture()
        corpus = dataclasses.replace(corpus, vocab_size=corpus.vocab_size + 1)
        config = ExperimentConfig(embed_dim=4, feature_dim=4, hidden_dim=3, epochs=3, seed=1,
                                  variant=variant)
        dataset_split = split(corpus.n, config.train_fraction, derive_rng(1, "split"))
        _, history = train(config, graph, corpus, dataset_split)

        def spare_of_1e300(*args):
            params = init_params(*args)
            params.embeddings.data[-1] = 1e300
            return params

        monkeypatch.setattr(training, "init_params", spare_of_1e300)
        params, spared = train(config, graph, corpus, dataset_split)
        assert [*map(repr, spared.losses)] == [*map(repr, history.losses)]
        assert params.embeddings.data[-1, 0] == 1e300
        np.testing.assert_array_equal(params.embeddings.grad[-1], 0.0)


class TestParamInit:
    def test_shapes_and_range(self, rng):
        params = LstmDirectionParams.init(5, 8, rng)
        assert params.embed_dim == 5 and params.feature_dim == 8
        bound = 1.0 / np.sqrt(8)
        shapes = {"x.weight": (13, 32), "x.bias": (1, 32)}
        assert [name for name, _ in params.named_parameters("x")] == list(shapes)
        for name, t in params.named_parameters("x"):
            assert t.shape == shapes[name]
            assert np.all(np.abs(t.data) <= bound)

    def test_init_draws_four_gate_weights_then_four_biases(self):
        params = LstmDirectionParams.init(2, 3, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        bound = 1.0 / np.sqrt(3)
        weights = [rng.uniform(-bound, bound, size=(5, 3)) for _ in GATES]
        biases = [rng.uniform(-bound, bound, size=(1, 3)) for _ in GATES]
        np.testing.assert_array_equal(params.weight.data, np.hstack(weights))
        np.testing.assert_array_equal(params.bias.data, np.hstack(biases))

    def test_stacked_weights_are_the_regularized_set(self, rng):
        params = ModelParams.init(6, 2, 2, 3, 4, "self", rng)
        assert params.feature_reg_terms() == [params.lstm_fwd.weight, params.lstm_bwd.weight]
