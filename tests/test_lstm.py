"""Recurrent encoder against a scalar hand-trace and an independent
step-by-step recurrence oracle."""

import numpy as np
import pytest

import fagcn.tensor as T
from fagcn.lstm import LstmDirectionParams, bilstm_encode, lstm_forward
from fagcn.tensor import Tape, Tensor

from conftest import numeric_gradient


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


def params_arrays(params: LstmDirectionParams) -> dict[str, np.ndarray]:
    return {name.split(".", 1)[1]: (t.data[0] if name.split(".")[1].startswith("b") else t.data)
            for name, t in params.named_parameters("d")}


def zero_params(embed_dim: int, feature_dim: int) -> LstmDirectionParams:
    w = lambda: Tensor(np.zeros((embed_dim + feature_dim, feature_dim)))
    b = lambda: Tensor(np.zeros((1, feature_dim)))
    return LstmDirectionParams(w_forget=w(), w_input=w(), w_cell=w(), w_output=w(),
                               b_forget=b(), b_input=b(), b_cell=b(), b_output=b())


class TestLstmForward:
    def test_zero_parameters_give_zero_outputs(self, rng):
        params = zero_params(3, 4)
        seq = Tensor(rng.standard_normal((5, 3)))
        for h in lstm_forward(params, seq):
            np.testing.assert_array_equal(h.data, np.zeros((1, 4)))

    def test_scalar_hand_trace(self):
        # 1-dim gates with hand-set weights; expected values computed by
        # hand from the per-step formulas (sigmoid/tanh of affine maps).
        params = LstmDirectionParams(
            w_forget=Tensor([[0.5], [0.25]]), b_forget=Tensor([[0.1]]),
            w_input=Tensor([[-0.4], [0.3]]), b_input=Tensor([[0.2]]),
            w_cell=Tensor([[0.7], [-0.2]]), b_cell=Tensor([[0.0]]),
            w_output=Tensor([[0.1], [0.6]]), b_output=Tensor([[-0.3]]))
        (h,) = lstm_forward(params, Tensor([[0.3]]))
        assert abs(h.item() - 0.046410583479716876) < 1e-12

    def test_matches_independent_recurrence(self, rng):
        params = random_params(3, 4, rng)
        seq = rng.standard_normal((5, 3))
        outputs = lstm_forward(params, Tensor(seq))
        expected = oracle_recurrence(params_arrays(params), seq)
        for h, e in zip(outputs, expected):
            np.testing.assert_allclose(h.data[0], e, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        params = random_params(3, 4, rng)
        with pytest.raises(Exception, match="dim"):
            lstm_forward(params, Tensor(rng.standard_normal((2, 5))))

    def test_outputs_strictly_inside_unit_box(self, rng):
        params = random_params(2, 3, rng)
        for h in lstm_forward(params, Tensor(rng.standard_normal((8, 2)) * 5)):
            assert np.all(np.abs(h.data) < 1.0)


class TestBilstmEncode:
    def test_zero_backward_params_reduce_to_forward(self, rng):
        fwd = random_params(3, 4, rng)
        seq = Tensor(rng.standard_normal((4, 3)))
        encoded = bilstm_encode(fwd, zero_params(3, 4), seq)
        forward_only = lstm_forward(fwd, seq)
        for j in range(4):
            np.testing.assert_allclose(encoded.data[j], forward_only[j].data[0], atol=1e-15)

    def test_single_token_sums_both_directions(self, rng):
        fwd = random_params(3, 4, rng)
        bwd = random_params(3, 4, rng)
        seq = Tensor(rng.standard_normal((1, 3)))
        encoded = bilstm_encode(fwd, bwd, seq)
        expected = lstm_forward(fwd, seq)[0].data + lstm_forward(bwd, seq)[0].data
        np.testing.assert_allclose(encoded.data, expected, atol=1e-15)

    def test_palindrome_with_tied_directions_is_row_symmetric(self, rng):
        params = random_params(3, 4, rng)
        token = rng.standard_normal(3)
        other = rng.standard_normal(3)
        seq = Tensor(np.vstack([token, other, token]))
        encoded = bilstm_encode(params, params, seq)
        np.testing.assert_allclose(encoded.data, encoded.data[::-1], atol=1e-12)

    def test_empty_sequence_rejected(self, rng):
        fwd = random_params(3, 4, rng)
        with pytest.raises(Exception):
            bilstm_encode(fwd, fwd, Tensor(np.zeros((0, 3))))

    def test_directional_causality(self, rng):
        # perturbing token k moves forward outputs only at j >= k and
        # backward outputs only at j <= k
        fwd = random_params(3, 4, rng)
        seq = rng.standard_normal((5, 3))
        base_f = [h.data.copy() for h in lstm_forward(fwd, Tensor(seq))]
        base_b = [h.data.copy() for h in lstm_forward(fwd, Tensor(seq[::-1]))]
        k = 2
        bumped = seq.copy()
        bumped[k] += 0.5
        new_f = [h.data for h in lstm_forward(fwd, Tensor(bumped))]
        new_b = [h.data for h in lstm_forward(fwd, Tensor(bumped[::-1]))]
        for j in range(5):
            forward_changed = not np.allclose(base_f[j], new_f[j], atol=1e-14)
            assert forward_changed == (j >= k)
            # backward pass index j corresponds to original position 4-j
            backward_changed = not np.allclose(base_b[j], new_b[j], atol=1e-14)
            assert backward_changed == (4 - j <= k)

    def test_gradients_match_finite_differences(self, rng):
        fwd = random_params(4, 4, rng)
        bwd = random_params(4, 4, rng)
        seq = Tensor(rng.standard_normal((3, 4)))
        weights = rng.standard_normal((3, 4))
        targets = ([("seq", seq)] + fwd.named_parameters("fwd")
                   + bwd.named_parameters("bwd"))

        def run():
            out = bilstm_encode(fwd, bwd, seq)
            return T.sum_all(T.mul(T.constant(weights), out)).item()

        for _, p in targets:
            p.zero_grad()
        with Tape() as tape:
            out = bilstm_encode(fwd, bwd, seq)
            tape.backward(T.sum_all(T.mul(T.constant(weights), out)))
        for name, p in targets:
            expected = numeric_gradient(run, p.data, eps=1e-5)
            got = p.grad if p.grad is not None else np.zeros_like(p.data)
            denom = np.maximum(np.abs(expected), 1.0)
            assert np.max(np.abs(got - expected) / denom) < 1e-4, name


class TestParamInit:
    def test_shapes_and_range(self, rng):
        params = LstmDirectionParams.init(5, 8, rng)
        assert params.embed_dim == 5 and params.feature_dim == 8
        bound = 1.0 / np.sqrt(8)
        for name, t in params.named_parameters("x"):
            expected = (13, 8) if name.split(".")[1].startswith("w") else (1, 8)
            assert t.shape == expected
            assert np.all(np.abs(t.data) <= bound)

    def test_gate_weights_are_the_regularized_set(self, rng):
        params = LstmDirectionParams.init(2, 3, rng)
        assert [t.shape for t in params.gate_weights()] == [(5, 3)] * 4
