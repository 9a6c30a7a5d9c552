"""Bidirectional LSTM encoder producing one dense semantic vector per
token occurrence in a node's content."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


@dataclass
class LstmDirectionParams:
    """Weights for one recurrence direction.

    Each gate weight maps the concatenated [token embedding, previous
    hidden state] row (width embed_dim + feature_dim) to feature_dim;
    biases are 1-row vectors.
    """

    w_forget: Tensor
    w_input: Tensor
    w_cell: Tensor
    w_output: Tensor
    b_forget: Tensor
    b_input: Tensor
    b_cell: Tensor
    b_output: Tensor

    @classmethod
    def init(cls, embed_dim: int, feature_dim: int, rng: np.random.Generator) -> "LstmDirectionParams":
        """Uniform init in [-1/sqrt(feature_dim), 1/sqrt(feature_dim)]."""
        bound = 1.0 / np.sqrt(feature_dim)
        in_dim = embed_dim + feature_dim

        def w() -> Tensor:
            return Tensor(rng.uniform(-bound, bound, size=(in_dim, feature_dim)))

        def b() -> Tensor:
            return Tensor(rng.uniform(-bound, bound, size=(1, feature_dim)))

        return cls(w_forget=w(), w_input=w(), w_cell=w(), w_output=w(),
                   b_forget=b(), b_input=b(), b_cell=b(), b_output=b())

    @property
    def feature_dim(self) -> int:
        return self.w_forget.cols

    @property
    def embed_dim(self) -> int:
        return self.w_forget.rows - self.feature_dim

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.w_forget", self.w_forget),
            (f"{prefix}.w_input", self.w_input),
            (f"{prefix}.w_cell", self.w_cell),
            (f"{prefix}.w_output", self.w_output),
            (f"{prefix}.b_forget", self.b_forget),
            (f"{prefix}.b_input", self.b_input),
            (f"{prefix}.b_cell", self.b_cell),
            (f"{prefix}.b_output", self.b_output),
        ]

    def gate_weights(self) -> list[Tensor]:
        """The four gate weight matrices (the L2-regularized subset)."""
        return [self.w_forget, self.w_input, self.w_cell, self.w_output]

    def _gate_tensors(self) -> tuple[tuple[Tensor, ...], tuple[Tensor, ...]]:
        return ((self.w_forget, self.w_input, self.w_cell, self.w_output),
                (self.b_forget, self.b_input, self.b_cell, self.b_output))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    y = np.tanh(0.5 * z)
    y += 1.0
    y *= 0.5
    return y


def _input_and_recurrent_blocks(weights: tuple[Tensor, ...], embed_dim: int):
    """W_x and W_h, each with the four gates side by side."""
    w_all = np.hstack([w.data for w in weights])
    return w_all[:embed_dim], w_all[embed_dim:]


def _run_direction(params: LstmDirectionParams, seq: Tensor, reverse: bool) -> Tensor:
    """Run the recurrence over the rows of ``seq`` (last to first when
    ``reverse``) as one taped operation; outputs come back in row order.

    After Appleyard et al. (arXiv 1604.01946), the input projection of
    every token is one product and the time loop carries only ``h @ W_h``.
    The backward closure runs the whole reverse sweep, then forms the
    weight gradient as one product. It keeps no copy of the weights,
    which still hold their forward values when the tape runs.
    """
    weights, biases = params._gate_tensors()
    d, embed_dim = params.feature_dim, params.embed_dim
    if seq.cols != embed_dim:
        raise ShapeError(
            f"sequence width {seq.cols} does not match embedding dim {embed_dim}")
    n = seq.rows
    if n < 1:
        raise ShapeError("cannot encode an empty token sequence")
    steps = slice(None, None, -1) if reverse else slice(None)  # its own inverse
    xs = seq.data[steps]
    w_x, w_h = _input_and_recurrent_blocks(weights, embed_dim)
    pre_x = xs @ w_x + np.hstack([b.data for b in biases])
    gates = np.empty((n, 4 * d))  # f, i, g, o side by side, in visit order
    cs, hs = np.empty((n, d)), np.empty((n, d))
    h = c = np.zeros(d)
    for k in range(n):
        z = pre_x[k] + h @ w_h
        gate = gates[k]
        gate[:] = _sigmoid(z)
        gate[2 * d:3 * d] = np.tanh(z[2 * d:3 * d])
        f, i, g, o = gate.reshape(4, d)
        c = cs[k] = f * c + i * g
        h = hs[k] = o * np.tanh(c)

    out = Tensor(hs[steps], requires_grad=seq.requires_grad
                 or any(p.requires_grad for p in weights + biases))
    tape = T.current_tape()
    if tape is None or not out.requires_grad:
        return out

    def sweep() -> None:
        if out.grad is None:
            return
        w_x, w_h = _input_and_recurrent_blocks(weights, embed_dim)
        f, i, g, o = (gates[:, k * d:(k + 1) * d] for k in range(4))
        tanh_c = np.tanh(cs)
        c_prev, h_prev = (np.vstack((np.zeros((1, d)), s[:-1])) for s in (cs, hs))
        # dz = (dc, dc, dc, dh) * local, gate by gate
        local = np.hstack((c_prev * (f * (1.0 - f)), g * (i * (1.0 - i)),
                           i * (1.0 - g * g), tanh_c * (o * (1.0 - o))))
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        grad = out.grad[steps]
        dz = np.empty((n, 4 * d))
        dh_next = dc_next = np.zeros(d)
        for k in range(n - 1, -1, -1):
            dh = grad[k] + dh_next
            dc = dh * dc_dh[k] + dc_next
            dz[k] = np.concatenate((dc, dc, dc, dh)) * local[k]
            dh_next = dz[k] @ w_h.T
            dc_next = dc * f[k]
        if seq.requires_grad:
            seq.accumulate_grad((dz @ w_x.T)[steps])
        dw = np.vstack((xs.T @ dz, h_prev.T @ dz))
        for k, (w, b) in enumerate(zip(weights, biases)):
            gate_cols = slice(k * d, (k + 1) * d)
            if w.requires_grad:
                w.accumulate_grad(dw[:, gate_cols])
            if b.requires_grad:
                b.accumulate_grad(dz[:, gate_cols].sum(axis=0, keepdims=True))

    tape.record(sweep)
    return out


def lstm_forward(params: LstmDirectionParams, seq: Tensor) -> Tensor:
    """Run the recurrence over sequence rows in temporal order.

    Per step: gates f, i, o are sigmoids and the cell candidate g a tanh
    of [x_t, h_{t-1}] times the gate weight plus bias; the cell state is
    c_t = f*c_{t-1} + i*g and the output h_t = o*tanh(c_t), from zero
    initial states. Returns the outputs, one row per step.
    """
    return _run_direction(params, seq, reverse=False)


def bilstm_encode(fwd: LstmDirectionParams, bwd: LstmDirectionParams, seq: Tensor) -> Tensor:
    """Encode a token-embedding sequence with both directions combined.

    The backward direction runs over the reversed sequence; the two
    per-position outputs are combined by elementwise sum, giving one
    row per token in original order.
    """
    if fwd.embed_dim != bwd.embed_dim or fwd.feature_dim != bwd.feature_dim:
        raise ShapeError("forward/backward parameter dimensions disagree")
    return T.add(_run_direction(fwd, seq, reverse=False),
                 _run_direction(bwd, seq, reverse=True))
