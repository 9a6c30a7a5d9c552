"""Bidirectional LSTM encoder producing one dense semantic vector per
token occurrence in a node's content.

The encoder runs on the segment layout: the token rows of every node are
stacked in one matrix, node i's from row ``starts[i]``, and each
direction encodes all of them in one taped operation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


@dataclass
class LstmDirectionParams:
    """Weights for one recurrence direction, the four gates side by side.

    ``weight`` maps the concatenated [token embedding, previous hidden
    state] row (width embed_dim + feature_dim) to the forget, input, cell
    and output gate pre-activations, feature_dim columns each, in that
    order; ``bias`` is the matching 1-row vector.
    """

    weight: Tensor
    bias: Tensor

    @classmethod
    def init(cls, embed_dim: int, feature_dim: int, rng: np.random.Generator) -> "LstmDirectionParams":
        """Uniform init in [-1/sqrt(feature_dim), 1/sqrt(feature_dim)]:
        the four gate weights are drawn one after another, then the four
        biases."""
        bound = 1.0 / np.sqrt(feature_dim)

        def gates(rows: int) -> Tensor:
            return Tensor(np.hstack([rng.uniform(-bound, bound, size=(rows, feature_dim))
                                     for _ in range(4)]))

        return cls(weight=gates(embed_dim + feature_dim), bias=gates(1))

    @property
    def feature_dim(self) -> int:
        return self.weight.cols // 4

    @property
    def embed_dim(self) -> int:
        return self.weight.rows - self.feature_dim

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.{f.name}", getattr(self, f.name)) for f in fields(self)]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    y = np.tanh(0.5 * z)
    y += 1.0
    y *= 0.5
    return y


def _run_direction(params: LstmDirectionParams, seq: Tensor, starts: Sequence[int],
                   reverse: bool) -> Tensor:
    """Run the recurrence over each segment of ``seq`` (rows ``starts[k]``
    up to the next start; last to first when ``reverse``) as one taped
    operation; outputs come back in row order. Per step, gates f, i, o are
    sigmoids and the cell candidate g a tanh of [x_t, h_{t-1}] times the
    gate weight plus bias; c_t = f*c_{t-1} + i*g and h_t = o*tanh(c_t),
    from zero states.

    After Appleyard et al. (arXiv 1604.01946), the input projection of
    every token is one product and the time loop carries only ``h @ W_h``.
    Segments are packed longest first: step t advances token t of every
    segment longer than t, a prefix of the carried state, so the loop runs
    once per position of the longest segment, without padding. The three
    gradient functions share one reverse sweep over the same visits, run
    by the first of them; the weight gradient is then one product.
    ``W_x`` and ``W_h`` are row views of the stacked gate weight, not
    rebuilt copies; the weight still holds its forward values when the
    tape runs.
    """
    weight, bias = params.weight, params.bias
    d, embed_dim = params.feature_dim, params.embed_dim
    if seq.cols != embed_dim:
        raise ShapeError(
            f"sequence width {seq.cols} does not match embedding dim {embed_dim}")
    n = seq.rows
    if n < 1:
        raise ShapeError("cannot encode an empty token sequence")
    starts, _ = T._segments(starts, n)
    lengths = np.diff(starts, append=n)
    order = np.argsort(-lengths, kind="stable")
    batch = starts.size - np.cumsum(np.bincount(lengths))[:-1]  # segments per step
    offsets = np.concatenate(([0], np.cumsum(batch)))
    step_of = np.repeat(np.arange(batch.size), batch)
    first = starts[order] + (lengths[order] - 1 if reverse else 0)
    # visits[r] is the row of seq that visit r (step step_of[r]) advances
    visits = first[np.arange(n) - offsets[step_of]] + (-step_of if reverse else step_of)

    w_x, w_h = weight.data[:embed_dim], weight.data[embed_dim:]
    gates = seq.data[visits] @ w_x  # f, i, g, o side by side, in visit order
    gates += bias.data
    cs, out_data = np.empty((n, d)), np.empty((n, d))
    h = c = np.zeros((batch[0], d))
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        active = hi - lo
        z = gates[lo:hi]
        z += h[:active] @ w_h
        gate = _sigmoid(z)
        np.tanh(z[:, 2 * d:3 * d], out=gate[:, 2 * d:3 * d])
        z[:] = gate
        f, i, g, o = (z[:, k * d:(k + 1) * d] for k in range(4))
        c = cs[lo:hi] = f * c[:active] + i * g
        h = out_data[visits[lo:hi]] = o * np.tanh(c)

    swept = False

    def dz(grad: np.ndarray) -> np.ndarray:
        """The gate pre-activation gradients, in visit order. The first call
        sweeps back through time and writes them over ``gates``, step t's
        rows once step t has read them; the tape runs backward once, so
        nothing reads the activations after."""
        nonlocal swept
        if swept:
            return gates
        swept = True
        dh_next = dc_next = np.zeros((0, d))
        for t in range(batch.size - 1, -1, -1):
            lo, hi = offsets[t], offsets[t + 1]
            active, carried = hi - lo, dh_next.shape[0]
            f, i, g, o = (gates[lo:hi, k * d:(k + 1) * d] for k in range(4))
            c_prev = cs[offsets[t - 1]:offsets[t - 1] + active] if t else np.zeros((active, d))
            tanh_c = np.tanh(cs[lo:hi])
            dh = grad[visits[lo:hi]]
            dh[:carried] += dh_next
            dc = dh * (o * (1.0 - tanh_c * tanh_c))
            dc[:carried] += dc_next
            dc_next = dc * f
            # dz = (dc, dc, dc, dh) times each gate's local derivative
            gates[lo:hi] = np.hstack((dc * (c_prev * (f * (1.0 - f))), dc * (g * (i * (1.0 - i))),
                                      dc * (i * (1.0 - g * g)), dh * (tanh_c * (o * (1.0 - o)))))
            dh_next = gates[lo:hi] @ w_h.T
        return gates

    def seq_grad(grad: np.ndarray) -> np.ndarray:
        dx = np.empty(seq.shape)
        dx[visits] = dz(grad) @ w_x.T
        return dx

    def weight_grad(grad: np.ndarray) -> np.ndarray:
        # visit r >= batch[0] follows visit r - batch[t - 1] of its segment;
        # the first visits start from h = 0 and add nothing to dW_h
        prev = np.arange(batch[0], n) - np.repeat(batch[:-1], batch[1:])
        dz_all = dz(grad)
        return np.vstack((seq.data[visits].T @ dz_all,
                          out_data[visits[prev]].T @ dz_all[batch[0]:]))

    return T._op(out_data, (seq, weight, bias),
                 (seq_grad, weight_grad, lambda grad: dz(grad).sum(axis=0, keepdims=True)))


def bilstm_encode(fwd: LstmDirectionParams, bwd: LstmDirectionParams, seq: Tensor,
                  starts: Sequence[int] = (0,)) -> Tensor:
    """Encode token-embedding sequences with both directions combined.

    ``seq`` holds one sequence per segment, each from its row of
    ``starts`` up to the next; the default is one sequence of all rows.
    The backward direction runs over each sequence reversed; the two
    per-position outputs are combined by elementwise sum, giving one row
    per token in original order.
    """
    if fwd.embed_dim != bwd.embed_dim or fwd.feature_dim != bwd.feature_dim:
        raise ShapeError("forward/backward parameter dimensions disagree")
    return T.add(_run_direction(fwd, seq, starts, reverse=False),
                 _run_direction(bwd, seq, starts, reverse=True))
