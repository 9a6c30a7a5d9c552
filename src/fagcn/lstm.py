"""Bidirectional LSTM encoder producing one dense semantic vector per
token occurrence in a node's content.

The encoder runs on the segment layout: the tokens of every node are
stacked in one array, node i's from entry ``starts[i]``, and the
embedding lookup, both directions and their sum are one taped operation.
Both paths advance the recurrence by ``_step``. While a tape records,
``_run_direction`` keeps every token's gates and cell state for the
reverse sweep; otherwise ``_forward_only`` keeps only the output.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

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


LANE_BLOCK = 256  # sequences _forward_only advances through their steps together


def _step(z: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c_t, h_t) from the gate pre-activations ``z`` (f, i, g, o side by
    side) and the carried cell states ``c``; writes the activations over ``z``."""
    d = c.shape[1]
    gate = np.tanh(0.5 * z)  # the sigmoid, (1 + tanh(z / 2)) / 2
    gate += 1.0
    gate *= 0.5
    np.tanh(z[:, 2 * d:3 * d], out=gate[:, 2 * d:3 * d])
    z[:] = gate
    f, i, g, o = (z[:, k * d:(k + 1) * d] for k in range(4))
    c = f * c + i * g
    return c, o * np.tanh(c)


def _run_direction(params: LstmDirectionParams, x: np.ndarray, visits: np.ndarray,
                   batch: np.ndarray) -> tuple[np.ndarray, Callable]:
    """The recurrence over the rows of ``x``, advanced in the order
    ``visits``, and the function that maps its output gradient to the
    gradients of ``x``, the weight and the bias. Outputs come back in row
    order. Per step (``_step``), gates f, i, o are sigmoids and the cell
    candidate g a tanh of [x_t, h_{t-1}] times the gate weight plus bias;
    c_t = f*c_{t-1} + i*g and h_t = o*tanh(c_t), from zero states.

    After Appleyard et al. (arXiv 1604.01946), the input projection of
    every token is one product and the time loop carries only ``h @ W_h``.
    Step t advances the first ``batch[t]`` carried states, one visit each,
    so the loop runs once per position of the longest sequence, without
    padding. It keeps the (tokens x 4d) gate and (tokens x d) cell buffers
    for one reverse sweep over the same visits, which gives the three
    gradients; the weight gradient is then one product. ``W_x`` and ``W_h``
    are row views of the stacked gate weight, not rebuilt copies; the
    weight still holds its forward values when the tape runs.
    """
    d, embed_dim, n = params.feature_dim, params.embed_dim, x.shape[0]
    offsets = np.concatenate(([0], np.cumsum(batch)))
    w_x, w_h = params.weight.data[:embed_dim], params.weight.data[embed_dim:]
    gates = x[visits] @ w_x  # f, i, g, o side by side, in visit order
    gates += params.bias.data
    cs, out_data = np.empty((n, d)), np.empty((n, d))
    h = c = np.zeros((batch[0], d))
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        active = hi - lo
        z = gates[lo:hi]
        z += h[:active] @ w_h
        c, h = _step(z, c[:active])
        cs[lo:hi], out_data[visits[lo:hi]] = c, h

    def gradients(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The gradients of x, the weight and the bias. The sweep writes the
        gate pre-activation gradients over ``gates``, step t's rows once
        step t has read them, so this runs once: the tape runs backward once."""
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
        dx = np.empty(x.shape)
        dx[visits] = gates @ w_x.T
        # visit r >= batch[0] follows visit r - batch[t - 1] of its sequence;
        # the first visits start from h = 0 and add nothing to dW_h
        prev = np.arange(batch[0], n) - np.repeat(batch[:-1], batch[1:])
        return (dx, np.vstack((x[visits].T @ gates, out_data[visits[prev]].T @ gates[batch[0]:])),
                gates.sum(axis=0, keepdims=True))

    return out_data, gradients


def _forward_only(params: LstmDirectionParams, x: np.ndarray, rows: np.ndarray,
                  visits: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """``_run_direction``'s output for token r embedded as row ``rows[r]`` of
    ``x``, keeping no other buffer of token size. P = x @ W_x + b is one
    product; lanes run in blocks of at most ``LANE_BLOCK`` through all their
    steps, and a step reads its rows of P and adds ``h @ W_h``."""
    d, e = params.feature_dim, params.embed_dim
    proj = x @ params.weight.data[:e]
    proj += params.bias.data
    w_h, out, offsets = params.weight.data[e:], np.empty((visits.size, d)), np.cumsum(batch) - batch
    for a in range(0, batch[0], LANE_BLOCK):
        # BLAS sums a one-row product in another order, and _run_direction
        # takes one only when lane 0 runs alone: pad every later block a row
        pad, counts = int(a > 0), np.minimum(batch - a, LANE_BLOCK)
        h, c = np.zeros((counts[0] + pad, d)), np.zeros((counts[0], d))
        for lo, active in zip(offsets + a, counts[counts > 0]):
            at = visits[lo:lo + active]
            z = proj[rows[at]]
            z += (h[:active + pad] @ w_h)[:active]
            c, h[:active] = _step(z, c[:active])
            out[at] = h[:active]
    return out


def bilstm_encode(fwd: LstmDirectionParams, bwd: LstmDirectionParams, table: Tensor,
                  tokens: Sequence[int], starts: Sequence[int]) -> Tensor:
    """Encode token sequences with both directions combined, as one taped
    operation over ``table`` and both directions' weights.

    Row t of ``table`` embeds token t. ``tokens`` holds one sequence per
    segment, each from its entry of ``starts`` up to the next. The
    backward direction runs over each sequence reversed, and the two
    outputs are summed per position: one row per token, in original
    order. Sequences are packed longest first (``tensor.packed``): step t
    advances token t of every sequence longer than t. The table's
    gradient scatters the sum of both directions' input gradients. With
    no tape recording, both directions run forward-only and read only the
    table rows that ``tokens`` uses.
    """
    if fwd.embed_dim != bwd.embed_dim or fwd.feature_dim != bwd.feature_dim:
        raise ShapeError("forward/backward parameter dimensions disagree")
    if table.cols != fwd.embed_dim:
        raise ShapeError(
            f"sequence width {table.cols} does not match embedding dim {fwd.embed_dim}")
    idx = T._row_indices(tokens, table)
    n = idx.size
    if n < 1:
        raise ShapeError("cannot encode an empty token sequence")
    starts, _ = T._segments(starts, n)
    lengths = np.diff(starts, append=n)
    batch, lane, step = T.packed(lengths)
    directions = ((fwd, starts[lane] + step), (bwd, starts[lane] + lengths[lane] - 1 - step))
    inputs = (table, fwd.weight, fwd.bias, bwd.weight, bwd.bias)
    if not T._recording(inputs):
        terms, rows = np.unique(idx, return_inverse=True)
        ahead, behind = (_forward_only(p, table.data[terms], rows, v, batch) for p, v in directions)
        ahead += behind
        return T._op(ahead, inputs, ())
    x = table.data[idx]
    (ahead, grads_f), (behind, grads_b) = (_run_direction(p, x, v, batch) for p, v in directions)
    pending, done = [grads_f, grads_b], []

    def swept(grad: np.ndarray) -> list[np.ndarray]:
        # dx, dW, db of the forward direction, then of the backward one; each
        # direction's activations are freed once its gradients are out
        while pending:
            done.extend(pending.pop(0)(grad))
        return done

    def table_grad(grad: np.ndarray) -> np.ndarray:
        dx = swept(grad)[0]
        dx += done[3]
        return T._scatter_rows(table, idx, dx)

    return T._op(ahead + behind, inputs,
                 (table_grad, *(lambda grad, k=k: swept(grad)[k] for k in (1, 2, 4, 5))))
