"""Bidirectional LSTM encoder producing one dense semantic vector per
token occurrence in a node's content.

The encoder runs on the segment layout: the tokens of every node are
stacked in one array, node i's from entry ``starts[i]``, and the
embedding lookup, both directions and their sum are one taped operation.
Its input side runs once per distinct term, not per token: both paths
read a token's gate pre-activations from one projection of the terms
the tokens use (``_project``), and advance the recurrence by ``_step``.
While a tape records, ``_run_direction`` keeps every token's gates and
cell state for the reverse sweep and sums the gate gradients per term
before its input products; otherwise ``_forward_only`` keeps only the
output.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

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


def _project(params: LstmDirectionParams, x: np.ndarray) -> np.ndarray:
    """P = x @ W_x + b, the input side of the gate pre-activations of each
    row of ``x``; both encoder paths read a token's gates from it."""
    proj = x @ params.weight.data[:params.embed_dim]
    proj += params.bias.data
    return proj


def _run_direction(params: LstmDirectionParams, x: np.ndarray, tokens: T.GatherLayout,
                   visits: np.ndarray) -> tuple[np.ndarray, Callable]:
    """The recurrence over the entries of ``tokens``, advanced in the order
    ``visits``, and the function that maps its output gradient to the
    gradients of ``x``, the weight and the bias. Entry t is embedded as
    row ``tokens.distinct[1][t]`` of ``x``, one row per distinct term.
    Outputs come back in entry order. Per step (``_step``), gates f, i, o
    are sigmoids and the cell candidate g a tanh of [x_t, h_{t-1}] times
    the gate weight plus bias; c_t = f*c_{t-1} + i*g and h_t = o*tanh(c_t),
    from zero states.

    After Appleyard et al. (arXiv 1604.01946), the input projection of
    every distinct term is one product (``_project``) and the time loop
    carries only ``h @ W_h``. Step t advances the first ``batch[t]``
    carried states, one visit each, so the loop runs once per position of
    the longest sequence, without padding. It keeps the (tokens x 4d) gate
    and (tokens x d) cell buffers for one reverse sweep over the same
    visits. The sweep leaves the gate gradients dz in the gate buffer, in
    visit order; their sums per term over the layout's row sweep
    (``GatherLayout.distinct_sums``) give the gradients of ``x`` and
    ``W_x``, so those products run at vocabulary size, not token count.
    ``W_x`` and ``W_h`` are row views of the stacked gate weight, not
    rebuilt copies; the weight still holds its forward values when the
    tape runs.
    """
    d, embed_dim, n = params.feature_dim, params.embed_dim, visits.size
    batch = tokens.packing[0]
    offsets = np.concatenate(([0], np.cumsum(batch)))
    w_x, w_h = params.weight.data[:embed_dim], params.weight.data[embed_dim:]
    # f, i, g, o side by side, in visit order
    gates = _project(params, x)[tokens.distinct[1][visits]]
    cs, out_data = np.empty((n, d)), np.empty((n, d))
    h = c = np.zeros((batch[0], d))
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        active = hi - lo
        z = gates[lo:hi]
        z += h[:active] @ w_h
        c, h = _step(z, c[:active])
        cs[lo:hi], out_data[visits[lo:hi]] = c, h

    def sweep_back(grad: np.ndarray) -> None:
        # writes the gate pre-activation gradients over ``gates``, step t's
        # rows once step t has read them
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

    def gradients(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The gradients of x, the weight and the bias. The reverse sweep
        overwrites ``gates`` and frees the cell states, so this runs once:
        the tape runs backward once."""
        nonlocal cs
        sweep_back(grad)
        cs = None
        # visit r >= batch[0] follows visit r - batch[t - 1] of its sequence;
        # the first visits start from h = 0 and add nothing to dW_h
        prev = np.arange(batch[0], n) - np.repeat(batch[:-1], batch[1:])
        dw_h = out_data[visits[prev]].T @ gates[batch[0]:]
        at = np.empty(n, dtype=np.intp)
        at[visits] = np.arange(n)  # the gate row of each entry
        sums = tokens.distinct_sums(gates, at)  # dz summed per term
        return sums @ w_x.T, np.vstack((x.T @ sums, dw_h)), gates.sum(axis=0, keepdims=True)

    return out_data, gradients


def _forward_only(params: LstmDirectionParams, x: np.ndarray, tokens: T.GatherLayout,
                  visits: np.ndarray) -> np.ndarray:
    """``_run_direction``'s output, keeping no other buffer of token size.
    Lanes run in blocks of at most ``LANE_BLOCK`` through all their steps,
    and a step reads its rows of P (``_project``) and adds ``h @ W_h``."""
    d, e = params.feature_dim, params.embed_dim
    proj, rows, batch = _project(params, x), tokens.distinct[1], tokens.packing[0]
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
                  tokens: T.GatherLayout) -> Tensor:
    """Encode token sequences with both directions combined, as one taped
    operation over ``table`` and both directions' weights.

    Row t of ``table`` embeds token t. Entry k of ``tokens`` gathers the
    table row of the k-th token, and each of its segments is one
    sequence. The backward direction runs over each sequence reversed,
    and the two outputs are summed per position: one row per token, in
    original order. Sequences are packed longest first (``tokens.packing``):
    step t advances token t of every sequence longer than t. Both paths
    read only the table rows that ``tokens`` uses (``tokens.distinct``),
    and with no tape recording both directions run forward-only. The
    table's gradient is S_f W_xf^T + S_b W_xb^T on those rows and zero on
    the others, where S sums a direction's gate gradients per term over
    the layout's row sweep, which a corpus builds once.
    """
    if fwd.embed_dim != bwd.embed_dim or fwd.feature_dim != bwd.feature_dim:
        raise ShapeError("forward/backward parameter dimensions disagree")
    if table.cols != fwd.embed_dim:
        raise ShapeError(
            f"sequence width {table.cols} does not match embedding dim {fwd.embed_dim}")
    T._check_gathers(table, tokens)
    starts, n = tokens.starts, tokens.rows.size
    lengths = np.diff(starts, append=n)
    _, lane, step = tokens.packing
    directions = ((fwd, starts[lane] + step), (bwd, starts[lane] + lengths[lane] - 1 - step))
    inputs = (table, fwd.weight, fwd.bias, bwd.weight, bwd.bias)
    terms = tokens.distinct[0]
    x = table.data[terms]
    if not T._recording(inputs):
        ahead, behind = (_forward_only(p, x, tokens, v) for p, v in directions)
        ahead += behind
        return T._op(ahead, inputs, ())
    (ahead, grads_f), (behind, grads_b) = (_run_direction(p, x, tokens, v) for p, v in directions)
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
        out = np.zeros(table.shape)
        out[terms] = dx
        return out

    return T._op(ahead + behind, inputs,
                 (table_grad, *(lambda grad, k=k: swept(grad)[k] for k in (1, 2, 4, 5))))
