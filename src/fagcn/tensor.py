"""Dense float64 matrices with taped reverse-mode differentiation.

All model math in this package runs through the operations below. Each
operation computes its result eagerly with numpy and, while a ``Tape`` is
active, records a step that routes gradients back to its inputs.
Running the tape backwards (reverse recorded order) is therefore a valid
backpropagation schedule: an operation's output gradient is always
complete before its step fires.

Every operation records through ``_op``: it passes its result, its
inputs and one gradient function per input (the vector-Jacobian
product), and ``_op`` owns the rest of the protocol. Gradient functions
that share work share it in their closure, as ``lstm.bilstm_encode``'s
five share both directions' sweeps back through time. Two ops are
recorded outside this module, each as one step: ``lstm.bilstm_encode``,
the embedding lookup and both whole recurrences, and ``model.loss``, the
cross-entropy with both L2 penalties.

A segment sum whose segments are known ahead can run as a ``Sweep``: its
segments packed longest first (``packed``, the layout the encoder steps
its ragged sequences in), so step k adds every segment's k-th entry at
once and the few longest segments finish in one ``_sums``. Graph
propagation runs this way, forward and backward (``model.PairOperator``).

The two gathered segment products run over a ``GatherLayout``, entries
that gather rows of an operand in segments, and are each other's
transpose, like the SDDMM/SpMM pair of graph message passing. Forward,
``_dots`` forms one dot product per entry and ``_sums`` one weighted sum
of gathered rows per segment; both gather in blocks of ``GATHER_BLOCK``
entries and build no sweep, so their forward passes sort nothing. Backward,
``gather_dot`` and ``gather_segment_sum`` sum over the layout's two
sweeps, each built by the first backward that needs it and kept with the
layout: over its segments (``GatherLayout.segment_sums``) and over its
entries grouped by gathered row (``GatherLayout.row_sums``). The
gradient of ``gather_segment_sum``'s weights is a ``_dots``. The
encoder projects each distinct row its token layout gathers once
(``GatherLayout.distinct``, in the row sweep's order, which its first
call builds, taped or not), and sums its gate gradients per term over
that sweep (``GatherLayout.distinct_sums``); ``take_rows``
scatters with one bincount, which beats a sweep on self attention's
width-1 scores. ``_swept_sums`` gives its rows in the sweep's order,
which the row sums land in place and ``Sweep.unswept`` puts in segment
order.

Vectors are represented as 1-row matrices throughout. The tests check
every gradient function against central differences (``tests/conftest.py``).
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ShapeError

Array = np.ndarray


class Tensor:
    """A 2-D float64 matrix with an optional same-shape gradient slot; a
    scalar or a vector is a ShapeError, not promoted to a matrix.

    ``requires_grad=False`` marks constants (per-pair graph coefficients,
    bag-of-words inputs): no gradient is ever accumulated into them and
    operations with only constant inputs are not recorded.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D matrices, got shape {arr.shape}")
        self.data = arr
        self.grad: Array | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def zero_grad(self) -> None:
        """Drop any accumulated gradient; a fresh one is allocated lazily."""
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate_owned(t: Tensor, g: Array) -> None:
    # for gradients freshly allocated for exactly this tensor; stores the
    # buffer directly instead of copying
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


class _TapeStack(threading.local):
    """The tapes entered on the current thread, innermost last. Each
    thread has its own stack, so concurrent forward passes (threaded
    sweep cells) never record onto each other's tapes."""

    def __init__(self):
        self.tapes: list[Tape] = []


_ACTIVE = _TapeStack()


class Tape:
    """Ordered record of differentiable operations (a Wengert list).

    Use as a context manager around a forward pass, then call
    ``backward(loss)``. Operations executed while no tape is active run
    forward-only, which is what evaluation and finite differencing use.
    A fresh tape per training step (plus ``zero_grad`` on the parameters)
    guarantees no gradient contribution leaks between steps.
    """

    def __init__(self):
        self._steps: list[Callable[[], None]] = []

    def __enter__(self) -> "Tape":
        _ACTIVE.tapes.append(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        _ACTIVE.tapes.pop()
        return False

    def __len__(self) -> int:
        return len(self._steps)

    def record(self, step: Callable[[], None]) -> None:
        self._steps.append(step)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and replay all steps in reverse order.
        Each step is dropped once it has run, with the activations only it
        holds, so a tape runs backward once."""
        if loss.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar 1x1 loss, got {loss.shape}")
        _accumulate_owned(loss, np.ones((1, 1)))
        while self._steps:
            self._steps.pop()()


def _op(data: Array, inputs: Sequence[Tensor],
        grads: Sequence[Callable[[Array], Array]]) -> Tensor:
    """The result ``data`` of an op on ``inputs``, recorded on the active tape.

    ``grads[k]`` maps the output gradient to input k's gradient contribution
    (its vector-Jacobian product) and must return a new array, which the
    input then owns. It is called only for an input that requires a
    gradient, and only once the output has received one, in input order
    within one step, so the first can do work that all of them share.
    """
    out = Tensor.__new__(Tensor)  # op results are well-formed: skip __init__'s checks
    out.data, out.grad = data, None
    out.requires_grad = any(t.requires_grad for t in inputs)
    if out.requires_grad and _ACTIVE.tapes:

        def step() -> None:
            g = out.grad
            if g is None:
                return
            for t, grad in zip(inputs, grads):
                if t.requires_grad:
                    _accumulate_owned(t, grad(g))

        _ACTIVE.tapes[-1].record(step)
    return out


def _recording(inputs: Sequence[Tensor]) -> bool:
    """Whether ``_op`` would record an op on ``inputs`` now."""
    return bool(_ACTIVE.tapes) and any(t.requires_grad for t in inputs)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


# ---------------------------------------------------------------------------
# binary operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b."""
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data
    return _op(a_data @ b_data, (a, b), (lambda g: g @ b_data.T, lambda g: a_data.T @ g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of two tensors of one shape."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"elementwise operands differ in shape: {a.shape} and {b.shape}")
    a_data, b_data = a.data, b.data
    return _op(a_data * b_data, (a, b), (lambda g: g * b_data, lambda g: g * a_data))


# ---------------------------------------------------------------------------
# unary operations
# ---------------------------------------------------------------------------

def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _op(y, (x,), (lambda g: g * (1.0 - y * y),))


def relu(x: Tensor) -> Tensor:
    x_data = x.data
    return _op(np.maximum(0.0, x_data), (x,), (lambda g: g * (x_data > 0.0),))


def rowwise_softmax(x: Tensor) -> Tensor:
    """Softmax over each row, with per-row max subtraction for stability."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    return _op(y, (x,), (lambda g: y * (g - (g * y).sum(axis=1, keepdims=True)),))


def dropout(x: Tensor, p: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout: zero entries with probability p, scale survivors.

    Survivors are scaled by 1/(1-p) at training time so evaluation needs
    no rescaling; with ``training=False`` (or p=0) the input is returned
    unchanged.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in training mode needs a random generator")
    keep = rng.random(x.data.shape) >= p
    factor = 1.0 / (1.0 - p)
    return _op(x.data * keep * factor, (x,), (lambda g: g * keep * factor,))


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def transpose(x: Tensor) -> Tensor:
    return _op(x.data.T.copy(), (x,), (lambda g: g.T.copy(),))


def _integers(values: Sequence[int], what: str) -> Array:
    # an intp array of values; refuses floats and bools, which a cast to
    # intp would truncate or read as 0 and 1
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ShapeError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.intp, copy=False)


def _row_indices(indices: Sequence[int], x: Tensor) -> Array:
    idx = _integers(indices, "row indices")
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0])):
        raise ShapeError(f"row indices out of range for {x.shape}")
    return idx


def take_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows by index (repeats allowed); backward scatter-adds with
    one bincount over the flattened entries. On self attention's width-1
    scores that is several times faster than np.add.at and than a row
    sweep (``GatherLayout.row_sums``)."""
    idx = _row_indices(indices, x)

    def scatter(g: Array) -> Array:
        flat = (idx[:, None] * x.cols + np.arange(x.cols)).ravel()
        return np.bincount(flat, g.ravel(), x.data.size).reshape(x.shape)

    return _op(x.data[idx], (x,), (scatter,))


# ---------------------------------------------------------------------------
# segment operations
# ---------------------------------------------------------------------------

def _segments(starts: Sequence[int], total: int) -> tuple[Array, Array]:
    """Segment k holds rows starts[k] up to starts[k + 1] (the last up to
    ``total``), and none is empty. Returns the starts and each row's segment."""
    starts = _integers(starts, "segment starts")
    lengths = np.diff(starts, append=total)
    if starts.ndim != 1 or starts.size == 0 or starts[0] != 0 or np.any(lengths <= 0):
        raise ShapeError(f"segment starts must rise strictly from 0 to below {total}")
    return starts, np.repeat(np.arange(starts.size), lengths)


def segment_softmax(x: Tensor, starts: Sequence[int], seg: Array | None = None) -> Tensor:
    """Softmax over the rows of each segment, column by column, max-shifted.
    A caller that holds ``_segments``' checked starts and row segments
    passes both, and they are not rebuilt."""
    if seg is None:
        starts, seg = _segments(starts, x.data.shape[0])
    e = np.exp(x.data - np.maximum.reduceat(x.data, starts)[seg])
    y = e / np.add.reduceat(e, starts)[seg]
    return _op(y, (x,), (lambda g: y * (g - np.add.reduceat(g * y, starts)[seg]),))


def segment_sum(x: Tensor, starts: Sequence[int]) -> Tensor:
    """Row k is the sum of the rows of segment k of ``x``, in row order;
    the gradient repeats row k of the output gradient over those rows."""
    starts, seg = _segments(starts, x.data.shape[0])
    return _op(np.add.reduceat(x.data, starts), (x,), (lambda g: g[seg],))


GATHER_BLOCK = 8192  # entries (64 KiB of float64) per gathered block in _dots and _sums


def _dots(x: Array, idx: Array, y: Array, seg: Array) -> Array:
    """Column whose row t is the dot product of x[idx[t]] and y[seg[t]].

    Gathers blocks of at most ``GATHER_BLOCK`` entries. Two whole
    (idx.size x cols) gathers are large enough that the allocator maps
    fresh pages for them on some calls and reuses freed ones on others,
    so the call's time would depend on the heap's state; small blocks are
    always reused. Each row's dot product is the same either way."""
    dots = np.empty((idx.size, 1))
    step = max(1, GATHER_BLOCK // max(x.shape[1], 1))
    for lo in range(0, idx.size, step):
        block = slice(lo, lo + step)
        np.einsum("ij,ij->i", x[idx[block]], y[seg[block]], out=dots[block, 0])
    return dots


def _sums(w: Array | None, x: Array, idx: Array, starts: Array) -> Array:
    """Row k is the sum of w[t] * x[idx[t]] over the rows t of segment k;
    with no ``w``, of the rows x[idx[t]].

    Gathers blocks of at most ``GATHER_BLOCK`` entries, as ``_dots`` does.
    A block holds whole segments, so each segment that fits in one is
    summed exactly as one ``np.add.reduceat`` over all rows sums it; a
    longer segment is summed in block-sized pieces."""
    sums = np.empty((starts.size, x.shape[1]))
    step = max(1, GATHER_BLOCK // max(x.shape[1], 1))
    bounds = np.append(starts, idx.size)
    k = 0
    while k < starts.size:
        lo = bounds[k]
        j = np.searchsorted(bounds, lo + step, side="right") - 1  # segments k..j-1 fit
        if j > k:
            rows = x[idx[lo:bounds[j]]]
            if w is not None:
                rows *= w[lo:bounds[j]]
            np.add.reduceat(rows, starts[k:j] - lo, out=sums[k:j])
        else:
            j, hi = k + 1, bounds[k + 1]
            sums[k] = _sums(w if w is None else w[lo:hi], x, idx[lo:hi],
                            np.arange(0, hi - lo, step)).sum(axis=0)
        k = j
    return sums


def packed(lengths: Array) -> tuple[Array, Array, Array]:
    """Segments of the given lengths packed longest first, as recurrent
    kernels batch ragged sequences (Appleyard et al., arXiv 1604.01946):
    step k advances entry k of each of the ``batch[k]`` segments longer
    than k. Returns ``(batch, lane, step)``: visit r, in step order,
    advances segment ``lane[r]`` by its entry ``step[r]``. Each step's
    lanes are a prefix of one order, longest first, ties in index order."""
    order = np.argsort(-lengths, kind="stable")
    batch = lengths.size - np.cumsum(np.bincount(lengths))[:-1]
    step = np.repeat(np.arange(batch.size), batch)
    lane = order[np.arange(step.size) - np.repeat(np.cumsum(batch) - batch, batch)]
    return batch, lane, step


class Sweep(NamedTuple):
    """A segment sum's entries packed longest segment first (``packed``).

    Step k of the sweep adds the k-th entries of the first ``batch[k]``
    segments of ``order``, so a step's temporaries have at most one row
    per segment. It stops at the first step where fewer segments remain
    than steps have run, so a few long segments cost no step each: those
    left, the longest, finish in one ``_sums`` over their remaining
    entries, segment j's from ``tail[j]``. ``entries`` lists the entries
    visited: the swept steps' in step order, then the tail's segment by
    segment."""

    order: Array
    batch: Array
    entries: Array
    tail: Array

    @classmethod
    def of(cls, starts: Array, total: int) -> "Sweep":
        """The sweep over one or more segments that start at ``starts``,
        the last one ending at ``total``; none may be empty."""
        lengths = np.diff(starts, append=total)
        batch, lane, step = packed(lengths)
        left = np.append(batch, 0)  # segments left at each step
        stop = np.argmax(left < np.arange(left.size))
        swept = batch[:stop].sum()
        hubs = lane[swept:swept + left[stop]]
        rest = lengths[hubs] - stop
        tail = np.cumsum(rest) - rest
        entries = np.concatenate((starts[lane[:swept]] + step[:swept],
                                  np.repeat(starts[hubs] + stop - tail, rest)
                                  + np.arange(rest.sum())))
        return cls(lane[:batch[0]].copy(), batch[:stop].copy(), entries, tail)

    def unswept(self, sums: Array) -> Array:
        """``_swept_sums``' rows, one per segment in sweep order, put in
        segment order."""
        out = np.empty_like(sums)
        out[self.order] = sums
        return out


def _swept_sums(w: Array | None, x: Array, idx: Array, sweep: Sweep) -> Array:
    """Row s is the sum of w[e] * x[idx[e]] over the entries e of segment
    ``sweep.order[s]``, with ``w`` and ``idx`` listed in ``sweep.entries``
    order; with no ``w``, of the rows x[idx[e]]. Entries are added one step
    at a time, in segment order, before the tail's. The first step gathers
    into the result, each later one into one reused buffer."""
    sums = np.empty((sweep.order.size, x.shape[1]))
    buffer = np.empty((sweep.batch[1:2].sum(), x.shape[1]))  # a second step's rows
    lo = 0
    for b in sweep.batch:
        rows = buffer[:b] if lo else sums
        x.take(idx[lo:lo + b], axis=0, out=rows, mode="clip")  # idx is in range
        if w is not None:
            rows *= w[lo:lo + b]
        if lo:
            sums[:b] += rows
        lo += b
    if sweep.tail.size:
        sums[:sweep.tail.size] += _sums(w if w is None else w[lo:], x, idx[lo:], sweep.tail)
    return sums


class GatherLayout:
    """Entries t that gather row ``rows[t]`` of an operand, in segments:
    segment k holds the entries from ``starts[k]`` up to ``starts[k + 1]``
    (the last up to the end), and none is empty; ``seg[t]`` is entry t's
    segment. The layout of ``gather_dot`` and ``gather_segment_sum``.

    Its sweeps, its ``packing`` and its ``distinct`` rows are built on
    first use, which is a gradient's (or a recurrence's), and kept:
    ``by_segment`` over the segments, and ``by_row`` over the entries
    grouped by the row they gather. A layout held across calls, as a model
    binding holds its (pair, token) layout and a corpus its tokens, sorts
    once."""

    def __init__(self, rows: Sequence[int], starts: Sequence[int]):
        idx = _integers(rows, "row indices")
        if idx.ndim != 1 or idx.size == 0:
            raise ShapeError(f"a gather layout needs a non-empty row of indices, got {idx.shape}")
        if idx.min() < 0:
            raise ShapeError("row indices must be >= 0")
        self.rows = idx
        self.starts, self.seg = _segments(starts, idx.size)
        self.span = int(idx.max()) + 1  # the rows an operand needs

    @cached_property
    def packing(self) -> tuple[Array, Array, Array]:
        """``packed`` over the segments: the order a recurrence steps them in."""
        return packed(np.diff(self.starts, append=self.rows.size))

    @cached_property
    def by_segment(self) -> tuple[Sweep, Array]:
        """The sweep over the segments, and the row each swept entry gathers."""
        sweep = Sweep.of(self.starts, self.rows.size)
        return sweep, self.rows[sweep.entries]

    @cached_property
    def by_row(self) -> tuple[Sweep, Array, Array]:
        """The sweep over the entries grouped by the row they gather, each
        group in entry order, listing this layout's entries; the segment of
        each entry it visits; and the row of each group, in the sweep's
        order, which is the order of ``_swept_sums``' rows."""
        order = np.argsort(self.rows, kind="stable")
        rows = self.rows[order]
        firsts = np.flatnonzero(np.diff(rows, prepend=-1))
        sweep = Sweep.of(firsts, rows.size)
        sweep = sweep._replace(entries=order[sweep.entries])
        return sweep, self.seg[sweep.entries], rows[firsts][sweep.order]

    @cached_property
    def distinct(self) -> tuple[Array, Array]:
        """The distinct rows the entries gather, in the row sweep's order
        (``by_row``), and the position of each entry's row among them."""
        land = self.by_row[2]
        at = np.empty(self.span, dtype=np.intp)
        at[land] = np.arange(land.size)
        return land, at[self.rows]

    def segment_sums(self, w: Array, x: Array) -> Array:
        """Row k is the sum of w[t] * x[rows[t]] over the entries t of segment
        k, as ``_sums`` forms it, over the segment sweep (``_swept_sums``)."""
        sweep, rows = self.by_segment
        return sweep.unswept(_swept_sums(w[sweep.entries], x, rows, sweep))

    def row_sums(self, w: Array, y: Array, shape: tuple[int, int]) -> Array:
        """An array of ``shape`` whose row r is the sum of w[t] * y[seg[t]]
        over the entries t that gather row r, in entry order, over the row
        sweep. A row that no entry gathers is zero."""
        sweep, seg, land = self.by_row
        out = np.zeros(shape)
        out[land] = _swept_sums(w[sweep.entries], y, seg, sweep)
        return out

    def distinct_sums(self, y: Array, at: Array) -> Array:
        """Row j is the sum of the rows y[at[t]] over the entries t that
        gather the j-th distinct row (``distinct``), in entry order, over
        the row sweep."""
        sweep = self.by_row[0]
        return _swept_sums(None, y, at[sweep.entries], sweep)


def _check_gathers(x: Tensor, layout: GatherLayout) -> None:
    if layout.span > x.data.shape[0]:
        raise ShapeError(f"row indices out of range for {x.shape}")


def gather_dot(x: Tensor, layout: GatherLayout, y: Tensor) -> Tensor:
    """Column whose row t is the dot product of x[layout.rows[t]] and y[k],
    for the entries t of segment k: ``y`` holds one row per segment."""
    _check_gathers(x, layout)
    segments = layout.starts.size
    if y.data.shape != (segments, x.data.shape[1]):
        raise ShapeError(f"gather_dot: {segments} segments of {x.shape} rows, y {y.shape}")
    x_data, y_data = x.data, y.data
    return _op(_dots(x_data, layout.rows, y_data, layout.seg), (x, y),
               (lambda g: layout.row_sums(g, y_data, x_data.shape),
                lambda g: layout.segment_sums(g, x_data)))


def gather_segment_sum(weights: Tensor, x: Tensor, layout: GatherLayout) -> Tensor:
    """Row k is the sum of weights[t] * x[layout.rows[t]] over the entries t
    of segment k. The gathered rows live only inside the forward and
    backward kernels, so the tape keeps no (entries x cols) matrix alive."""
    _check_gathers(x, layout)
    if weights.data.shape != (layout.rows.size, 1):
        raise ShapeError(f"weights of shape {weights.shape} do not fit "
                         f"{layout.rows.size} gathered rows")
    w_data, x_data = weights.data, x.data
    return _op(_sums(w_data, x_data, layout.rows, layout.starts), (weights, x),
               (lambda g: _dots(x_data, layout.rows, g, layout.seg),
                lambda g: layout.row_sums(w_data, g, x_data.shape)))
