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
that share work share it in their closure, as ``lstm._run_direction``'s
three share one reverse sweep through time. Two ops are recorded outside
this module, each as one step: ``lstm._run_direction``, a whole
recurrence, and ``model.loss``, the cross-entropy with both L2 penalties.

The two gathered segment products are each other's transpose, like the
SDDMM/SpMM pair of graph message passing: ``_dots`` forms one dot
product per gathered row and ``_sums`` one weighted sum of gathered rows
per segment. ``gather_dot`` runs ``_dots`` forward and ``_sums`` for the
gradient of its per-segment operand; ``gather_segment_sum`` runs
``_sums`` forward and ``_dots`` for the gradient of its weights.

Vectors are represented as 1-row matrices throughout.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

Array = np.ndarray


class Tensor:
    """A 2-D float64 matrix with an optional same-shape gradient slot.

    ``requires_grad=False`` marks constants (per-pair graph coefficients,
    bag-of-words inputs): no gradient is ever accumulated into them and
    operations with only constant inputs are not recorded.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
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


def _same_shape(a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"elementwise operands differ in shape: {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    _same_shape(a, b)
    return _op(a.data + b.data, (a, b), (lambda g: g.copy(), lambda g: g.copy()))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of two tensors of one shape."""
    _same_shape(a, b)
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


def _row_indices(indices: Sequence[int], x: Tensor) -> Array:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0])):
        raise ShapeError(f"row indices out of range for {x.shape}")
    return idx


def _scatter_rows(x: Tensor, idx: Array, g: Array, factor: Array | None = None) -> Array:
    # a new array of x's shape holding row t of g (times factor) summed
    # into row idx[t], scaling g in place; one bincount over the flattened
    # entries is several times faster than np.add.at
    if factor is not None:
        g *= factor
    flat = (idx[:, None] * x.cols + np.arange(x.cols)).ravel()
    return np.bincount(flat, g.ravel(), x.data.size).reshape(x.shape)


def take_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows by index (repeats allowed); backward scatter-adds."""
    idx = _row_indices(indices, x)
    return _op(x.data[idx], (x,), (lambda g: _scatter_rows(x, idx, g),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_all(x: Tensor) -> Tensor:
    """Sum every entry into a 1x1 tensor."""
    return _op(np.array([[x.data.sum()]]), (x,), (lambda g: np.full(x.data.shape, g[0, 0]),))


# ---------------------------------------------------------------------------
# segment operations
# ---------------------------------------------------------------------------

def _segments(starts: Sequence[int], total: int) -> tuple[Array, Array]:
    """Segment k holds rows starts[k] up to starts[k + 1] (the last up to
    ``total``), and none is empty. Returns the starts and each row's segment."""
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.diff(starts, append=total)
    if starts.ndim != 1 or starts.size == 0 or starts[0] != 0 or np.any(lengths <= 0):
        raise ShapeError(f"segment starts must rise strictly from 0 to below {total}")
    return starts, np.repeat(np.arange(starts.size), lengths)


def segment_softmax(x: Tensor, starts: Sequence[int]) -> Tensor:
    """Softmax over the rows of each segment, column by column, max-shifted."""
    starts, seg = _segments(starts, x.data.shape[0])
    e = np.exp(x.data - np.maximum.reduceat(x.data, starts)[seg])
    y = e / np.add.reduceat(e, starts)[seg]
    return _op(y, (x,), (lambda g: y * (g - np.add.reduceat(g * y, starts)[seg]),))


GATHER_BLOCK = 8192  # entries (64 KiB of float64) per gathered block in _dots


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


def _sums(w: Array, x: Array, idx: Array, starts: Array) -> Array:
    """Row k is the sum of w[t] * x[idx[t]] over the rows t of segment k."""
    rows = x[idx]
    rows *= w
    return np.add.reduceat(rows, starts)


def gather_dot(x: Tensor, rows: Sequence[int], y: Tensor, starts: Sequence[int]) -> Tensor:
    """Column whose row t is the dot product of x[rows[t]] and y[k], for
    the rows t of segment k: ``y`` holds one row per segment."""
    idx = _row_indices(rows, x)
    starts, seg = _segments(starts, idx.size)
    if y.data.shape != (starts.size, x.data.shape[1]):
        raise ShapeError(f"gather_dot: {starts.size} segments of {x.shape} rows, y {y.shape}")
    x_data, y_data = x.data, y.data
    return _op(_dots(x_data, idx, y_data, seg), (x, y),
               (lambda g: _scatter_rows(x, idx, y_data[seg], g),
                lambda g: _sums(g, x_data, idx, starts)))


def gather_segment_sum(weights: Tensor, x: Tensor, rows: Sequence[int],
                       starts: Sequence[int]) -> Tensor:
    """Row k is the sum of weights[t] * x[rows[t]] over the rows t of segment k.
    The gathered rows live only inside the forward and backward kernels,
    so the tape keeps no (len(rows) x cols) matrix alive."""
    idx = _row_indices(rows, x)
    if weights.data.shape != (idx.size, 1):
        raise ShapeError(f"weights of shape {weights.shape} do not fit {idx.size} gathered rows")
    starts, seg = _segments(starts, idx.size)
    w_data, x_data = weights.data, x.data
    return _op(_sums(w_data, x_data, idx, starts), (weights, x),
               (lambda g: _dots(x_data, idx, g, seg),
                lambda g: _scatter_rows(x, idx, g[seg], w_data)))


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Iterable[tuple[str, Tensor]],
    eps: float,
    rng: np.random.Generator | None = None,
    samples_per_param: int | None = None,
) -> float:
    """Compare taped gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must be deterministic (dropout off, any randomness fixed)
    and is called once under a tape for the analytic gradients, then
    twice per probed entry without a tape. Returns the maximum of
    |analytic - numeric| / max(1, |analytic|) over the probed entries;
    with ``samples_per_param=None`` every entry of every parameter is
    probed, otherwise that many entries are sampled per parameter.
    """
    if eps <= 0:
        raise ConfigError(f"grad_check eps must be positive, got {eps}")
    param_list = list(params)
    for _, p in param_list:
        p.zero_grad()
    with Tape() as tape:
        out = loss_fn()
        if not np.isfinite(out.data).all():
            raise NumericError("loss is not finite at the expansion point")
        tape.backward(out)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in param_list}

    worst = 0.0
    for name, p in param_list:
        flat = p.data.reshape(-1)
        n_entries = flat.size
        if samples_per_param is None or samples_per_param >= n_entries:
            picks = np.arange(n_entries)
        else:
            if rng is None:
                raise ConfigError("sampling entries requires a random generator")
            picks = rng.choice(n_entries, size=samples_per_param, replace=False)
        ana_flat = analytic[name].reshape(-1)
        for k in picks:
            original = flat[k]
            flat[k] = original + eps
            up = loss_fn().item()
            flat[k] = original - eps
            down = loss_fn().item()
            flat[k] = original
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError(f"non-finite loss while probing {name}")
            numeric = (up - down) / (2.0 * eps)
            err = abs(ana_flat[k] - numeric) / max(1.0, abs(ana_flat[k]))
            worst = max(worst, err)
    for _, p in param_list:
        p.zero_grad()
    return worst
