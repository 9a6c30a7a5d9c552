"""Dense float64 matrices with taped reverse-mode differentiation.

All model math in this package runs through the operations below. Each
operation computes its result eagerly with numpy and, while a ``Tape`` is
active, records a closure that routes gradients back to its inputs.
Running the tape backwards (reverse recorded order) is therefore a valid
backpropagation schedule: an operation's output gradient is always
complete before its closure fires.

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

    ``requires_grad=False`` marks constants (adjacency matrices, label
    masks, bag-of-words inputs): no gradient is ever accumulated into
    them and operations with only constant inputs are not recorded.
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

    def accumulate_grad(self, g: Array) -> None:
        """Add a gradient contribution; ``g`` may alias shared memory."""
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _new(data: Array, requires_grad: bool) -> Tensor:
    # fast construction for op outputs, which are always well-formed
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = requires_grad
    return out


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
        """Seed d(loss)/d(loss)=1 and replay all steps in reverse order."""
        if loss.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar 1x1 loss, got {loss.shape}")
        loss.accumulate_grad(np.ones((1, 1)))
        for step in reversed(self._steps):
            step()


def current_tape() -> Tape | None:
    tapes = _ACTIVE.tapes
    return tapes[-1] if tapes else None


def _wants_tape(*inputs: Tensor) -> Tape | None:
    tapes = _ACTIVE.tapes
    if not tapes:
        return None
    for t in inputs:
        if t.requires_grad:
            return tapes[-1]
    return None


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _unbroadcast(g: Array, shape: tuple[int, int]) -> Array:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] > 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        g = g.sum(axis=1, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# binary operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b."""
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    out = _new(a.data @ b.data, a.requires_grad or b.requires_grad)
    tape = _wants_tape(a, b)
    if tape is not None:
        a_data, b_data = a.data, b.data

        def step() -> None:
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accumulate_owned(a, g @ b_data.T)
            if b.requires_grad:
                _accumulate_owned(b, a_data.T @ g)

        tape.record(step)
    return out


def _broadcastable(a: Tensor, b: Tensor) -> None:
    for da, db in zip(a.shape, b.shape):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"shapes {a.shape} and {b.shape} do not broadcast")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; 1-row or 1-column operands broadcast."""
    _broadcastable(a, b)
    out = _new(a.data + b.data, a.requires_grad or b.requires_grad)
    tape = _wants_tape(a, b)
    if tape is not None:

        def step() -> None:
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(g, b.data.shape))

        tape.record(step)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product with broadcasting."""
    _broadcastable(a, b)
    out = _new(a.data * b.data, a.requires_grad or b.requires_grad)
    tape = _wants_tape(a, b)
    if tape is not None:
        a_data, b_data = a.data, b.data

        def step() -> None:
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accumulate_owned(a, _unbroadcast(g * b_data, a_data.shape))
            if b.requires_grad:
                _accumulate_owned(b, _unbroadcast(g * a_data, b_data.shape))

        tape.record(step)
    return out


# ---------------------------------------------------------------------------
# unary operations
# ---------------------------------------------------------------------------

def scale(x: Tensor, factor: float) -> Tensor:
    out = _new(x.data * factor, x.requires_grad)
    tape = _wants_tape(x)
    if tape is not None:

        def step() -> None:
            if out.grad is not None:
                _accumulate_owned(x, out.grad * factor)

        tape.record(step)
    return out


def neg(x: Tensor) -> Tensor:
    return scale(x, -1.0)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = _new(y, x.requires_grad)
    tape = _wants_tape(x)
    if tape is not None:

        def step() -> None:
            if out.grad is not None:
                _accumulate_owned(x, out.grad * (1.0 - y * y))

        tape.record(step)
    return out


def relu(x: Tensor) -> Tensor:
    y = np.maximum(0.0, x.data)
    out = _new(y, x.requires_grad)
    tape = _wants_tape(x)
    if tape is not None:
        mask = x.data > 0.0

        def step() -> None:
            if out.grad is not None:
                _accumulate_owned(x, out.grad * mask)

        tape.record(step)
    return out


def rowwise_softmax(x: Tensor) -> Tensor:
    """Softmax over each row, with per-row max subtraction for stability."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = _new(y, x.requires_grad)
    tape = _wants_tape(x)
    if tape is not None:

        def step() -> None:
            g = out.grad
            if g is None:
                return
            dot = (g * y).sum(axis=1, keepdims=True)
            _accumulate_owned(x, y * (g - dot))

        tape.record(step)
    return out


def safe_log(x: Tensor, floor: float = 1e-12) -> Tensor:
    """Natural log with inputs clamped at ``floor`` so log(0) cannot occur."""
    clamped = np.maximum(x.data, floor)
    out = _new(np.log(clamped), x.requires_grad)
    tape = _wants_tape(x)
    if tape is not None:
        active = x.data > floor

        def step() -> None:
            if out.grad is not None:
                _accumulate_owned(x, out.grad * active / clamped)

        tape.record(step)
    return out


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
    out = _new(x.data * keep * factor, x.requires_grad)
    tape = _wants_tape(x)
    if tape is not None:

        def step() -> None:
            if out.grad is not None:
                _accumulate_owned(x, out.grad * keep * factor)

        tape.record(step)
    return out


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def transpose(x: Tensor) -> Tensor:
    out = _new(x.data.T.copy(), x.requires_grad)
    tape = _wants_tape(x)
    if tape is not None:

        def step() -> None:
            if out.grad is not None:
                x.accumulate_grad(out.grad.T)

        tape.record(step)
    return out


def take_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows by index (repeats allowed); backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ShapeError(f"row indices out of range for {x.shape}")
    out = _new(x.data[idx], x.requires_grad)
    tape = _wants_tape(x)
    if tape is not None:

        def step() -> None:
            g = out.grad
            if g is None:
                return
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            np.add.at(x.grad, idx, g)

        tape.record(step)
    return out


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack tensors vertically into one matrix."""
    if not parts:
        raise ShapeError("stack_rows needs at least one tensor")
    width = parts[0].data.shape[1]
    needs_grad = False
    for p in parts:
        if p.data.shape[1] != width:
            raise ShapeError(f"stack_rows column mismatch: {p.data.shape[1]} vs {width}")
        needs_grad = needs_grad or p.requires_grad
    out = _new(np.vstack([p.data for p in parts]), needs_grad)
    tape = _wants_tape(*parts)
    if tape is not None:
        offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

        def step() -> None:
            g = out.grad
            if g is None:
                return
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if p.requires_grad:
                    p.accumulate_grad(g[lo:hi])

        tape.record(step)
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_all(x: Tensor) -> Tensor:
    """Sum every entry into a 1x1 tensor."""
    out = _new(np.array([[x.data.sum()]]), x.requires_grad)
    tape = _wants_tape(x)
    if tape is not None:

        def step() -> None:
            if out.grad is not None:
                _accumulate_owned(x, np.full(x.data.shape, out.grad[0, 0]))

        tape.record(step)
    return out


def sum_rows(x: Tensor) -> Tensor:
    """Collapse all rows into a single row by summation."""
    out = _new(x.data.sum(axis=0, keepdims=True), x.requires_grad)
    tape = _wants_tape(x)
    if tape is not None:

        def step() -> None:
            if out.grad is not None:
                x.accumulate_grad(np.broadcast_to(out.grad, x.data.shape))

        tape.record(step)
    return out


def frobenius_sq(x: Tensor) -> Tensor:
    """Squared Frobenius norm as a 1x1 tensor."""
    out = _new(np.array([[float((x.data * x.data).sum())]]), x.requires_grad)
    tape = _wants_tape(x)
    if tape is not None:
        x_data = x.data

        def step() -> None:
            if out.grad is not None:
                _accumulate_owned(x, (2.0 * out.grad[0, 0]) * x_data)

        tape.record(step)
    return out


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
