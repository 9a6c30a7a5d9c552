import warnings

import numpy as np
import pytest

import fagcn.tensor as T
from fagcn.errors import ConfigError, NumericError
from fagcn.tensor import Tensor

# When a Hypothesis test fails, the hypothesis plugin imports this module
# while it writes the report. The import loads libcst, which touches a
# deprecated name of mypy_extensions; under the "error" warning filter that
# DeprecationWarning would end the whole run as an INTERNALERROR. Importing
# it once here, with the warning ignored, lets a failure report normally.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-6, entries=None) -> np.ndarray:
    """Central-difference gradient of a scalar function of ``x``, perturbing ``x``
    in place; ``entries`` (flat indices) probes only those, in order, the rest stay 0."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for k in range(flat.size) if entries is None else entries:
        orig = flat[k]
        flat[k] = orig + eps
        up = f()
        flat[k] = orig - eps
        down = f()
        flat[k] = orig
        out[k] = (up - down) / (2 * eps)
    return grad


def grad_check(loss_fn, params, eps: float, rng=None, samples_per_param=None) -> float:
    """Max of |taped - numeric| / max(1, |taped|) over the probed entries of
    the named ``params``: all of them, or ``samples_per_param`` per parameter
    drawn by ``rng``. ``loss_fn`` must be deterministic. An ``eps`` that is
    not > 0 is a ConfigError; a loss that is not finite, or a non-finite
    entry anywhere in a taped gradient, sampled or not, a NumericError."""
    if not eps > 0:
        raise ConfigError(f"grad_check eps must be positive, got {eps}")
    params = list(params)
    for _, p in params:
        p.zero_grad()
    with T.Tape() as tape:
        out = loss_fn()
        if not np.isfinite(out.data).all():
            raise NumericError("loss is not finite at the expansion point")
        tape.backward(out)
    worst = 0.0
    for name, p in params:  # the probes run untaped, so p.grad stays as the tape left it
        g = np.zeros(p.data.size) if p.grad is None else p.grad.reshape(-1)
        if not np.isfinite(g).all():
            raise NumericError(f"the taped gradient of {name} is not finite")
        if samples_per_param is None or samples_per_param >= p.data.size:
            picks = np.arange(p.data.size)
        elif rng is None:
            raise ConfigError("sampling entries requires a random generator")
        else:
            picks = rng.choice(p.data.size, size=samples_per_param, replace=False)
        numeric = numeric_gradient(lambda: loss_fn().item(), p.data, eps, picks).reshape(-1)[picks]
        if not np.isfinite(numeric).all():
            raise NumericError(f"non-finite loss while probing {name}")
        g = g[picks]
        worst = max(worst, (np.abs(g - numeric) / np.maximum(1.0, np.abs(g))).max(initial=0.0))
    for _, p in params:
        p.zero_grad()
    return float(worst)


def sum_all(x: Tensor) -> Tensor:
    """Every entry of ``x`` summed into a 1x1 tensor, as one taped op: the
    scalar the tests take gradients of."""
    return T._op(np.array([[x.data.sum()]]), (x,), (lambda g: np.full(x.data.shape, g[0, 0]),))
