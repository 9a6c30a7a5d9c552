import warnings

import numpy as np
import pytest

import fagcn.tensor as T
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


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, entry by entry."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        up = f()
        flat[k] = orig - eps
        down = f()
        flat[k] = orig
        out[k] = (up - down) / (2 * eps)
    return grad


def sum_all(x: Tensor) -> Tensor:
    """Every entry of ``x`` summed into a 1x1 tensor, as one taped op: the
    scalar the tests take gradients of."""
    return T._op(np.array([[x.data.sum()]]), (x,), (lambda g: np.full(x.data.shape, g[0, 0]),))
