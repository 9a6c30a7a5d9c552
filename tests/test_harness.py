"""The test harness itself: a failing property test is reported like any
other failure, under the project's "error" warning filter, and the
finite-difference oracle ``grad_check`` catches broken taped gradients."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fagcn.tensor as T
from fagcn.errors import ConfigError, NumericError
from fagcn.tensor import Tape, Tensor

from conftest import grad_check, sum_all

TESTS = Path(__file__).resolve().parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    assert True
'''


def test_failing_property_is_reported_not_an_internal_error(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(TESTS.parent / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_failing_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    report = run.stdout + run.stderr
    assert "INTERNALERROR" not in report
    assert run.returncode == 1, report
    assert "1 failed, 1 passed" in report
    assert "assert 0 < 0" in report


class TestGradCheck:
    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
    def test_linear_function(self, eps):
        params = [("theta", Tensor(0.1 * np.arange(6.0).reshape(2, 3)))]

        def loss_fn():
            return sum_all(params[0][1])

        err = grad_check(loss_fn, params, eps=eps)
        assert err < 1e-10

    def test_quadratic_function(self, rng):
        theta = Tensor(rng.standard_normal((3, 3)))

        def loss_fn():
            return sum_all(T.mul(theta, theta))

        err = grad_check(loss_fn, [("theta", theta)], eps=1e-5)
        assert err < 1e-8
        # analytic gradient of ||theta||^2 is 2 * theta
        with Tape() as tape:
            tape.backward(loss_fn())
        np.testing.assert_allclose(theta.grad, 2.0 * theta.data, atol=1e-12)

    def test_non_finite_loss_raises(self):
        bad = Tensor([[np.inf]])

        def loss_fn():
            return sum_all(bad)

        with pytest.raises(NumericError):
            grad_check(loss_fn, [("bad", bad)], eps=1e-5)

    @pytest.mark.parametrize("eps", [0.0, -1e-5, np.nan])
    def test_invalid_eps(self, eps):
        with pytest.raises(ConfigError, match="eps must be positive"):
            grad_check(lambda: Tensor([[0.0]]), [], eps=eps)

    @pytest.mark.parametrize("samples_per_param", [None, 1], ids=["every-entry", "sampled"])
    @pytest.mark.parametrize("entry, value", [(0, np.nan), (2, np.nan), (0, np.inf)],
                             ids=["nan-at-0", "nan-at-2", "inf-at-0"])
    def test_a_non_finite_taped_gradient_is_a_numeric_error(self, entry, value,
                                                            samples_per_param):
        # a sum whose taped gradient is broken at one entry; one sample probes only entry 5
        theta = Tensor(0.1 * np.arange(6.0).reshape(2, 3))
        taped = np.ones((2, 3))
        taped.flat[entry] = value
        with pytest.raises(NumericError, match="taped gradient of theta"):
            grad_check(lambda: T._op(np.array([[theta.data.sum()]]), (theta,),
                                     (lambda g: g[0, 0] * taped,)),
                       [("theta", theta)], eps=1e-5, rng=np.random.default_rng(0),
                       samples_per_param=samples_per_param)
