"""Timings scaled to a fixed reference kernel, so a shared host's speed drops out.

A shared host changes speed by up to 1.6x for seconds at a time (other
tenants' load on the same cores and caches), which moves every wall-clock
median by more than a regression bound. The same change slows a fixed
reference kernel that does the same kind of work, so each timed call is
divided by reference passes run right before and right after it. A scaled
time reads as the wall-clock time on a machine where one reference pass
takes the kernel's nominal time.

Work of different kinds slows by different amounts, so there are two
kernels and each workload names the one that resembles its hot loop:

- ``interpreter``: small-array numpy calls from a Python loop, with a little
  BLAS and memory traffic, like the per-token Bi-LSTM and the per-pair
  attention.
- ``dense``: thin products with a 32 MiB matrix, like the dense n x n
  propagation of the bag-of-words GCN.

In one slow spell on a 2-vCPU Xeon VM, the interpreter kernel slowed 1.6x
and the dense one 1.32x, while the GCN's evaluate() slowed 1.35x.

Neither kernel uses the package, so no change to the package can move them.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

PASSES = 3          # reference passes after each timed call
WARMUP_PASSES = 3   # untimed passes that fault in pages and caches first

_rng = np.random.default_rng(0)
_SMALL = 0.1 * _rng.standard_normal((16, 16))
_VEC = _rng.standard_normal(16)
_WIDE = _rng.standard_normal((384, 384))
_TALL = _rng.standard_normal((384, 64))
_STREAM = _rng.standard_normal(1 << 19)   # 4 MiB


def interpreter_pass() -> None:
    x, kept = _VEC, {}
    for i in range(2400):
        x = np.tanh(_SMALL @ x + _VEC)
        kept[i & 63] = (i, x)
    for _ in range(5):
        _WIDE @ _TALL
    for _ in range(8):
        _STREAM.sum()


@functools.cache
def _dense_operands() -> tuple[np.ndarray, np.ndarray]:
    """Made on first use, so only a workload that uses them holds them."""
    rng = np.random.default_rng(1)
    return rng.standard_normal((2048, 2048)), rng.standard_normal((2048, 16))


def dense_pass() -> None:
    square, thin = _dense_operands()
    for _ in range(2):
        square @ thin


# Kernel and its nominal seconds per pass: about what one pass took on a
# shared 2-vCPU Xeon VM with one BLAS thread. It only sets the scale of the
# reported numbers.
KERNELS = {"interpreter": (interpreter_pass, 0.0075), "dense": (dense_pass, 0.012)}


def reference_pass(kernel: str) -> float:
    """Run a reference kernel once and return its wall-clock seconds."""
    run = KERNELS[kernel][0]
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


class ReferenceClock:
    """Scales wall-clock durations by the reference passes around them.

    ``scale`` runs reference passes and scales durations measured since
    the previous passes by the mean of the two medians. It keeps every raw
    duration by kind, so the unscaled medians can be reported next to the
    scaled ones.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.nominal_s = KERNELS[kernel][1]
        for _ in range(WARMUP_PASSES):
            reference_pass(kernel)
        self.passes: list[float] = []
        self.raw: dict[str, list[float]] = {}
        self._last = self._speed()

    def _speed(self) -> float:
        """Median of a few reference passes: one pass is jittery."""
        passes = [reference_pass(self.kernel) for _ in range(PASSES)]
        self.passes += passes
        return statistics.median(passes)

    def scale(self, kind: str, durations: list[float]) -> list[float]:
        """Scale durations all measured since the previous reference passes."""
        before, self._last = self._last, self._speed()
        self.raw.setdefault(kind, []).extend(durations)
        return [d * 2.0 * self.nominal_s / (before + self._last) for d in durations]

    def scaled(self, kind: str, seconds: float) -> float:
        return self.scale(kind, [seconds])[0]

    def summary(self) -> dict:
        """Median raw duration of each kind and of a reference pass, then
        every raw duration and every reference pass in the order taken."""
        return {"reference_kernel": self.kernel,
                "reference_pass_s": statistics.median(self.passes),
                **{f"raw_{kind}_s": statistics.median(v) for kind, v in self.raw.items()},
                "raw": self.raw, "reference_passes": self.passes}
