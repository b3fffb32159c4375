"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark's host is a shared virtual machine whose speed drifts by tens
of percent, over seconds and over minutes, and process CPU time drifts with
it. While the timed rounds run, a :class:`Sampler` calls the kernel below
after the package's forward passes and pool shutdowns, at most once every
``INTERVAL_S``. The time spent in the kernel is taken out of the rounds'
time, and the rounds' time is then scaled by the kernel's nominal speed over
its mean speed during the run. What is left is the program's speed at a
fixed machine speed: the drift cancels out, while a change in the program
does not.

The kernel uses numpy only, never ``seu_forge``, so no change to the program
can speed it up or slow it down. It mixes the three kinds of work the
workloads do: float32 broadcast multiply-adds as in the float convolution,
an int32 im2col matrix product as in the integer convolution, and
interpreter-bound Python.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from statistics import fmean
from time import perf_counter

import numpy as np

# Nominal seconds per kernel call, about its time on a fast stretch of the
# 2-core Xeon sandbox the benchmark was sized on. Only the scale of the
# normalised figures depends on it; their ratios between two commits do not.
NOMINAL_S = 0.060
INTERVAL_S = 0.4

# Every array the kernel touches is allocated and written here, once, so the
# kernel adds a fixed 6-7 MB to the run's peak RSS and allocates nothing later.
_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((10, 66, 66, 4), dtype=np.float32)
_K = _rng.standard_normal((3, 3, 4, 8), dtype=np.float32)
_ACC = np.full((10, 64, 64, 8), 1, np.float32)
_TMP = np.full((10, 64, 64, 8), 1, np.float32)
_XI = _rng.integers(-128, 128, (10, 34, 34, 8), dtype=np.int32)
_KI = _rng.integers(-128, 128, (3 * 3 * 8, 16), dtype=np.int32)
_COLS = np.full((10, 32, 32, 3 * 3 * 8), 1, np.int32)
_PROD = np.full((10, 32, 32, 16), 1, np.int32)


def kernel() -> None:
    _ACC.fill(0.0)
    for i in range(3):
        for j in range(3):
            patch = _X[:, i:i + 64, j:j + 64, :]
            for c in range(4):
                np.multiply(patch[:, :, :, c, None], _K[i, j, c, :], out=_TMP)
                np.add(_ACC, _TMP, out=_ACC)
    for _ in range(2):
        for i in range(3):
            for j in range(3):
                _COLS[:, :, :, (3 * i + j) * 8:(3 * i + j + 1) * 8] = _XI[:, i:i + 32, j:j + 32, :]
        np.matmul(_COLS, _KI, out=_PROD)
    table = {}
    for n in range(60000):
        table[n % 97] = table.get(n % 97, 0) + n


class Sampler:
    """Calls the kernel between the package's steps in this process.

    Pool children are fresh interpreters, so they run unhooked; the kernel
    runs in the parent only when a pool has shut down, never while its
    children compute.
    """

    def __init__(self):
        self.samples = []     # seconds per kernel call
        self.spent = 0.0      # seconds spent in the kernel, to take out of the rounds
        self._last = perf_counter()

    def sample(self) -> None:
        start = perf_counter()
        if start - self._last < INTERVAL_S:
            return
        kernel()
        self._last = perf_counter()
        self.samples.append(self._last - start)
        self.spent += self._last - start

    def scale(self) -> float:
        """Nominal over measured kernel time: times it to get seconds at nominal speed."""
        if not self.samples:  # no hooked call ran, as when every round failed early
            self._last = float("-inf")
            self.sample()
        return NOMINAL_S / fmean(self.samples)

    @contextmanager
    def installed(self):
        import seu_forge.campaign as campaign
        import seu_forge.protect as protect
        from tracer import patched

        sampler = self

        def after(fn):
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                sampler.sample()
                return out
            return hooked

        class SampledPool(ProcessPoolExecutor):
            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                sampler.sample()

        patches = [(campaign, "run_float", after(campaign.run_float)),
                   (campaign, "run_quantized", after(campaign.run_quantized)),
                   (protect, "run_float", after(protect.run_float)),
                   (campaign, "ProcessPoolExecutor", SampledPool)]
        with patched(patches):
            yield self
