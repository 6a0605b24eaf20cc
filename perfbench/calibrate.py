"""Fixed reference kernels that track the machine's speed during a run.

On a shared machine the same code runs up to 2x slower for a second or
for minutes at a time. While a Calibration is active, a timer interrupts
the run every so often and times reference kernels, so their samples
spread evenly over set-up and every operation, long ones included. Times
taken with ``Calibration.clock`` leave the kernels' own time out. The
benchmark reports each time scaled by ``REFERENCE_MS[k] / median time of
kernel k`` over the samples taken around it: the time the operation
would take at the speed the machine had when ``REFERENCE_MS`` was
measured.

Each kernel copies the shape of one of goi's hot paths, because the
machine's slow spells do not slow all kinds of work alike:

- ``raster``: a Python loop of small numpy ops per splat, as in
  ``goi.rasterizer.composite_weights``, then a small dense product;
- ``loss``: (batch x entries) products and a softmax over a
  4096-pixel batch, as in ``goi.codebook.total_loss``; its arrays
  outgrow the core's caches, so it tracks memory speed.

The kernels are the benchmark's own code and never change with the
program, so a faster program still reads faster.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# about each kernel's median time on a 2-vCPU Xeon (2 GHz) with one BLAS
# thread; any fixed value would do, it only sets the scale of the times
REFERENCE_MS = {"raster": 12.0, "loss": 24.0}
SAMPLE_SHARE = 0.05   # kernel time per second of timed work
WINDOW_S = 4.0        # an interval's speed comes from samples this close ...
MIN_SAMPLES = 5       # ... or from a wider window that holds this many

_ENTRIES = np.random.default_rng(2).normal(size=(300, 64))
_SMALL_BATCH = np.random.default_rng(1).normal(size=(1024, 64))
_BATCH = np.random.default_rng(4).normal(size=(4096, 64))
_MEANS = np.random.default_rng(3).uniform(4.0, 60.0, size=(120, 2))
# the products are written in place, so a sample that lands on the
# program's peak memory does not raise the peak_rss_mb it reports
_SMALL_OUT = np.empty((1024, 300))
_OUT = np.empty((4096, 300))


def _softmax_product(u: np.ndarray, out: np.ndarray) -> float:
    np.matmul(u, _ENTRIES.T, out=out)
    out *= 4.0
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return float((out.T @ u).sum())


def _raster(size: int = 64) -> float:
    trans = np.ones(size * size)
    for mx, my in _MEANS:
        x0, y0 = int(mx) - 4, int(my) - 4
        xs = np.arange(x0, x0 + 9, dtype=np.float64) - mx
        ys = np.arange(y0, y0 + 9, dtype=np.float64) - my
        dx = np.broadcast_to(xs[None, :], (9, 9))
        dy = np.broadcast_to(ys[:, None], (9, 9))
        q = (0.5 * dx * dx - 0.2 * dx * dy + 0.5 * dy * dy) / 0.21
        alpha = np.minimum(0.99, 0.8 * np.exp(-0.5 * q))
        alpha[alpha < 1.0 / 255.0] = 0.0
        pix = ((np.arange(y0, y0 + 9)[:, None] * size)
               + np.arange(x0, x0 + 9)[None, :]).ravel()
        alpha = alpha.ravel()
        t_here = trans[pix]
        live = alpha * t_here > 0.0
        trans[pix[live]] = t_here[live] * (1.0 - alpha[live])
    return float(trans.sum()) + _softmax_product(_SMALL_BATCH, _SMALL_OUT)


def _loss() -> float:
    return _softmax_product(_BATCH, _OUT)


KERNELS = {"raster": _raster, "loss": _loss}


def kernel_ms(name: str) -> float:
    """Milliseconds one run of reference kernel `name` takes now."""
    t0 = perf_counter()
    KERNELS[name]()
    return 1e3 * (perf_counter() - t0)


class Calibration:
    """Kernel times sampled on a timer while the context is active.

    After each sample the next one is due when the kernels have taken
    `share` of the wall time since the previous one. The timer is
    SIGALRM; its handler runs in the main thread between bytecodes.
    """

    def __init__(self, kernels, share: float = SAMPLE_SHARE):
        self.share = share
        self.samples = {name: [] for name in sorted(set(kernels))}
        self.at: list[float] = []   # clock() when each sample was taken
        self.spent = 0.0   # seconds spent in the kernels so far
        self._active = False
        self._previous = None

    def clock(self) -> float:
        """perf_counter() minus the time spent in the kernels."""
        return perf_counter() - self.spent

    def sample(self, *_signal) -> None:
        self.at.append(self.clock())
        t0 = perf_counter()
        for name, times in self.samples.items():
            times.append(kernel_ms(name))
        took = perf_counter() - t0
        self.spent += took
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, took / self.share)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self._active = True
        self.sample()
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, name: str, start: float | None = None,
              end: float | None = None) -> float:
        """REFERENCE_MS over kernel `name`'s median time: below 1 on a
        slow spell. Over the whole run, or over the samples in a window
        centred on [start, end] (clock times), at least WINDOW_S wide and
        widened until it holds MIN_SAMPLES."""
        times = self.samples[name]
        if start is not None:
            mid, half = 0.5 * (start + end), 0.5 * max(WINDOW_S, end - start)
            while True:
                lo = bisect_left(self.at, mid - half)
                hi = bisect_right(self.at, mid + half)
                if hi - lo >= MIN_SAMPLES or hi - lo == len(self.at):
                    break
                half *= 2.0
            times = times[lo:hi]
        return REFERENCE_MS[name] / statistics.median(times)

    def scaled_ms(self, name: str, spans) -> float:
        """Milliseconds of the (start, end) clock intervals, each scaled
        by the speed kernel `name` measured around it."""
        return 1e3 * sum((end - start) * self.speed(name, start, end)
                         for start, end in spans)
