"""How fast the host runs at the moment, from a fixed piece of work.

On a shared host the same code runs up to a third slower for minutes at a
time, so raw timings of two runs minutes apart differ by more than any
useful regression bound, and a slow stretch of a few seconds inside one
run decides its tail. The end-to-end runs therefore time this fixed kernel
between ops and scale each timing by REFERENCE_S over the kernel's median
time within WINDOW_S of it: a timing reads as it would on a host where the
kernel takes REFERENCE_S. The kernel does not touch tfc_solve, so a change
to the package moves the scaled timings exactly as it moves the raw ones.

Its mix follows the workloads': a Python-level loop of scalar arithmetic,
numpy recurrences on 1000-point arrays (as in the Chebyshev basis), and a
least-squares solve plus an SVD of a 1000 x 25 matrix (as in solve_ls and
the sweep diagnostics), each about a third of its time.
"""

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.010  # the kernel's time on the reference host
INTERVAL_S = 0.25  # at most one sample per interval of the run
WINDOW_S = 1.0  # samples within this distance of a timing set its scale

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((1000, 25))
_b = _rng.standard_normal(1000)
_x = np.linspace(-1.0, 1.0, 1000)


def _kernel():
    s = 0.0
    for i in range(20000):
        s += math.sin(i * 1e-3) * (i % 7)
    for _ in range(30):
        t = [np.ones_like(_x), _x]
        for _ in range(2, 25):
            t.append(2.0 * _x * t[-1] - t[-2])
    for _ in range(5):
        np.linalg.lstsq(_A, _b, rcond=None)
        np.linalg.svd(_A, compute_uv=False)
    return s


class Calibration:
    def __init__(self):
        _kernel()  # warm-up, not recorded
        self.at = []
        self.samples = []
        self._next = 0.0

    def sample(self):
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.samples.append(t1 - t0)
        self._next = t1 + INTERVAL_S

    def maybe_sample(self):
        """One sample if the last is at least INTERVAL_S old."""
        if time.perf_counter() >= self._next:
            self.sample()

    def median_ms(self):
        return 1e3 * statistics.median(self.samples)

    def to_reference(self, at, seconds):
        """Durations measured around perf_counter times `at`, in reference time."""
        t = np.asarray(self.at)
        c = np.asarray(self.samples)
        at = np.asarray(at, dtype=float)
        lo = np.searchsorted(t, at - WINDOW_S)
        hi = np.searchsorted(t, at + WINDOW_S, side="right")
        nearest = np.clip(np.searchsorted(t, at), 0, t.size - 1)
        local = np.array([np.median(c[a:b]) if b > a else c[n]
                          for a, b, n in zip(lo, hi, nearest)])
        return np.asarray(seconds, dtype=float) * (REFERENCE_S / local)
