"""Machine-speed reference for the timed run.

The benchmark's host is a few cores of a shared machine whose speed
changes by up to 1.6x for minutes at a time, each core on its own, and
every call of the program slows with it.  A reference measurement times a
fixed kernel that uses no fibwalk code, where the process runs and then
on each of its CPUs.  One runs before the first timed call and one after
every call.  Each call's seconds are scaled by NOMINAL_S over the mean
kernel time of the two references around it, so a metric reads as it
would on the host running at its nominal speed.  A change to the program
moves the calls and not the kernel, so it still shows in full.

The kernel mixes the kinds of work the program does: a pure-Python loop
(the schur recursion), a chain of 2x2 complex products (schur's transfer
matrices), vector updates on a few thousand complex sites (walk steps)
and a small dense eigenproblem (spectrum).
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

# Median kernel time on a 2-core x86-64 virtual machine (numpy 2.4.6,
# OpenBLAS 0.3.31).  It only sets the scale of the calibrated metrics.
NOMINAL_S = 0.012

_rng = np.random.default_rng(12345)
_M = (_rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2))) / 2.0
_V = _rng.standard_normal(2000) + 1j * _rng.standard_normal(2000)
_E = _rng.standard_normal((64, 64))


def _kernel() -> float:
    s = 0
    for i in range(8000):
        s += i * i % 7
    a = _M.copy()
    for _ in range(600):
        a = a @ _M
        a /= abs(a[0, 0]) + 1.0
    v = _V.copy()
    for _ in range(175):
        v = np.roll(v, 1) * 0.999 + v[::-1] * 0.001
    w = np.linalg.eigvals(_E)
    return float(s) + float(abs(a[0, 0])) + float(abs(v[0])) + float(abs(w).max())


def _timed() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def reference_seconds() -> list[float]:
    """Seconds the kernel takes now: where the process runs, then pinned to
    each of its CPUs in turn."""
    cpus = os.sched_getaffinity(0)
    times = [_timed()]
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_timed())
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def scale(seconds: list[float], refs: list[list[float]]) -> list[float]:
    """Calibrated seconds: call k ran between refs[k] and refs[k + 1]."""
    assert len(refs) == len(seconds) + 1
    kernel_s = [statistics.fmean(ref) for ref in refs]
    return [s * NOMINAL_S / (0.5 * (kernel_s[k] + kernel_s[k + 1]))
            for k, s in enumerate(seconds)]
