"""A fixed reference computation that gauges how fast the host runs right now.

On a shared host the speed of a single core drifts by tens of percent over
seconds and minutes as other tenants come and go, and CPU time drifts with
wall time, so neither can be compared between runs taken at different
moments.  The benchmark therefore runs this kernel next to every job and
divides each job's wall time by the kernel's local slowdown, its time over
its nominal time: the quotient is the job's time on a host where the kernel
takes its nominal time, which the host's load largely cancels out of.

The kernel uses no code of the package, so a change to the package moves
the gauged times and not the kernel.  It has two parts, timed apart, for the
two kinds of work the package does, which contention slows by different
amounts: ``interp`` is interpreted recursion over dicts and floats plus many
small numpy calls (path enumeration, per-cell backward steps), ``array`` is
LAPACK and BLAS work on a dense matrix of lattice size (lattice geometry).
A workload weighs the two parts by the work its jobs do.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Wall time of each part near the fast end of what the 2-core x86-64 host
# the benchmark was tuned on gives (Python 3, numpy with OpenBLAS, one
# thread).
NOMINAL_S = {"interp": 0.0045, "array": 0.0060}
# Weights of the parts in a gauge; workloads may pass their own.
MIXED = {"interp": 0.5, "array": 0.5}
# A job's gauge is the median of this many kernel slowdowns nearest to it.
WINDOW = 5

_RNG = np.random.default_rng(0)
_MAT = _RNG.standard_normal((160, 160)) / 16.0
_SYM = _MAT @ _MAT.T
_PROB = _RNG.uniform(0.1, 1.0, 6)
_NEXT = _RNG.standard_normal(64)
_IDX = np.array([3, 9, 17, 30, 41, 60])


def _walk(depth, acc, memo):
    if depth == 0:
        return acc
    total = 0.0
    for branch in (0, 1):
        memo[(depth, branch)] = acc * 0.999 + branch
        total += _walk(depth - 1, memo[(depth, branch)], memo)
    return total


def _interp():
    out = _walk(12, 1.0, {})
    for _ in range(2000):
        out += float(_PROB @ _NEXT[_IDX])
    return out


def _array():
    col = np.abs(_MAT[0])
    br = np.diag(col) - np.outer(col, col) + _SYM
    out = float(np.abs(np.linalg.pinv(br) @ br).sum())
    out += float(np.linalg.eigvalsh(br)[-1])
    x = _MAT
    for _ in range(4):
        x = x @ _MAT
    return out + float(np.abs(x).sum())


def timed():
    """One call of the kernel; returns the wall time of each part."""
    t0 = time.perf_counter()
    _interp()
    t1 = time.perf_counter()
    _array()
    t2 = time.perf_counter()
    return {"interp": t1 - t0, "array": t2 - t1}


def slowdown(times, weights=MIXED):
    """Weighted time of one kernel call over its nominal time."""
    total = sum(weights.values())
    return sum(w * times[part] / NOMINAL_S[part]
               for part, w in weights.items()) / total


def local_gauge(slowdowns, first, last):
    """Median slowdown around the samples ``first`` to ``last``.

    Takes the ``WINDOW`` slowdowns nearest to that stretch of a run's
    sequence of kernel calls, so one disturbed call does not move it.
    """
    lo = max(0, min(first - (WINDOW - 1) // 2, len(slowdowns) - WINDOW))
    hi = max(last + 1, lo + WINDOW)
    return statistics.median(slowdowns[lo:hi])
