"""Timing in units of how fast the host runs right now.

On a shared host other load slows every program down, at times by three
quarters, in bursts of a second and in stretches of minutes: longer than a
run. HostClock therefore times a fixed reference kernel before and after
every measured call and, from an interval timer, every INTERVAL_S while
the call runs. Each stretch of the call between two reference times is
divided by their mean, so a slowdown slows the kernel too and cancels out.
The time the kernel takes inside the call is left out of the call's time.

The kernel mixes the two kinds of work the package does: many small
dict-of-tuples polynomial operations like ``Poly3``'s, whose slowdown
under load follows the package's far better than one large product does,
and a dense Gram contraction like the solver's. It is the benchmark's own
code, so a change to the package cannot make it faster or slower.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About one kernel call on a quiet 2-core Xeon virtual machine; it only
# sets the scale of the reported seconds.
NOMINAL_S = 0.017
REPEATS = 3  # kernel calls per reference time around a call; the median counts
INTERVAL_S = 0.25  # seconds between single-call reference times during a call
CAP = 20  # degree cap of the kernel's polynomials


def _clean(coef):
    """Drop zero and over-cap terms, as ``Poly3.__init__`` does."""
    out = {}
    for key, val in coef.items():
        i, j, k = key
        v = float(val)
        if v == 0.0 or i + j + k > CAP:
            continue
        out[(int(i), int(j), int(k))] = v
    return out


def _mul(p, q):
    coef = {}
    for (a, b, c), u in p.items():
        for (d, e, f), v in q.items():
            key = (a + d, b + e, c + f)
            coef[key] = coef.get(key, 0.0) + u * v
    return _clean(coef)


def _add(p, q):
    coef = dict(p)
    for key, val in q.items():
        coef[key] = coef.get(key, 0.0) + val
    return _clean(coef)


def _diff(p):
    return _clean({(a - 1, b, c): a * v for (a, b, c), v in p.items() if a > 0})


def reference_kernel():
    """Return a callable that does the same fixed work on every call.

    Many products, sums and derivatives of small polynomials, each building
    fresh dicts, like the package's calculus, then a small Gram contraction.
    """
    rng = np.random.default_rng(20261017)
    polys = [{(i, j, k): float(rng.uniform(-1.0, 1.0))
              for i in range(deg + 1) for j in range(deg + 1 - i)
              for k in range(deg + 1 - i - j)}
             for deg in (1, 2, 2, 3, 3, 4)]
    X = rng.standard_normal((20, 9, 6, 6, 6))
    M = 1.0 / (np.arange(6)[:, None] + np.arange(6)[None, :] + 1.0)

    def run():
        terms = 0
        for _ in range(4):
            for p in polys:
                for q in polys:
                    terms += len(_add(_mul(p, q), _diff(q)))
        T = np.einsum("amxyz,xu->amuyz", X, M)
        T = np.einsum("amuyz,yv->amuvz", T, M)
        return terms, np.einsum("amuvz,bmuvz->ab", T, X)

    return run


class HostClock:
    """Times calls in units of the host's speed, scaled to seconds by NOMINAL_S.

    One clock serves a whole run: it owns SIGALRM, and the reference time
    taken after one call is the one before the next. Everything runs in the
    main thread; the timer's handler runs between the call's bytecodes.
    """

    def __init__(self):
        self._kernel = reference_kernel()
        self._marks = None  # (start, reference, seconds taken) while a call runs
        self.references = []  # every reference time, for the report
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._last = self.reference()

    def reference(self, repeats=REPEATS):
        """Time the kernel; the median of ``repeats`` calls."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        self.references.append(statistics.median(times))
        return self.references[-1]

    def refresh(self):
        """Take a fresh reference time, after work that was not measured."""
        self._last = self.reference()

    def _on_alarm(self, signum, frame):
        marks = self._marks
        if marks is not None:
            start = time.perf_counter()
            ref = self.reference(repeats=1)
            marks.append((start, ref, time.perf_counter() - start))

    def time(self, fn, sample=True):
        """Call fn(); return (its result, seconds, seconds in host units).

        With ``sample`` false the reference is timed only before and after.
        """
        marks = []
        self._marks = marks
        start = time.perf_counter()
        if sample:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._marks = None
        after = self.reference()
        seconds = scaled = 0.0
        t, before = start, self._last
        for at, ref, took in [m for m in marks if m[0] < end] + [(end, after, 0.0)]:
            seconds += at - t
            scaled += (at - t) / (0.5 * (before + ref))
            t, before = at + took, ref
        self._last = after
        return result, seconds, scaled * NOMINAL_S
