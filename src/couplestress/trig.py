"""Exact trigonometric polynomials on [0,1]^3 for the sine basis.

A TrigPoly is a linear combination of separable terms
    t1(f1 pi x1) t2(f2 pi x2) t3(f3 pi x3),
with each factor sin or cos and integer frequency. The family is closed
under differentiation and multiplication (product-to-sum), and integrals
over the unit box are closed-form.

Each term is stored at the per-axis dense index of its factors, 2 f - kind:
cos0, sin1, cos1, sin2, cos2, ... (sin0 vanishes and never occurs), the
layout of the dense cubes in `polyfield`; the constructor takes terms keyed
by factors ((kind, freq), ...) and moves them there. Sums, multiples,
powers and `restrict` come from `polyfield.ScalarField`, shared with
Poly3. This module holds the 1D tables on the index: the product of two
factors, the derivative (sin f to f pi cos f, cos f to -f pi sin f, so a
layout closed under d/dx ends on a cosine and has odd size), the integral
over [0, 1] and the point values, through which `polyfield.eval_fields`
evaluates and `restrict` takes face traces (exact at the faces).
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .polyfield import ScalarField, _axis, _holds_bool, eval_fields

COS, SIN = 0, 1


def _index(kind, freq):
    """(sign, dense index) of a factor: sin(-f) = -sin f, cos(-f) = cos f; None for sin 0."""
    if kind == SIN and freq == 0:
        return None
    return (-1.0 if kind == SIN and freq < 0 else 1.0), 2 * abs(freq) - kind


def _factors(key):
    """The three (kind, freq) factors of a term key as integers, or ValueError naming it."""
    try:
        factors = [(operator.index(kind), operator.index(freq)) for kind, freq in key]
    except (TypeError, ValueError):
        factors = []
    if _holds_bool(key) or len(factors) != 3 or any(kind not in (COS, SIN) for kind, _ in factors):
        raise ValueError(f"term key {key!r} is not three factors (kind 0 or 1, integer freq)")
    return factors


def _factor(i):
    """(kind, freq) of the factor at dense index i."""
    return i % 2, (i + 1) // 2


@functools.cache
def _factor_product(i, j):
    """Product of the factors at indices i and j as ((coeff, index), ...).

    The terms stay as the product-to-sum formula lists them, a repeated
    index included (cos a cos 0 gives cos a twice).
    """
    (k1, f1), (k2, f2) = _factor(i), _factor(j)
    if k1 == SIN and k2 == SIN:
        # sin a sin b = (cos(a-b) - cos(a+b)) / 2
        raw = [(0.5, COS, f1 - f2), (-0.5, COS, f1 + f2)]
    elif k1 == COS and k2 == COS:
        raw = [(0.5, COS, f1 - f2), (0.5, COS, f1 + f2)]
    elif k1 == SIN and k2 == COS:
        raw = [(0.5, SIN, f1 + f2), (0.5, SIN, f1 - f2)]
    else:
        # cos a sin b = (sin(a+b) + sin(b-a)) / 2
        raw = [(0.5, SIN, f1 + f2), (0.5, SIN, f2 - f1)]
    out = []
    for c, k, f in raw:
        at = _index(k, f)
        if at is not None:
            out.append((c * at[0], at[1]))
    return tuple(out)


def _derivative(i):
    """d/dx of the factor at index i as (coeff, index); None for the constant."""
    kind, freq = _factor(i)
    if freq == 0:
        return None
    if kind == SIN:
        return freq * math.pi, i + 1
    return -freq * math.pi, i - 1


def _integral(i):
    """Integral of the factor at index i over [0,1]."""
    kind, freq = _factor(i)
    if freq == 0:
        return 1.0
    if kind == COS:
        return 0.0  # sin(f pi)/ (f pi) vanishes at integer frequency
    return (1.0 - (-1.0) ** freq) / (freq * math.pi)


def _made(coef):
    """TrigPoly holding coef, keyed by dense index: exact zeros dropped."""
    if 0.0 in coef.values():
        coef = {k: v for k, v in coef.items() if v}
    p = object.__new__(TrigPoly)
    p.coef = coef
    return p


class TrigPoly(ScalarField):
    __slots__ = ()

    def __init__(self, coef=None):
        """Terms keyed by three factors ((kind, freq), ...), moved to their dense index.

        kind is COS or SIN and freq an integer; any other key is a ValueError.
        """
        clean = {}
        for key, val in (coef or {}).items():
            v, idx = float(val), []
            for kind, freq in _factors(key):
                at = _index(kind, freq)
                if at is None:
                    break
                v *= at[0]
                idx.append(at[1])
            else:
                idx = tuple(idx)
                clean[idx] = clean.get(idx, 0.0) + v
        self.coef = {k: v for k, v in clean.items() if v}

    @classmethod
    def zero(cls):
        return _made({})

    @classmethod
    def const(cls, value):
        return _made({(0, 0, 0): float(value)})

    @classmethod
    def sine_mode(cls, freqs, amplitude=1.0):
        """sin(f1 pi x) sin(f2 pi y) sin(f3 pi z), stored at |f|; zero if any f is 0."""
        return cls({tuple((SIN, f) for f in freqs): amplitude})

    # --- dense layout (see polyfield.dense_stack) -----------------------

    @staticmethod
    def dense_moments(D):
        """1D moment matrix: the integral of factor i times factor j."""
        return np.array(
            [[sum(c * _integral(k) for c, k in _factor_product(i, j)) for j in range(D)]
             for i in range(D)]
        )

    @staticmethod
    def dense_diff(D):
        """1D derivative matrix R[out, in] on an odd D (closed under d/dx)."""
        if D % 2 == 0:
            raise ValueError(f"trig layout of even size {D} is not closed under d/dx")
        R = np.zeros((D, D))
        for i in range(1, D):
            c, out = _derivative(i)
            R[out, i] = c
        return R

    @staticmethod
    def dense_size(D):
        """Smallest odd size from D: the top sine needs its cosine."""
        return D | 1

    @staticmethod
    def from_cube(cube, cap=None):
        """The TrigPoly of the nonzero entries of a dense cube (a TrigPoly has no cap)."""
        idx = np.nonzero(cube)
        return _made(dict(zip(zip(*(i.tolist() for i in idx)), cube[idx].tolist())))

    @staticmethod
    def dense_values(D, t):
        """Values of the factors 0 .. D-1 at coordinates t, on a new last axis.

        f t is reduced modulo 2 and folded exactly to at most 1/2, and pi is
        held in the dtype of t (at least float64), so factors are exact at
        multiples of 1/2 and np.longdouble evaluates in extended precision.
        """
        t = np.asarray(t)
        V = np.ones(t.shape + (D,), dtype=np.result_type(t.dtype, float))
        r = np.mod(t[..., None].astype(V.dtype) * np.arange(1, D // 2 + 1), 2)
        r = np.where(r > 1, r - 2, r)
        pi, q = 4 * np.arctan(np.ones((), V.dtype)), np.abs(r)
        V[..., 1::2] = np.sin(pi * np.where(q > 0.5, np.sign(r) - r, r))
        cos = np.where(q <= 0.25, np.cos(pi * q), np.sin(pi * (0.5 - q)))
        V[..., 2::2] = cos[..., :(D - 1) // 2]
        return V

    # --- arithmetic (sums, multiples and powers in ScalarField) ----------

    def _result(self, coef, other=None):
        return _made(coef)

    def _const(self, value):
        return TrigPoly.const(value)

    def _product(self, other):
        coef = {}
        get = coef.get
        terms = other.coef.items()
        for (a, b, c), u in self.coef.items():
            for (d, e, f), v in terms:
                uv = u * v
                for c0, i in _factor_product(a, d):
                    for c1, j in _factor_product(b, e):
                        for c2, k in _factor_product(c, f):
                            t = uv * c0 * c1 * c2
                            if t:  # a term that underflows adds no key
                                key = (i, j, k)
                                coef[key] = get(key, 0.0) + t
        return _made(coef)

    # --- calculus -------------------------------------------------------

    def diff(self, axis):
        # sin f and cos f swap, so distinct keys go to distinct keys
        ax = _axis(axis)
        coef = {}
        for key, val in self.coef.items():
            d = _derivative(key[ax])
            if d is not None:
                coef[key[:ax] + (d[1],) + key[ax + 1:]] = val * d[0]
        return _made(coef)

    def integrate(self):
        """Exact integral over the unit box [0,1]^3."""
        acc = 0.0
        for (i, j, k), val in self.coef.items():
            acc += val * _integral(i) * _integral(j) * _integral(k)
        return acc

    def eval(self, pts):
        """Evaluate on an (..., 3) array of points, through `polyfield.eval_fields`."""
        out = eval_fields(self, pts)
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        return f"TrigPoly({len(self.coef)} terms)"


def trig_integral_of_product(p, q):
    return (p * q).integrate()
