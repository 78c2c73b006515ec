"""Exact trigonometric polynomials on [0,1]^3 for the sine basis.

A TrigPoly is a linear combination of separable terms
    t1(f1 pi x1) t2(f2 pi x2) t3(f3 pi x3),
with each factor sin or cos and integer frequency. The family is closed
under differentiation and multiplication (product-to-sum), and integrals
over the unit box are closed-form.

Implements the same scalar-field protocol as Poly3 (+, -, *, diff, eval,
integrate, max_abs_coeff), which is all the field operators need, and the
same dense layout, so the sine basis is assembled by the same per-axis
contraction as the bubble basis. The dense index of a factor is 2 f - kind:
cos0, sin1, cos1, sin2, cos2, ... (sin0 vanishes and never occurs). The
1D moment of factors i and j is their product-to-sum expansion integrated
over [0, 1], so each per-axis integral is the one `integrate` computes.
The 1D derivative matrix maps sin f to f pi cos f and cos f to -f pi sin f,
so a layout closed under d/dx ends on a cosine and has odd size.
"""
from __future__ import annotations

import math

import numpy as np

COS, SIN = 0, 1


def _norm_factor(kind, freq):
    """Normalize a factor to nonnegative frequency; returns (sign, kind, freq)."""
    if freq < 0:
        if kind == SIN:
            return -1.0, SIN, -freq
        return 1.0, COS, -freq
    return 1.0, kind, freq


def _mul_factor(k1, f1, k2, f2):
    """Product of two single-axis factors as a list of (coeff, kind, freq)."""
    out = []
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
    for c, k, f in raw:
        s, k, f = _norm_factor(k, f)
        c = c * s
        if k == SIN and f == 0:
            continue
        out.append((c, k, f))
    return out


def _int01(kind, freq):
    """Integral of the factor over [0,1]."""
    if freq == 0:
        return 1.0 if kind == COS else 0.0
    if kind == COS:
        return 0.0  # sin(f pi)/ (f pi) vanishes at integer frequency
    return (1.0 - (-1.0) ** freq) / (freq * math.pi)


class TrigPoly:
    __slots__ = ("coef",)

    def __init__(self, coef=None):
        clean = {}
        if coef:
            for key, val in coef.items():
                v = float(val)
                if v != 0.0:
                    clean[key] = v
        self.coef = clean

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, value):
        return cls({((COS, 0), (COS, 0), (COS, 0)): float(value)})

    @classmethod
    def sine_mode(cls, freqs, amplitude=1.0):
        """sin(f1 pi x) sin(f2 pi y) sin(f3 pi z), stored at |f|; zero if any f is 0."""
        key, coeff = [], float(amplitude)
        for f in freqs:
            sign, kind, freq = _norm_factor(SIN, int(f))
            if freq == 0:
                return cls.zero()
            key.append((kind, freq))
            coeff *= sign
        return cls({tuple(key): coeff})

    def dense_terms(self):
        """(per-axis dense index, coefficient) pairs: index 2 f - kind per factor."""
        return [
            (tuple(2 * f - kind for kind, f in key), v) for key, v in self.coef.items()
        ]

    @staticmethod
    def dense_moments(D):
        """1D moment matrix: the integral of factor i times factor j."""
        factors = [(i % 2, (i + 1) // 2) for i in range(D)]
        return np.array(
            [
                [sum(c * _int01(k, f) for c, k, f in _mul_factor(*a, *b)) for b in factors]
                for a in factors
            ]
        )

    @staticmethod
    def dense_diff(D):
        """1D derivative matrix R[out, in] on an odd D (closed under d/dx).

        sin f (index 2f - 1) maps to f pi cos f (index 2f), and cos f maps
        to -f pi sin f.
        """
        if D % 2 == 0:
            raise ValueError(f"trig layout of even size {D} is not closed under d/dx")
        R = np.zeros((D, D))
        for f in range(1, (D + 1) // 2):
            R[2 * f, 2 * f - 1] = f * math.pi
            R[2 * f - 1, 2 * f] = -f * math.pi
        return R

    @staticmethod
    def dense_size(D):
        """Smallest odd size from D: the top sine needs its cosine."""
        return D | 1

    def max_abs_coeff(self):
        """Largest coefficient magnitude; NaN if any coefficient is NaN."""
        return float(np.max(np.abs(list(self.coef.values())), initial=0.0))

    def _coerce(self, other):
        if isinstance(other, TrigPoly):
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return TrigPoly.const(float(other))
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        coef = dict(self.coef)
        for key, val in q.coef.items():
            coef[key] = coef.get(key, 0.0) + val
        return TrigPoly(coef)

    __radd__ = __add__

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TrigPoly({k: -v for k, v in self.coef.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            s = float(other)
            return TrigPoly({k: v * s for k, v in self.coef.items()})
        if not isinstance(other, TrigPoly):
            return NotImplemented
        coef = {}
        for key1, v1 in self.coef.items():
            for key2, v2 in other.coef.items():
                # expand axis by axis
                terms = [(v1 * v2, ())]
                for ax in range(3):
                    k1, f1 = key1[ax]
                    k2, f2 = key2[ax]
                    fac = _mul_factor(k1, f1, k2, f2)
                    new_terms = []
                    for c, partial in terms:
                        for fc, fk, ff in fac:
                            new_terms.append((c * fc, partial + ((fk, ff),)))
                    terms = new_terms
                for c, key in terms:
                    if c == 0.0:
                        continue
                    coef[key] = coef.get(key, 0.0) + c
        return TrigPoly(coef)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self * (1.0 / float(other))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = TrigPoly.const(1.0)
        for _ in range(int(n)):
            out = out * self
        return out

    def diff(self, axis):
        ax = int(axis) if not isinstance(axis, str) else {"x": 0, "y": 1, "z": 2}[axis]
        coef = {}
        for key, val in self.coef.items():
            kind, freq = key[ax]
            if freq == 0:
                continue  # constant factor along this axis
            w = freq * math.pi
            if kind == SIN:
                nk, c = COS, val * w
            else:
                nk, c = SIN, -val * w
            new = list(key)
            new[ax] = (nk, freq)
            new = tuple(new)
            coef[new] = coef.get(new, 0.0) + c
        return TrigPoly(coef)

    def integrate(self):
        acc = 0.0
        for key, val in self.coef.items():
            term = val
            for kind, freq in key:
                term *= _int01(kind, freq)
                if term == 0.0:
                    break
            acc += term
        return acc

    def eval(self, pts):
        pts = np.asarray(pts, dtype=float)
        squeeze = pts.ndim == 1
        p = pts.reshape(-1, 3)
        out = np.zeros(p.shape[0])
        for key, val in self.coef.items():
            term = np.full(p.shape[0], val)
            for ax, (kind, freq) in enumerate(key):
                arg = freq * math.pi * p[:, ax]
                term = term * (np.sin(arg) if kind == SIN else np.cos(arg))
            out += term
        if squeeze:
            return float(out[0])
        return out.reshape(pts.shape[:-1])

    def __repr__(self):
        return f"TrigPoly({len(self.coef)} terms)"


def trig_integral_of_product(p, q):
    return (p * q).integrate()
