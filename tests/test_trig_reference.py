"""TrigPoly on its dense index is bit-identical to the factor-keyed arithmetic.

The reference below is the TrigPoly arithmetic as first written: terms keyed
by factors ((kind, freq), ...), products expanded axis by axis through the
product-to-sum formulas, every result passed through the constructor. The
dense-index TrigPoly must give the same coefficients (bitwise), in the same
key order once each factor key is moved to its index 2 f - kind; its
evaluation, which now runs through `polyfield.eval_fields`, must agree to
rounding.
"""
import math
import struct

import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress.trig import COS, SIN, TrigPoly

NAN = float("nan")


# --- reference: the factor-keyed TrigPoly ------------------------------------


def _norm_factor(kind, freq):
    if freq < 0:
        if kind == SIN:
            return -1.0, SIN, -freq
        return 1.0, COS, -freq
    return 1.0, kind, freq


def _mul_factor(k1, f1, k2, f2):
    out = []
    if k1 == SIN and k2 == SIN:
        raw = [(0.5, COS, f1 - f2), (-0.5, COS, f1 + f2)]
    elif k1 == COS and k2 == COS:
        raw = [(0.5, COS, f1 - f2), (0.5, COS, f1 + f2)]
    elif k1 == SIN and k2 == COS:
        raw = [(0.5, SIN, f1 + f2), (0.5, SIN, f1 - f2)]
    else:
        raw = [(0.5, SIN, f1 + f2), (0.5, SIN, f2 - f1)]
    for c, k, f in raw:
        s, k, f = _norm_factor(k, f)
        c = c * s
        if k == SIN and f == 0:
            continue
        out.append((c, k, f))
    return out


def _int01(kind, freq):
    if freq == 0:
        return 1.0 if kind == COS else 0.0
    if kind == COS:
        return 0.0
    return (1.0 - (-1.0) ** freq) / (freq * math.pi)


class RefTrig:
    def __init__(self, coef=None):
        clean = {}
        if coef:
            for key, val in coef.items():
                v = float(val)
                if v != 0.0:
                    clean[key] = v
        self.coef = clean

    @classmethod
    def const(cls, value):
        return cls({((COS, 0), (COS, 0), (COS, 0)): float(value)})

    def __add__(self, q):
        coef = dict(self.coef)
        for key, val in q.coef.items():
            coef[key] = coef.get(key, 0.0) + val
        return RefTrig(coef)

    def __sub__(self, q):
        return self + (-q)

    def __neg__(self):
        return RefTrig({k: -v for k, v in self.coef.items()})

    def scale(self, s):
        return RefTrig({k: v * float(s) for k, v in self.coef.items()})

    def __mul__(self, other):
        coef = {}
        for key1, v1 in self.coef.items():
            for key2, v2 in other.coef.items():
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
        return RefTrig(coef)

    def __pow__(self, n):
        out = RefTrig.const(1.0)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, ax):
        coef = {}
        for key, val in self.coef.items():
            kind, freq = key[ax]
            if freq == 0:
                continue
            w = freq * math.pi
            if kind == SIN:
                nk, c = COS, val * w
            else:
                nk, c = SIN, -val * w
            new = list(key)
            new[ax] = (nk, freq)
            new = tuple(new)
            coef[new] = coef.get(new, 0.0) + c
        return RefTrig(coef)

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


# --- comparison ---------------------------------------------------------------


def _bits(v):
    return struct.pack("<d", v)


def _index(key):
    return tuple(2 * f - kind for kind, f in key)


def assert_same(got, want):
    """Same keys, moved to the dense index, in the same order; values bitwise equal."""
    assert isinstance(got, TrigPoly)
    assert list(got.coef) == [_index(k) for k in want.coef]
    for (key, g), w in zip(got.coef.items(), want.coef.values()):
        assert math.isnan(g) == math.isnan(w), key
        if not math.isnan(w):
            assert _bits(g) == _bits(w), (key, g, w)
        assert type(g) is float and all(type(i) is int for i in key), key


def _l1(p):
    return sum(abs(v) for v in p.coef.values())


def random_pair(rng, terms, fmax=2, nan=False):
    """The same random terms as a TrigPoly and as a reference.

    Coefficients spread over 16 decades so that sums and products round;
    frequencies include 0 (cos 0) on every axis. With nan=True one term
    that varies along every axis carries a NaN, so that it survives diff.
    """
    coef = {}
    for _ in range(terms):
        key = []
        for _ in range(3):
            kind = int(rng.integers(2))
            key.append((kind, int(rng.integers(1 if kind == SIN else 0, fmax + 1))))
        coef[tuple(key)] = float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-8, 8))
    if nan:
        coef[((SIN, 1), (COS, 2), (SIN, 2))] = NAN
    return TrigPoly(coef), RefTrig(coef)


def _pairs(seed, n=8, nan=False):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a, b = (int(t) for t in rng.integers(1, 7, size=2))
        yield random_pair(rng, a, nan=nan), random_pair(rng, b)


def _has_nan(p):
    return any(math.isnan(v) for v in p.coef.values())


# --- tests --------------------------------------------------------------------


@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_arithmetic_matches_reference(seed, nan):
    for (p, rp), (q, rq) in _pairs(seed, nan=nan):
        results = [
            (p + q, rp + rq), (q + p, rq + rp), (p - q, rp - rq), (q - p, rq - rp),
            (p * q, rp * rq), (q * p, rq * rp), (-p, -rp),
            (p * 2.5, rp.scale(2.5)), (3 * p, rp.scale(3)), (p / 4.0, rp.scale(0.25)),
            (p ** 0, rp ** 0), (p ** 2, rp ** 2),
        ]
        for got, want in results:
            assert_same(got, want)
        if nan:
            assert all(_has_nan(got) for got, _ in results[:10] + results[11:])


def test_powers_match_reference():
    rng = np.random.default_rng(11)
    for terms in (1, 2, 3):
        p, rp = random_pair(rng, terms)
        assert_same(p ** 3, rp ** 3)


@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_diff_and_integrate_match_reference(seed, nan):
    for (p, rp), _ in _pairs(seed, nan=nan):
        for ax in range(3):
            d = p.diff(ax)
            assert_same(d, rp.diff(ax))
            assert _has_nan(d) == nan
        for got, want in ((p.integrate(), rp.integrate()),
                          ((p * p).integrate(), (rp * rp).integrate())):
            assert type(got) is float
            assert math.isnan(got) == nan
            if not nan:
                assert _bits(got) == _bits(want)


@pytest.mark.parametrize("seed", range(4))
def test_eval_matches_reference(seed):
    pts = np.random.default_rng(100 + seed).uniform(0.0, 1.0, (40, 3))
    for (p, rp), (q, rq) in _pairs(seed):
        for f, rf in ((p, rp), (p * q, rp * rq), (p.diff(1), rp.diff(1))):
            tol = 1e-14 * _l1(f)
            assert np.max(np.abs(f.eval(pts) - rf.eval(pts))) <= tol
            assert f.eval(pts.reshape(5, 8, 3)).shape == (5, 8)
            one = f.eval(pts[3])
            assert type(one) is float and abs(one - rf.eval(pts[3])) <= tol


@pytest.mark.parametrize("seed", range(4))
def test_restrict_matches_eval_on_faces(seed):
    rng = np.random.default_rng(200 + seed)
    pts = rng.uniform(0.0, 1.0, (30, 3))
    for (p, _), _ in _pairs(seed):
        for ax in range(3):
            for value in (0, 1):
                on_face = pts.copy()
                on_face[:, ax] = value
                trace = p.restrict(ax, value)
                assert isinstance(trace, TrigPoly)
                assert all(key[ax] == 0 for key in trace.coef)
                err = np.max(np.abs(trace.eval(pts) - p.eval(on_face)))
                assert err <= 1e-14 * _l1(p)


def test_eval_fields_on_trig_vector_and_matrix_fields():
    rng = np.random.default_rng(3)
    pairs = [random_pair(rng, 4) for _ in range(12)]
    pts = rng.uniform(0.0, 1.0, (300, 3))  # more than one evaluation block
    u = pf.as_vec([p for p, _ in pairs[:3]])
    M = pf.as_mat([[pairs[3 + 3 * i + j][0] for j in range(3)] for i in range(3)])
    got_u, got_M = pf.eval_fields(u, pts), pf.eval_fields(M, pts)
    assert got_u.shape == (300, 3) and got_M.shape == (300, 3, 3)
    got = [got_u[:, i] for i in range(3)] + [got_M[:, i, j] for i in range(3) for j in range(3)]
    for g, (p, r) in zip(got, pairs):
        assert np.max(np.abs(g - r.eval(pts))) <= 1e-14 * _l1(p)
    one = pf.eval_fields(M, pts[7])
    assert one.shape == (3, 3)
    assert np.array_equal(one, got_M[7])
    assert np.array_equal(pf.eval_vec(u, pts), got_u)


def test_mixed_families_refuse_arithmetic():
    p, t = pf.Poly3.variable(0), TrigPoly.sine_mode((1, 1, 1))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(p, t)
        with pytest.raises(TypeError):
            op(t, p)
