"""Poly3 arithmetic is bit-identical to the plain dict loops.

The reference below is the arithmetic as first written: every result built
by a double or single dict loop and passed through the checking constructor.
The kernel must give the same coefficients (bitwise), in the same key
order, with the same cap, on both sides of the product dispatch size.
"""
import math
import struct

import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress.polyfield import DegreeCapError, Poly3

NAN = float("nan")


# --- reference: the dict loops, results through the checking constructor ------


def ref_add(p, q):
    coef = dict(p.coef)
    for key, val in q.coef.items():
        coef[key] = coef.get(key, 0.0) + val
    return Poly3(coef, max(p.cap, q.cap))


def ref_neg(p):
    return Poly3({k: -v for k, v in p.coef.items()}, p.cap)


def ref_sub(p, q):
    return ref_add(p, ref_neg(q))


def ref_mul(p, q):
    coef = {}
    for (a, b, c), u in p.coef.items():
        for (d, e, f), v in q.coef.items():
            key = (a + d, b + e, c + f)
            coef[key] = coef.get(key, 0.0) + u * v
    return Poly3(coef, p.cap + q.cap)


def ref_scale(p, s):
    return Poly3({k: v * float(s) for k, v in p.coef.items()}, p.cap)


def ref_diff(p, ax):
    coef = {}
    for key, val in p.coef.items():
        e = key[ax]
        if e == 0:
            continue
        new = list(key)
        new[ax] = e - 1
        coef[tuple(new)] = coef.get(tuple(new), 0.0) + e * val
    return Poly3(coef, p.cap)


def ref_restrict(p, ax, value):
    coef = {}
    for key, val in p.coef.items():
        e = key[ax]
        new = list(key)
        new[ax] = 0
        coef[tuple(new)] = coef.get(tuple(new), 0.0) + val * value**e
    return Poly3(coef, p.cap)


def ref_pow(p, n):
    out = Poly3.const(1.0, p.cap)
    for _ in range(n):
        out = ref_mul(out, p)
    return out


# --- comparison ---------------------------------------------------------------


def _bits(v):
    return struct.pack("<d", v)


def assert_same(got, want):
    """Same keys in the same order, values bitwise equal (any NaN matches NaN)."""
    assert got.cap == want.cap
    assert list(got.coef) == list(want.coef)
    for key, g in got.coef.items():
        w = want.coef[key]
        assert math.isnan(g) == math.isnan(w), key
        if not math.isnan(w):
            assert _bits(g) == _bits(w), (key, g, w)
    for key, v in got.coef.items():
        assert type(key) is tuple and len(key) == 3
        assert all(type(e) is int for e in key), key
        assert type(v) is float, key
    assert type(got.cap) is int


def random_poly(rng, degree, cap=pf.DEFAULT_CAP, density=1.0):
    """Random poly of the given degree: a random subset of the monomials,
    coefficients spread over many magnitudes so that sums round."""
    coef = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            for k in range(degree + 1 - i - j):
                if rng.uniform() < density:
                    coef[(i, j, k)] = float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-8, 8))
    keys = list(coef)
    order = rng.permutation(len(keys))
    return Poly3({keys[t]: coef[keys[t]] for t in order}, max(cap, degree))


def _pairs(seed, n=12):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        d1, d2 = (int(d) for d in rng.integers(0, 7, size=2))
        density = float(rng.choice([0.3, 0.7, 1.0]))
        yield random_poly(rng, d1, density=density), random_poly(rng, d2, density=density)


def _product_sizes():
    """Pairs whose term-pair counts sit below, at and above the dispatch size."""
    rng = np.random.default_rng(7)
    out = []
    for d1, d2 in [(1, 1), (2, 2), (3, 2), (3, 3), (4, 3), (5, 4), (6, 6)]:
        out.append((random_poly(rng, d1), random_poly(rng, d2)))
    return out


# --- tests --------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_add_sub_neg_match_reference(seed):
    for p, q in _pairs(seed):
        assert_same(p + q, ref_add(p, q))
        assert_same(p - q, ref_sub(p, q))
        assert_same(-p, ref_neg(p))
        assert_same(p + 2.5, ref_add(p, Poly3.const(2.5, p.cap)))
        assert_same(p - 2.5, ref_sub(p, Poly3.const(2.5, p.cap)))
        assert_same(2.5 - p, ref_add(ref_neg(p), Poly3.const(2.5, p.cap)))


@pytest.mark.parametrize("seed", range(6))
def test_mul_and_scale_match_reference(seed):
    for p, q in _pairs(seed):
        assert_same(p * q, ref_mul(p, q))
        assert_same(q * p, ref_mul(q, p))
        assert_same(p * -3.25, ref_scale(p, -3.25))
        assert_same(0.5 * p, ref_scale(p, 0.5))
        assert_same(p / 4.0, ref_scale(p, 1.0 / 4.0))


@pytest.mark.parametrize("path", ["loop", "bincount"])
def test_both_product_paths_match_reference(path, monkeypatch):
    monkeypatch.setattr(pf, "MUL_BINCOUNT_PAIRS", 10**9 if path == "loop" else 0)
    for p, q in _product_sizes():
        assert_same(p * q, ref_mul(p, q))
        assert_same(q * p, ref_mul(q, p))


def test_default_dispatch_covers_both_sides():
    sizes = [len(p.coef) * len(q.coef) for p, q in _product_sizes()]
    assert min(sizes) < pf.MUL_BINCOUNT_PAIRS <= max(sizes)
    for p, q in _product_sizes():
        assert_same(p * q, ref_mul(p, q))


@pytest.mark.parametrize("seed", range(6))
def test_diff_restrict_pow_match_reference(seed):
    rng = np.random.default_rng(100 + seed)
    for p, _ in _pairs(seed):
        for ax in range(3):
            assert_same(p.diff(ax), ref_diff(p, ax))
            value = float(rng.uniform(-2, 2))
            assert_same(p.restrict(ax, value), ref_restrict(p, ax, value))
            assert_same(p.restrict(ax, 1.0), ref_restrict(p, ax, 1.0))
        if p.degree() <= 2:
            p3 = Poly3(p.coef, cap=24)
            assert_same(p3**3, ref_pow(p3, 3))
        assert_same(p**0, ref_pow(p, 0))


def test_cancellation_leaves_empty():
    p = random_poly(np.random.default_rng(3), 5)
    assert (p - p).coef == {}
    assert (p + (-p)).coef == {}
    assert (p * 0.0).coef == {}
    assert (p * Poly3.zero()).coef == {}
    assert Poly3.const(2.0).diff(0).coef == {}


@pytest.mark.parametrize("path", ["loop", "bincount"])
def test_nan_survives(path, monkeypatch):
    monkeypatch.setattr(pf, "MUL_BINCOUNT_PAIRS", 10**9 if path == "loop" else 0)
    p = random_poly(np.random.default_rng(4), 4)
    bad = Poly3({**p.coef, (1, 1, 0): NAN})
    assert math.isnan((bad + p).coef[(1, 1, 0)])
    assert math.isnan((p - bad).coef[(1, 1, 0)])
    assert math.isnan((bad * p).max_abs_coeff())
    assert math.isnan((p * bad).max_abs_coeff())
    assert math.isnan(bad.diff(0).coef[(0, 1, 0)])
    assert math.isnan(bad.diff(1).coef[(1, 0, 0)])
    assert_same(bad * p, ref_mul(bad, p))
    assert_same(bad.diff(0), ref_diff(bad, 0))


def test_explicit_construction_still_checks():
    with pytest.raises(DegreeCapError):
        Poly3({(5, 0, 0): 1.0}, cap=4)
    with pytest.raises(ValueError):
        Poly3({(-1, 0, 0): 1.0})
    p = Poly3({(np.int64(1), 0, 0): np.float64(2.0), (0, 0, 0): 0.0})
    assert p.coef == {(1, 0, 0): 2.0}
    assert type(p.coef[(1, 0, 0)]) is float
    assert all(type(e) is int for e in next(iter(p.coef)))


def test_product_cap_is_sum_and_sum_cap_is_max():
    p = Poly3({(1, 0, 0): 1.0}, cap=3)
    q = Poly3({(0, 2, 0): 1.0}, cap=5)
    assert (p * q).cap == 8
    assert (p + q).cap == 5
    assert (p - q).cap == 5
    assert (-p).cap == 3
    assert p.diff(0).cap == 3
    assert (p * 2.0).cap == 3
