"""Sums, differences and float multiples skip no semantics when they skip dispatch.

`ScalarField.__add__` and `__sub__` take an operand of their own type
without `_coerce`, `__mul__` takes a plain float first, and `Poly3._result`
makes its result inline. The reference is the dispatch as first written:
`_coerce` for every operand, float(s) for every multiple, and every result
through the family's `_made`. Both families must agree with it bitwise, in
key order and in cap, on exact zeros put into `.coef` in place, -0.0, NaN,
+-inf, products that underflow to zero, and int, np.float64 and bool
operands.
"""
import math

import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import trig
from couplestress.polyfield import Poly3
from couplestress.trig import TrigPoly

NAN, INF = float("nan"), float("inf")
REALS = (int, float, np.floating, np.integer)


def made(like, coef, cap):
    if isinstance(like, Poly3):
        return pf._made(coef, cap)
    return trig._made(coef)


def cap_of(*fields):
    return max(getattr(f, "cap", 0) for f in fields)


def ref_coerce(p, other):
    if isinstance(other, type(p)):
        return other
    if isinstance(other, REALS):
        return p._const(float(other))
    return None


def ref_sum(p, other, sign):
    q = ref_coerce(p, other)
    coef = dict(p.coef)
    for key, val in q.coef.items():
        coef[key] = coef.get(key, 0.0) + val if sign > 0 else coef.get(key, 0.0) - val
    return made(p, coef, cap_of(p, q))


def ref_scale(p, s):
    s = float(s)
    return made(p, {k: v * s for k, v in p.coef.items()}, cap_of(p))


def ref_neg(p):
    return made(p, {k: -v for k, v in p.coef.items()}, cap_of(p))


def same(got, ref):
    assert type(got) is type(ref)
    assert list(got.coef) == list(ref.coef)
    assert all(type(v) is float for v in got.coef.values())
    assert [np.float64(v).tobytes() for v in got.coef.values()] == \
           [np.float64(v).tobytes() for v in ref.coef.values()]
    assert getattr(got, "cap", None) == getattr(ref, "cap", None)


def with_in_place(p, key, value):
    """p with one coefficient set in place (a 0.0 too, which no constructor keeps)."""
    out = Poly3(p.coef, p.cap) if isinstance(p, Poly3) else trig._made(dict(p.coef))
    out.coef[key] = value
    return out


def poly_pair(seed):
    rng = np.random.default_rng(seed)
    p = pf.random_poly(rng, 3, cap=5)
    q = pf.random_poly(rng, 2, cap=7)
    return p, q


def trig_pair(seed):
    rng = np.random.default_rng(seed)
    keys = [(i, j, k) for i in range(3) for j in range(3) for k in range(2)]
    p = trig._made({k: float(v) for k, v in zip(keys, rng.uniform(-1, 1, len(keys)))})
    q = trig._made({k: float(v) for k, v in zip(keys[::-2], rng.uniform(-1, 1, len(keys)))})
    return p, q


SPECIAL = [0.0, -0.0, NAN, INF, -INF, 1e-300, 5e-324]
OPERANDS = [2.5, -0.0, 0.0, 3, -2, True, False, np.float64(0.75), np.float64(NAN), INF,
            1e-300, np.int64(4)]


def variants(pair):
    """The pair, and the pair with special coefficients put in place on both sides."""
    p, q = pair
    shared = next(iter(q.coef))
    out = [(p, q)]
    for val in SPECIAL:
        out.append((with_in_place(p, shared, val), q))
        out.append((p, with_in_place(q, shared, val)))
        out.append((with_in_place(p, shared, val), with_in_place(q, shared, -val)))
    return out


@pytest.mark.parametrize("family", [poly_pair, trig_pair])
@pytest.mark.parametrize("seed", range(3))
def test_sums_and_differences_of_one_family_match_the_coerced_dispatch(family, seed):
    for p, q in variants(family(seed)):
        same(p + q, ref_sum(p, q, +1))
        same(q + p, ref_sum(q, p, +1))
        same(p - q, ref_sum(p, q, -1))
        same(q - p, ref_sum(q, p, -1))
        same(p - p, ref_sum(p, p, -1))


@pytest.mark.parametrize("family", [poly_pair, trig_pair])
@pytest.mark.parametrize("s", OPERANDS, ids=repr)
def test_float_multiples_and_real_operands_match_the_coerced_dispatch(family, s):
    for p, _ in variants(family(1)):
        same(p * s, ref_scale(p, s))
        same(s * p, ref_scale(p, s))
        same(p + s, ref_sum(p, s, +1))
        same(s + p, ref_sum(p, s, +1))
        same(p - s, ref_sum(p, s, -1))
        same(s - p, ref_sum(ref_neg(p), s, +1))
        same(-p, ref_neg(p))


def test_a_multiple_that_underflows_drops_its_keys():
    p = Poly3({(0, 0, 0): 1e-300, (1, 0, 0): 1.0, (0, 1, 0): -1e-300}, cap=4)
    got = p * 1e-300
    assert list(got.coef) == [(1, 0, 0)] and got.cap == 4
    same(got, ref_scale(p, 1e-300))
    t = trig._made({(0, 0, 0): 1e-300, (1, 0, 0): 2.0})
    same(t * 1e-300, ref_scale(t, 1e-300))
    assert list((t * 1e-300).coef) == [(1, 0, 0)]


def test_zero_and_nan_results_keep_the_dict_semantics():
    p, q = poly_pair(5)
    assert (p - p).coef == {} and (p * 0.0).coef == {} and (p * -0.0).coef == {}
    n = p * NAN
    assert list(n.coef) == list(p.coef) and all(math.isnan(v) for v in n.coef.values())
    zero_in_place = with_in_place(p, next(iter(p.coef)), 0.0)
    assert next(iter(p.coef)) not in (zero_in_place * 2.0).coef
    assert next(iter(p.coef)) not in (-zero_in_place).coef


def test_a_sum_takes_the_larger_cap_on_either_side():
    a, b = Poly3({(1, 0, 0): 1.0}, cap=3), Poly3({(0, 1, 0): 1.0}, cap=9)
    assert (a + b).cap == 9 and (b + a).cap == 9 and (a - b).cap == 9
    assert (a + 1).cap == 3 and (a * 2.0).cap == 3 and (-b).cap == 9


def test_other_operands_are_still_refused():
    p, _ = poly_pair(0)
    t, _ = trig_pair(0)
    for a, b in ((p, t), (t, p)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
        with pytest.raises(TypeError):
            a * b
    with pytest.raises(TypeError):
        p + "1"
    with pytest.raises(TypeError):
        p * None
    assert isinstance(TrigPoly.const(1.0) * 2.0, TrigPoly)
