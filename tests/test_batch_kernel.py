"""DenseBatch products and derivatives at the cost of their numpy steps.

A float multiple is one numpy multiply, a product with a batch constant in
space probes `other` first and `self` only if `other` is not constant (each
probe one `.any()` of the array), and a derivative gathers each slot from
its one source. Each case is checked byte for byte (`tobytes`) against the
former code restated, on coefficients that hold NaN, +-inf and -0.0.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress.trig import TrigPoly

B = pf.DenseBatch
REALS = (int, float, np.floating, np.integer)


def restated_constant(batch):
    flat = batch.coef.reshape(len(batch.coef), -1)
    return None if np.any(flat[:, 1:]) else flat[:, 0]


def restated_mul(batch, other):
    """The product as it was: both batches probed, other's constant first."""
    if isinstance(other, REALS):
        return B(batch.coef * float(other), batch.family)
    for const, field in ((restated_constant(other), batch), (restated_constant(batch), other)):
        if const is not None:
            return B(field.coef * const[:, None, None, None], batch.family)
    raise TypeError("product of two batches that are not constant in space")


def restated_diff(batch, axis):
    """The derivative as it was: the product formed, then written into the zero result."""
    coef = batch.coef
    out, src, w, past = pf._diff_plan(batch.family, coef.shape[-1], pf._axis(axis))
    if past is not None and coef[past].any():
        raise ValueError("past the layout")
    res = np.zeros(coef.shape, coef.dtype)
    res[out] = coef[src] * w
    return B(res, batch.family)


def same(got, ref):
    assert type(got) is B and got.family is ref.family
    assert got.coef.shape == ref.coef.shape and got.coef.dtype == ref.coef.dtype
    assert got.coef.tobytes() == ref.coef.tobytes()


SIZES = {pf.Poly3: 5, TrigPoly: 7, pf.DerivativeSymbol: pf.SYMBOL_SIZE}
FAMILIES = list(SIZES)
ids = [f.__name__ for f in FAMILIES]


def field_batch(family, seed, top=True):
    """Six fields with NaN, +-inf and -0.0 coefficients; top=False clears the top
    slot on every axis, which a symbol batch needs to be differentiated."""
    rng = np.random.default_rng(seed)
    D = SIZES[family]
    X = rng.uniform(-1.0, 1.0, (6, D, D, D))
    X[rng.uniform(size=X.shape) < 0.25] = -0.0
    X[0, 1, 0, 1] = np.nan
    X[1, 0, 1, 1] = np.inf
    X[2, 1, 1, 0] = -np.inf
    X[3, 0, 0, 0] = -0.0
    if not top:
        X[:, -1] = X[:, :, -1] = X[:, :, :, -1] = 0.0
    return B(X, family)


def constant_batch(family, values, zero=0.0):
    """Six fields constant in space; zero (0.0 or -0.0) fills every other slot."""
    D = SIZES[family]
    coef = np.full((6, D, D, D), zero)
    coef[:, 0, 0, 0] = values
    return B(coef, family)


CONSTANTS = [0.5, -2.0, -0.0, np.nan, np.inf, -np.inf]
FLOATS = [0.5, -0.0, 0.0, np.inf, -np.inf, np.nan, np.float64(-1.5), np.float64(-0.0),
          np.float32(0.1), np.float32(np.inf), 3, 0, np.int64(-7), True]


@pytest.mark.parametrize("family", FAMILIES, ids=ids)
def test_a_real_multiple_equals_the_restated_product(family):
    p = field_batch(family, 0)
    with np.errstate(invalid="ignore"):
        for s in FLOATS:
            same(p * s, restated_mul(p, s))
            same(s * p, restated_mul(p, s))


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("family", FAMILIES, ids=ids)
def test_a_product_with_a_constant_batch_equals_the_restated_product(family, zero):
    p = field_batch(family, 1)
    c = constant_batch(family, CONSTANTS, zero)
    d = constant_batch(family, CONSTANTS[::-1], zero)
    with np.errstate(invalid="ignore"):
        same(p * c, restated_mul(p, c))  # other constant
        same(c * p, restated_mul(c, p))  # self constant
        same(c * d, restated_mul(c, d))  # both: other's constant multiplies self
        same(d * c, restated_mul(d, c))
        # the sign of a zero slot and NaN from inf * 0 tell which constant won
        assert (c * d).coef.tobytes() != (d.coef * c.coef[:, :1, :1, :1]).tobytes()


@pytest.mark.parametrize("family", FAMILIES, ids=ids)
def test_two_batches_that_are_not_constant_raise(family):
    p, q = field_batch(family, 2), field_batch(family, 3)
    # a NaN past the constant slot makes a batch not constant
    r = constant_batch(family, CONSTANTS)
    r.coef[4, 0, 1, 0] = np.nan
    for a, b in ((p, q), (q, p), (p, r), (r, p)):
        with pytest.raises(TypeError, match="not constant in space"):
            a * b
        with pytest.raises(TypeError, match="not constant in space"):
            restated_mul(a, b)


def test_a_product_probes_self_only_if_other_is_not_constant(monkeypatch):
    p, c = field_batch(pf.Poly3, 4), constant_batch(pf.Poly3, CONSTANTS)
    probed = []
    constant = B._constant

    def counted(self):
        probed.append(self)
        return constant(self)

    monkeypatch.setattr(B, "_constant", counted)
    with np.errstate(invalid="ignore"):
        p * c
        assert probed == [c]
        probed.clear()
        c * p
        assert probed == [p, c]


@pytest.mark.parametrize("axis", [0, 1, 2, "y"])
@pytest.mark.parametrize("family", FAMILIES, ids=ids)
def test_diff_equals_the_restated_derivative(family, axis):
    p = field_batch(family, 5, top=family is not pf.DerivativeSymbol)
    with np.errstate(invalid="ignore"):
        same(p.diff(axis), restated_diff(p, axis))
        strided = B(np.stack([p.coef, p.coef], axis=1)[:, 1], family)
        same(strided.diff(axis), restated_diff(p, axis))


@pytest.mark.parametrize("family", FAMILIES, ids=ids)
def test_diff_keeps_a_nan_in_its_own_slot(family):
    D = SIZES[family]
    for slot in np.ndindex(D - 1, D - 1, D - 1):
        coef = np.zeros((1, D, D, D))
        coef[(0,) + slot] = np.nan
        for axis in range(3):
            got = B(coef, family).diff(axis).coef
            same(B(got, family), restated_diff(B(coef, family), axis))
            assert np.isnan(got).sum() <= 1  # one source slot reaches at most one out slot


@pytest.mark.parametrize("value", [1.0, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_diff_refuses_a_derivative_past_the_layout(axis, value):
    p = field_batch(pf.DerivativeSymbol, 6, top=False)
    at = [slice(None)] * 4
    at[axis + 1] = -1
    p.coef[tuple(at)][3, 0, 0] = value
    with pytest.raises(ValueError, match="past the layout"):
        restated_diff(p, axis)
    with pytest.raises(ValueError, match="leaves the DerivativeSymbol layout of size 3"):
        p.diff(axis)
