"""DenseBatch methods on ready derivative plans and results made without __init__.

Each method is checked against a restated copy of the form it replaces,
byte for byte (`tobytes`), on batches of every family with zeros, NaN and
inf coefficients, contiguous and strided, on every axis: the derivative
read its out, src and weight indices from the family's derivative matrix
on every call and made each result through __init__.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress.trig import TrigPoly


def as_slice(idx):
    step = idx[1] - idx[0] if len(idx) > 1 else 1
    if len(idx) and step > 0 and np.array_equal(idx, np.arange(idx[0], idx[-1] + 1, step)):
        return slice(int(idx[0]), int(idx[-1]) + 1, int(step))
    return idx


def restated_diff(batch, axis):
    """The gather as it was: indices read from R on the call, the result through __init__."""
    ax, D = pf._axis(axis), batch.coef.shape[-1]
    R = batch.family.dense_diff(D)
    out, src = np.nonzero(R)
    w = R[out, src]
    inside = out < D
    past = None if inside.all() else as_slice(src[~inside])
    out, src, w = as_slice(out[inside]), as_slice(src[inside]), w[inside]
    lead = (slice(None),) * (ax + 1)
    if past is not None and np.any(batch.coef[lead + (past,)]):
        raise ValueError("past the layout")
    coef = np.zeros_like(batch.coef)
    coef[lead + (out,)] = batch.coef[lead + (src,)] * w.reshape((-1,) + (1,) * (2 - ax))
    return pf.DenseBatch(coef, batch.family)


def restated_restrict(batch, axis, value):
    ax = pf._axis(axis)
    vals = batch.family.dense_values(batch.coef.shape[-1], value)
    coef = np.zeros_like(batch.coef)
    at = [slice(None)] * 4
    at[ax + 1] = 0
    coef[tuple(at)] = np.tensordot(batch.coef, vals, (ax + 1, 0))
    return pf.DenseBatch(coef, batch.family)


def same(got, ref):
    assert type(got) is pf.DenseBatch and got.family is ref.family
    assert got.coef.shape == ref.coef.shape and got.coef.dtype == ref.coef.dtype
    assert got.coef.tobytes() == ref.coef.tobytes()


SIZES = {pf.Poly3: 6, TrigPoly: 7, pf.DerivativeSymbol: pf.SYMBOL_SIZE}


def batch_of(family, seed, strided=False, top=True):
    """A batch of 5 fields with zero, NaN, inf and -inf coefficients.

    strided takes it as one slot of a wider stack; top=False clears the top
    slot on every axis, which a symbol batch needs to be differentiated.
    """
    rng = np.random.default_rng(seed)
    D = SIZES[family]
    X = rng.uniform(-1.0, 1.0, (5, 2, D, D, D))
    X[rng.uniform(size=X.shape) < 0.2] = 0.0
    X[0, :, 1, 0, 1] = np.nan
    X[1, :, 0, 1, 1] = np.inf
    X[2, :, 1, 1, 0] = -np.inf
    if not top:
        X[..., -1, :, :] = X[..., :, -1, :] = X[..., :, :, -1] = 0.0
    coef = X[:, 1] if strided else X[:, 1].copy()
    return pf.DenseBatch(coef, family)


FAMILIES = list(SIZES)
ids = [f.__name__ for f in FAMILIES]


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("axis", [0, 1, 2, "x", "y", "z", "x3"])
@pytest.mark.parametrize("family", FAMILIES, ids=ids)
def test_diff_equals_the_restated_gather(family, axis, strided):
    for seed in range(3):
        batch = batch_of(family, seed, strided, top=family is not pf.DerivativeSymbol)
        same(batch.diff(axis), restated_diff(batch, axis))


@pytest.mark.parametrize("value", [1.0, float("nan")])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_diff_refuses_a_derivative_past_the_layout_as_before(axis, value):
    batch = batch_of(pf.DerivativeSymbol, axis, top=False)
    at = [slice(None)] * 4
    at[axis + 1] = -1
    batch.coef[tuple(at)][2, 0, 0] = value
    with pytest.raises(ValueError, match="past the layout"):
        restated_diff(batch, axis)
    with pytest.raises(ValueError, match="leaves the DerivativeSymbol layout of size 3"):
        batch.diff(axis)


@pytest.mark.parametrize("family", [pf.Poly3, TrigPoly])
def test_a_one_slot_layout_differentiates_to_zero(family):
    batch = pf.DenseBatch(np.full((3, 1, 1, 1), 2.5), family)
    for axis in range(3):
        got = batch.diff(axis)
        same(got, restated_diff(batch, axis))
        assert not got.coef.any()


@pytest.mark.parametrize("family", FAMILIES, ids=ids)
def test_arithmetic_equals_the_restated_forms(family):
    p, q = batch_of(family, 1), batch_of(family, 2, strided=True)
    const = pf.DenseBatch(np.zeros_like(p.coef), family)
    const.coef[:, 0, 0, 0] = [0.5, -2.0, 0.0, 3.0, np.nan]
    B = pf.DenseBatch
    with np.errstate(invalid="ignore"):
        same(p + q, B(p.coef + q.coef, family))
        same(p - q, B(p.coef - q.coef, family))
        same(-p, B(-p.coef, family))
        for s in (0.5, 2, np.float64(-1.5), np.int64(3)):
            same(p * s, B(p.coef * float(s), family))
            same(s * p, B(p.coef * float(s), family))
        same(p * const, B(p.coef * const.coef[:, 0, 0, 0][:, None, None, None], family))
        same(const * p, B(p.coef * const.coef[:, 0, 0, 0][:, None, None, None], family))
    one = np.zeros_like(p.coef)
    one[:, 0, 0, 0] = 1.0
    same(p ** 0, B(one, family))
    with pytest.raises(TypeError, match="not constant in space"):
        p * q
    with pytest.raises(TypeError, match="families or layouts"):
        p + pf.DenseBatch(p.coef[:, :-1, :-1, :-1], family)


@pytest.mark.parametrize("family", [pf.Poly3, TrigPoly], ids=["Poly3", "TrigPoly"])
def test_restrict_equals_the_restated_form(family):
    batch = batch_of(family, 4, strided=True)
    with np.errstate(invalid="ignore"):
        for axis in (0, 1, 2, "z"):
            for value in (0.0, 0.3, 1.0):
                same(batch.restrict(axis, value), restated_restrict(batch, axis, value))


def test_results_are_made_without_init(monkeypatch):
    p, q = batch_of(pf.Poly3, 0), batch_of(pf.Poly3, 1)
    const = (p ** 0) * 2.0

    def refused(self, coef, family):
        raise AssertionError("DenseBatch.__init__ called")

    monkeypatch.setattr(pf.DenseBatch, "__init__", refused)
    with np.errstate(invalid="ignore"):
        results = [p + q, p - q, -p, p * 2.0, 3.0 * p, p * const, const * q, p ** 0,
                   p.diff(0), p.diff("z"), p.restrict(1, 0.5)]
    assert all(type(r) is pf.DenseBatch and r.family is pf.Poly3 for r in results)


def test_the_derivative_plan_is_formed_once_per_family_layout_and_axis():
    batch = batch_of(TrigPoly, 0)
    batch.diff("y")
    before = pf._diff_plan.cache_info()
    batch.diff(1)
    batch.diff("x2")
    after = pf._diff_plan.cache_info()
    assert after.hits - before.hits == 2 and after.misses == before.misses
