"""`polyfield.eval_fields` tabulates each distinct x once.

An evaluation plan holds the distinct x of its points (`polyfield._distinct`)
and the row of each point's x among them, so the x value table has one row per
distinct x, not one per point. Distinct means distinct value bits, never the
padding bytes of a long double: -0.0 and 0.0 keep rows of their own, and so
does each NaN. Every value must stay what the loop that tabulated the x of
every point gave (`reference_eval` of `tests/test_eval_plans.py`), bit for
bit, for both families and both dtypes.
"""
from fractions import Fraction

import numpy as np
import pytest

from couplestress import polyfield as pf
from test_eval_plans import DTYPES, bits, fields, plans, reference_eval  # noqa: F401

NAN = float("nan")


def repeated_x(rng, n=240):
    """Points whose x repeat among a few values, signed zeros and NaN included."""
    pts = rng.uniform(-0.5, 1.5, (n, 3))
    pts[:, 0] = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0, NAN, -0.75], n)
    pts[::7, 1] = rng.choice([-0.0, 0.0, NAN], len(pts[::7]))
    pts[::11, 2] = rng.choice([-0.0, 0.0, 0.5], len(pts[::11]))
    return pts


def value_bits(t):
    """The value of each coordinate as a key: its float64 rounding and the rest, by bytes
    (a long double's padding plays no part)."""
    b = bits(np.asarray(t).reshape(-1, 1))
    e, hi, rest = (np.frombuffer(x, np.uint8).reshape(len(t), -1) for x in b[2:])
    return {(a.tobytes(), c.tobytes(), d.tobytes()) for a, c, d in zip(e, hi, rest)}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("family", ["poly", "trig"])
def test_repeated_signed_zero_and_nan_x_give_the_reference_values(plans, family, dtype):
    rng = np.random.default_rng(31 + (family == "trig"))
    F = fields(rng)[family]
    for _ in range(3):
        pts = np.asarray(repeated_x(rng), dtype=dtype)
        with np.errstate(invalid="ignore"):  # TrigPoly reduces a NaN modulo 2
            want = bits(reference_eval(F, pts))
            assert bits(pf.eval_fields(F, pts)) == want
            assert bits(pf.eval_fields(F, pts)) == want  # on a held plan, in float64


@pytest.mark.parametrize("dtype", DTYPES)
def test_the_x_table_has_one_row_per_distinct_value(dtype):
    rng = np.random.default_rng(33)
    pts = np.asarray(repeated_x(rng), dtype=dtype)
    plan = pf._form_eval_plan(pts)
    nx = plan.x_of.max() + 1
    xs = plan.coords[:nx]
    finite = xs[~np.isnan(xs)]
    assert len(xs) == len(value_bits(finite)) + np.isnan(pts[:, 0]).sum()
    assert sorted(np.signbit(xs[xs == 0]).tolist()) == [False, True]  # -0.0 and 0.0
    # each sorted point reads its own x
    s = pts[plan.order, 0]
    got = xs[plan.x_of]
    assert bits(got[~np.isnan(s)]) == bits(s[~np.isnan(s)])
    assert np.isnan(got[np.isnan(s)]).all()
    assert len(set(plan.x_of[np.isnan(s)].tolist())) == np.isnan(s).sum()  # a row per NaN


def test_distinct_keeps_equal_bits_together_and_the_rest_apart():
    t = np.array([0.5, -0.0, NAN, 0.5, 0.0, -0.0, NAN, np.inf, -np.inf, 0.0, 0.25])
    for dtype in DTYPES:
        xs, row = pf._distinct(t.astype(dtype))
        assert len(xs) == 8  # 0.5, -0.0, 0.0, inf, -inf, 0.25 and two NaN
        assert bits(xs[row][~np.isnan(t)]) == bits(t.astype(dtype)[~np.isnan(t)])
        assert row[0] == row[3] and row[1] == row[5] and row[4] == row[9]
        assert len({row[1], row[4], row[2], row[6]}) == 4


def test_long_double_padding_does_not_split_a_row():
    info = np.finfo(np.longdouble)
    if info.nmant != 63 or np.dtype(np.longdouble).itemsize <= 10:
        pytest.skip("long double has no padding bytes here")
    rng = np.random.default_rng(34)
    t = np.asarray(rng.choice([0.25, 0.5, -0.0], 50), dtype=np.longdouble)
    pad = t.view(np.uint8).reshape(-1, np.dtype(np.longdouble).itemsize)[:, 10:]
    pad[:] = rng.integers(0, 256, pad.shape, dtype=np.uint8)
    xs, row = pf._distinct(t)
    assert len(xs) == 3
    assert bits(xs[row]) == bits(t)


def test_object_coordinates_keep_a_row_per_point(plans):
    F = Fraction
    pts = np.array([[F(1, 4), F(1, 2), F(3, 4)], [F(1, 3), F(1, 5), F(2, 7)],
                    [F(1, 4), F(1, 3), F(1, 2)], [F(1, 4), F(1, 2), F(1, 2)]], dtype=object)
    u = pf.random_vec_field(np.random.default_rng(35), 4)
    got, want = pf.eval_fields(u, pts), reference_eval(u, pts)
    assert got.dtype == want.dtype == object
    assert [repr(v) for v in got.ravel()] == [repr(v) for v in want.ravel()]
    xs, row = pf._distinct(pts[:, 0])
    assert list(xs) == list(pts[:, 0])
    assert row.tolist() == [0, 1, 2, 3]
