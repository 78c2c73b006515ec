"""The grid oracle shifts and plans each stencil once, and holds the plan.

`gridoracle._at_offsets` takes its stencil's evaluation plan from
`polyfield._EVAL_PLANS`, keyed by the lattice (dtype and bytes), the
spacings, the offset table and STENCIL_DTYPE; the plan is formed from the
shifted points on the first check after the cache is reset, and every check
contracts its field on it (`polyfield._evaluate`). A warm check must equal a
cold one bit for bit, and both the check that shifted the points and
evaluated them with the per-point loop of `tests/test_eval_plans.py` on every
call; each stencil set is shifted once per reset; a float64 STENCIL_DTYPE, a
mutated table and non-dyadic spacings are stencils of their own; points or
spacings given as objects are planned on every call, as before.
"""
from fractions import Fraction

import numpy as np
import pytest

from couplestress import gridoracle as go
from couplestress import polyfield as pf
from test_eval_plans import bits, plans, reference_eval  # noqa: F401 (plans is a fixture)


def reference_at_offsets(F, pts, h, offsets):
    """`_at_offsets` as it shifted and evaluated the stencil points on every call."""
    hs = np.reshape(np.asarray(h, dtype=go.STENCIL_DTYPE), -1)
    X = np.asarray(pts, dtype=go.STENCIL_DTYPE)
    shifted = X + hs[:, None, None, None] * offsets.astype(go.STENCIL_DTYPE)[:, None, :]
    vals = reference_eval(F, shifted)
    return vals, hs.reshape((-1,) + (1,) * (vals.ndim - 2))


def report_bits(rep):
    d = rep.as_dict()
    floats = [bits(np.asarray(d.pop(k), dtype=float)) for k in ("errors", "hs", "observed_order")]
    return floats, d


def _fields():
    rng = np.random.default_rng(21)
    return [pf.random_vec_field(rng, d) for d in (3, 4, 5)]


SPACINGS = [go.DEFAULT_H, (0.1, 0.05, 0.025), (1 / 8, 1 / 16)]


@pytest.mark.parametrize("hs", SPACINGS)
def test_a_warm_check_is_a_cold_check_and_the_per_call_stencil(plans, monkeypatch, hs):
    pts = go.BASE_LATTICE[::2] + 0.0625
    for u in _fields():
        for name in go.operator_names():
            pf._EVAL_PLANS.plans.clear()
            pf._EVAL_PLANS.pairs = 0
            cold = report_bits(go.check_operator(name, u, hs=hs, pts=pts))
            warm = report_bits(go.check_operator(name, u, hs=hs, pts=pts))
            with monkeypatch.context() as m:
                m.setattr(go, "_at_offsets", reference_at_offsets)
                want = report_bits(go.check_operator(name, u, hs=hs, pts=pts))
            assert cold == warm == want, name


@pytest.mark.parametrize("dtype", [np.longdouble, np.float64])
def test_the_stencil_builders_match_the_per_call_stencil(plans, monkeypatch, dtype):
    monkeypatch.setattr(go, "STENCIL_DTYPE", dtype)
    u = _fields()[1]
    P = pf.jac(u)
    for h in (1 / 16, [1 / 8, 1 / 32], (0.3, 0.1)):
        for fn, F in ((go.fd_grad, u), (go.fd_grad, P), (go.fd_second_gradient, u),
                      (go.fd_div, P), (go.fd_curl, u)):
            got = [bits(fn(F, go.BASE_LATTICE, h)) for _ in range(2)]
            with monkeypatch.context() as m:
                m.setattr(go, "_at_offsets", reference_at_offsets)
                want = bits(fn(F, go.BASE_LATTICE, h))
            assert got == [want, want]


class CountedTable(np.ndarray):
    """An offset table that counts the casts which start a shift of the stencil."""

    casts = []

    def astype(self, *args, **kwargs):
        CountedTable.casts.append(len(self))
        return np.asarray(self).astype(*args, **kwargs)


def test_each_stencil_set_is_shifted_once_per_reset(plans, monkeypatch):
    CountedTable.casts = []
    monkeypatch.setattr(go, "_FIRST", go._FIRST.view(CountedTable))
    monkeypatch.setattr(go, "_SECOND", go._SECOND.view(CountedTable))
    for _ in range(2):  # the second round runs after a reset
        monkeypatch.setattr(pf, "_EVAL_PLANS", pf._PlanCache(pf._EVAL_PLAN_POINTS))
        for u in _fields():
            for name in go.operator_names():
                assert go.check_operator(name, u).passed or name == "second_gradient"
    assert sorted(CountedTable.casts) == [6, 6, 19, 19]
    assert len(plans) == 2 * 3  # the lattice and the two stencils, per reset
    stencils = [key for key in pf._EVAL_PLANS.plans if key[0] == "stencil"]
    assert len(stencils) == 2 and len(pf._EVAL_PLANS.plans) == 3


def test_a_float64_stencil_dtype_gets_its_own_entry(plans, monkeypatch):
    u = pf.random_vec_field(np.random.default_rng(3), 3)
    assert go.check_operator("second_gradient", u).passed
    monkeypatch.setattr(go, "STENCIL_DTYPE", np.float64)
    assert not go.check_operator("second_gradient", u).passed
    assert not go.check_operator("second_gradient", u).passed
    stencils = sorted(key[1] for key in pf._EVAL_PLANS.plans if key[0] == "stencil")
    assert stencils == sorted([np.dtype(np.longdouble).str, np.dtype(np.float64).str])
    assert len(plans) == 3


def test_non_dyadic_spacings_are_held_too(plans):
    # these long double stencils are not float64 values, so eval_fields would
    # plan them on every call; the stencil key fixes them, so they are held
    u = _fields()[2]
    hs = (0.1, 0.05, 0.025)
    first = [go.check_operator(name, u, hs=hs).errors for name in go.operator_names()]
    before = len(plans)
    again = [go.check_operator(name, u, hs=hs).errors for name in go.operator_names()]
    assert bits(np.array(first)) == bits(np.array(again))
    assert len(plans) == before == 3


def test_the_held_stencils_share_the_cache_bound(plans, monkeypatch):
    monkeypatch.setattr(pf, "_EVAL_PLANS", pf._PlanCache(2000))
    u = _fields()[0]
    for name in ("grad", "second_gradient", "curl", "second_gradient"):
        go.check_operator(name, u)
        held = pf._EVAL_PLANS.plans.values()
        assert sum(len(plan.order) for plan in held) == pf._EVAL_PLANS.pairs <= 2000
    # 27 * 19 * 3 = 1539 points of the second differences and 486 of the first
    # do not fit together: the cache starts over rather than pass its bound
    assert len(plans) > 3


def test_object_points_and_spacings_are_planned_on_every_call(plans, monkeypatch):
    # the bytes of an object array are addresses, so they cannot key a plan
    F = Fraction
    pts = [[F(1, 4), F(1, 2), F(3, 4)], [F(1, 3), F(1, 5), F(2, 7)]]
    hs = [F(1, 8), F(1, 16)]
    u = _fields()[1]
    for name in go.operator_names():
        got = [report_bits(go.check_operator(name, u, hs=hs, pts=pts)) for _ in range(2)]
        with monkeypatch.context() as m:
            m.setattr(go, "_at_offsets", reference_at_offsets)
            want = report_bits(go.check_operator(name, u, hs=hs, pts=pts))
        assert got == [want, want], name
    assert not [key for key in pf._EVAL_PLANS.plans if key[0] == "stencil"]
