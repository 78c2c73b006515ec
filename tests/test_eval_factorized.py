"""`polyfield.eval_fields` sum-factorized over the distinct coordinates of its points.

The points are sorted by (z, y); the stacked cubes are contracted over k once
per distinct z, over j once per distinct (y, z) pair and over i once per
point. The values must agree with the dense contraction that takes every
point on its own (restated here as `dense_eval`) to the rounding of the two
summation orders, for both scalar families, both float dtypes and every field
shape; they must not depend on which other points are evaluated alongside or
on the block size; and they must be non-finite exactly where the dense
contraction's are.
"""
import numpy as np
import pytest

from couplestress import gridoracle as go
from couplestress import polyfield as pf
from couplestress.trig import TrigPoly

SHAPES = [(), (3,), (3, 3), (3, 3, 3)]
DTYPES = [np.float64, np.longdouble]


def dense_eval(F, pts):
    """The dense contraction: every point pays the whole cube, 256 points at a time."""
    F = np.asarray(F, dtype=object)
    family = pf._dense_family(F.flat)
    pts = np.asarray(pts)
    p = pts.reshape(-1, 3).astype(np.result_type(pts.dtype, float))
    X = pf.FieldStack.of([F]).cubes.astype(p.dtype)
    D = X.shape[-1]
    X = X.reshape(F.size, D, D * D)
    out = np.empty((len(p), F.size), dtype=p.dtype)
    for a in range(0, len(p), 256):
        V = family.dense_values(D, p[a:a + 256])
        W = np.einsum("pj,pk->pjk", V[:, 1], V[:, 2]).reshape(len(V), D * D)
        T = np.einsum("pa,nia->pni", W, X)
        out[a:a + 256] = np.einsum("pni,pi->pn", T, V[:, 0])
    return out.reshape(pts.shape[:-1] + F.shape)


def random_trig(rng, D=7):
    """A TrigPoly with about half of the cube of odd size D filled over 16 decades."""
    cube = rng.uniform(-1, 1, (D, D, D)) * 10.0 ** rng.integers(-8, 8, (D, D, D))
    cube[rng.uniform(size=cube.shape) < 0.5] = 0.0
    return TrigPoly.from_cube(cube)


def random_field(rng, family, shape):
    F = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        F[idx] = pf.random_poly(rng, 1 + sum(idx) % 6) if family == "poly" else random_trig(rng)
    return F if shape else F[()]


def bound(F, pts):
    """A few eps of the dtype times sum |c| times the largest product of 1D values, per entry."""
    F = np.asarray(F, dtype=object)
    family = pf._dense_family(F.flat)
    p = np.asarray(pts).reshape(-1, 3)
    D = family.dense_size(pf.dense_degree(F.flat) + 1)
    vmax = float(np.max(np.abs(family.dense_values(D, p)), initial=1.0))
    l1 = np.array([sum(abs(v) for v in q.coef.values()) for q in F.flat]).reshape(F.shape)
    return 8 * D * float(np.finfo(p.dtype).eps) * l1 * vmax**3


def point_sets(rng, dtype):
    X = go.BASE_LATTICE
    stencil = X + np.reshape(np.asarray(go.DEFAULT_H), (-1, 1, 1, 1)) * go._SECOND[:, None, :]
    grid = np.array([[a, b, c] for a in (0.0, 0.5, 1.0) for b in (0.25, 0.75) for c in (0.1, 0.9)])
    sets = {
        "distinct": rng.uniform(0, 1, (300, 3)),
        "repeated": np.repeat(rng.uniform(0, 1, (3, 3)), 40, axis=0),
        "shared": stencil.reshape(-1, 3),
        "grid": rng.permutation(np.tile(grid, (3, 1))),
        "one": rng.uniform(0, 1, 3),
        "none": np.zeros((0, 3)),
        "outside": rng.uniform(-3, 4, (50, 3)),
        "plane": np.insert(rng.choice([0.2, 0.4, 0.6], (60, 2)), 1, 0.5, axis=1),
    }
    return {k: np.asarray(v, dtype=dtype) for k, v in sets.items()}


@pytest.mark.parametrize("family", ["poly", "trig"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
def test_agrees_with_the_dense_contraction(family, dtype, shape):
    rng = np.random.default_rng(len(shape) + 10 * (dtype == np.longdouble))
    F = random_field(rng, family, shape)
    for name, pts in point_sets(rng, dtype).items():
        got, want = pf.eval_fields(F, pts), dense_eval(F, pts)
        assert got.shape == want.shape == pts.shape[:-1] + np.shape(F), name
        assert got.dtype == want.dtype == dtype, name
        if got.size:
            err = np.max(np.abs(got - want).reshape(-1, *np.shape(F)), axis=0)
            assert np.all(err <= bound(F, pts)), name


@pytest.mark.parametrize("dtype", DTYPES)
def test_values_do_not_depend_on_the_other_points(dtype):
    rng = np.random.default_rng(2)
    u = pf.random_vec_field(rng, 5)
    for name, pts in point_sets(rng, dtype).items():
        if pts.ndim == 1 or not len(pts):
            continue
        full = pf.eval_fields(u, pts)
        perm = rng.permutation(len(pts))
        assert np.array_equal(pf.eval_fields(u, pts[perm]), full[perm]), name
        sub = perm[: max(1, len(pts) // 7)]
        assert np.array_equal(pf.eval_fields(u, pts[sub]), full[sub]), name
        assert np.array_equal(pf.eval_fields(u, pts[sub[0]]), full[sub[0]]), name


@pytest.mark.parametrize("block", [1, 2, 5])
@pytest.mark.parametrize("family", ["poly", "trig"])
def test_several_blocks_give_the_same_values(monkeypatch, block, family):
    rng = np.random.default_rng(block)
    F = random_field(rng, family, (3, 3))
    for dtype in DTYPES:
        for name, pts in point_sets(rng, dtype).items():
            want = pf.eval_fields(F, pts)
            with monkeypatch.context() as m:
                m.setattr(pf, "EVAL_BLOCK", block)
                got = pf.eval_fields(F, pts)
            assert np.array_equal(got, want), (name, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_match_the_dense_contraction(dtype, bad):
    rng = np.random.default_rng(3)
    u = pf.random_vec_field(rng, 4)
    pts = np.asarray(point_sets(rng, dtype)["shared"][:200], dtype=dtype)
    for axis in range(3):
        P = pts.copy()
        P[rng.choice(len(P), 9, replace=False), axis] = bad
        P[17] = bad  # a point with every coordinate bad
        got, want = pf.eval_fields(u, P), dense_eval(u, P)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert not np.all(np.isfinite(got)) and np.any(np.isfinite(got))
        ok = np.isfinite(want)
        tol = np.broadcast_to(bound(u, pts), got.shape)[ok]
        assert np.all(np.abs(got[ok] - want[ok]) <= tol)


@pytest.mark.parametrize("family", ["poly", "trig"])
def test_a_nan_coefficient_matches_the_dense_contraction(family):
    rng = np.random.default_rng(4)
    F = random_field(rng, family, (3,))
    cube = pf.to_dense(F[1], pf.dense_degree([F[1]]) + 1)
    cube[tuple(np.argwhere(cube)[0])] = np.nan
    F[1] = type(F[1]).from_cube(cube)
    for dtype in DTYPES:
        pts = point_sets(rng, dtype)["shared"]
        got, want = pf.eval_fields(F, pts), dense_eval(F, pts)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert np.all(np.isnan(got[..., 1]))
        assert np.all(np.isfinite(got[..., [0, 2]]))


def test_a_constant_field_stays_finite_at_nan_points():
    # D = 1: the only 1D value is 1 on each axis, in both contractions
    c = pf.Poly3.const(2.5)
    pts = np.array([[np.nan, 0.5, 0.5], [0.5, np.inf, np.nan], [0.1, 0.2, 0.3]])
    assert np.array_equal(pf.eval_fields(c, pts), dense_eval(c, pts))
    assert np.all(pf.eval_fields(c, pts) == 2.5)


# --- spacings and the observed order -------------------------------------


BAD_SPACINGS = [
    (0.0, 1 / 8, 1 / 16),
    (-1 / 8, 1 / 16, 1 / 32),
    (1 / 8, -1 / 16),
    (np.nan, 1 / 8, 1 / 16),
    (np.inf, 1 / 8, 1 / 16),
    (1 / 8,),
    (1 / 8, 1 / 8, 1 / 8),
    (),
]


@pytest.mark.parametrize("hs", BAD_SPACINGS)
def test_check_operator_refuses_bad_spacings_before_evaluating(monkeypatch, capfd, hs):
    def no_evaluation(*args):
        raise AssertionError("evaluated before the spacings were checked")

    monkeypatch.setattr(pf, "eval_fields", no_evaluation)
    u = pf.random_vec_field(np.random.default_rng(0), 4)
    for name in go.operator_names():
        with pytest.raises(ValueError, match="spacings"):
            go.check_operator(name, u, hs=hs)
    for trials in (0, 1):
        with pytest.raises(ValueError, match="spacings"):
            go.run_suite(seed=0, trials=trials, degree=3, hs=hs)
    assert capfd.readouterr() == ("", "")


def test_the_reasons_are_given():
    u = pf.random_vec_field(np.random.default_rng(0), 3)
    with pytest.raises(ValueError, match="finite and positive"):
        go.check_operator("curl", u, hs=(0.0, 1 / 8, 1 / 16))
    with pytest.raises(ValueError, match="at least two distinct"):
        go.check_operator("curl", u, hs=(1 / 8, 1 / 8))


def test_two_distinct_spacings_are_enough():
    u = pf.random_vec_field(np.random.default_rng(1), 5)
    rep = go.check_operator("curl", u, hs=(1 / 8, 1 / 16))
    assert rep.passed and rep.hs == [1 / 8, 1 / 16]
    rep = go.check_operator("curl", u, hs=(1 / 16, 1 / 8, 1 / 16))
    assert rep.passed and rep.observed_order >= 1.9


def test_an_exact_zero_error_above_the_floor_is_nan_without_a_warning():
    # the suite turns warnings into errors, so a log of 0 would fail here
    hs = go.DEFAULT_H
    for errors in ([0.0, 2e-13, 1e-13], [1e-2, 1e-3, 0.0], [np.nan, 1e-3, 1e-4], [np.inf, 1, 0.5]):
        order, exact = go._observed_order(errors, hs)
        assert np.isnan(order) and not exact


def test_the_floor_still_decides_exact_matches():
    assert go._observed_order([0.0, 0.0, 0.0], go.DEFAULT_H) == (float("inf"), True)
    assert go._observed_order([9e-14, 0.0, 1e-15], go.DEFAULT_H) == (float("inf"), True)


def test_the_closed_form_slope_is_the_least_squares_slope():
    rng = np.random.default_rng(5)
    hs = np.array(go.DEFAULT_H)
    for _ in range(50):
        errors = np.exp(rng.uniform(-30, 0, 3))
        order, exact = go._observed_order(errors, hs)
        assert not exact
        fitted = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert abs(order - fitted) <= 1e-12 * max(1, abs(order))
    order, _ = go._observed_order(3.0 * hs**2, hs)
    assert abs(order - 2) <= 1e-14
    order, _ = go._observed_order(7.0 * hs[[0, 1]], hs[[0, 1]])
    assert abs(order - 1) <= 1e-14
