"""The grid oracle evaluated through per-axis power tables in extended precision.

Each finite-difference operator evaluates its field once, on the stencil
points of every h, through `polyfield.eval_fields`, and forms its
quotients in `gridoracle.STENCIL_DTYPE`. The oracle must still pass every
operator, still catch a wrong stencil, and keep the shapes and dtype of
its public `fd_*` functions.
"""
import numpy as np
import pytest

from couplestress import gridoracle as go
from couplestress import polyfield as pf
from couplestress import tensors as tn
from couplestress.polyfield import Poly3

FIRST_ORDER = ("grad", "jacobian", "div", "curl", "mat_curl", "mat_div")


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_every_operator_passes_at_degree(degree):
    # degree 3 at seed 3 is where float64 stencils fail second_gradient
    reports = go.run_suite(seed=3, trials=10, degree=degree)
    failed = [(r.operator, r.errors) for r in reports if not r.passed]
    assert not failed


def test_reports_record_the_stencil_precision():
    u = pf.random_vec_field(np.random.default_rng(4), 3)
    rep = go.check_operator("second_gradient", u)
    eps = float(np.finfo(np.longdouble).eps)
    assert rep.stencil_eps == eps
    assert rep.as_dict()["stencil_eps"] == eps


def test_double_precision_stencils_fail_honestly(monkeypatch):
    # with plain double stencils the roundoff eps*|u|/h^2 of a degree-3
    # second difference is above the exact-match floor: the check fails
    monkeypatch.setattr(go, "STENCIL_DTYPE", np.float64)
    u = pf.random_vec_field(np.random.default_rng(3), 3)
    rep = go.check_operator("second_gradient", u)
    assert not rep.passed
    assert rep.stencil_eps == float(np.finfo(np.float64).eps)


def _mutation_fields():
    rng = np.random.default_rng(11)
    return [pf.random_vec_field(rng, d) for d in (3, 4, 5) for _ in range(4)]


@pytest.mark.parametrize("mutation", ["wrong-axis", "sign-flip"])
@pytest.mark.parametrize("name", FIRST_ORDER)
def test_mutated_first_differences_are_caught(monkeypatch, name, mutation):
    plus, minus = go._FIRST[:3], go._FIRST[3:]
    if mutation == "wrong-axis":
        table = np.concatenate([np.roll(plus, 1, axis=0), np.roll(minus, 1, axis=0)])
    else:
        table = np.concatenate([minus, plus])
    monkeypatch.setattr(go, "_FIRST", table)
    for u in _mutation_fields():
        assert not go.check_operator(name, u).passed


def test_sign_flipped_mixed_second_difference_is_caught(monkeypatch):
    # swap +a+b with +a-b and -a+b with -a-b: every mixed quotient flips sign
    table = go._SECOND.copy()
    table[7:] = table[7:].reshape(3, 4, 3)[:, [1, 0, 3, 2]].reshape(12, 3)
    monkeypatch.setattr(go, "_SECOND", table)
    for u in _mutation_fields():
        assert not go.check_operator("second_gradient", u).passed


def _reference(name, F, pts, h):
    """The fd_* operators as float64 loops over fd_partial and fd_second_partial."""
    def d(p, ax):
        return go.fd_partial(p.eval, pts, ax, h)

    if name == "grad":
        return np.stack([d(F, a) for a in range(3)], axis=-1)
    if name == "second_gradient":
        return np.stack([
            np.stack([np.stack([go.fd_second_partial(F[k].eval, pts, i, j, h)
                                for j in range(3)], axis=-1) for i in range(3)], axis=-2)
            for k in range(3)], axis=-3)
    G = np.moveaxis(np.array([[d(p, a) for a in range(3)] for p in np.ravel(F)]), -1, 0)
    G = G.reshape((len(pts),) + F.shape + (3,))
    if name in ("jacobian", "mat_grad"):
        return G
    if name in ("div", "mat_div"):
        return sum(G[..., a, a] for a in range(3))
    if name == "curl":
        return np.stack([G[:, 2, 1] - G[:, 1, 2], G[:, 0, 2] - G[:, 2, 0],
                         G[:, 1, 0] - G[:, 0, 1]], axis=-1)
    return np.einsum("jlk,...ikl->...ij", tn.EPS, G)  # mat_curl


FD = {
    "grad": (go.fd_grad, lambda u: u[0], (3,)),
    "jacobian": (go.fd_jac, lambda u: u, (3, 3)),
    "div": (go.fd_div, lambda u: u, ()),
    "curl": (go.fd_curl, lambda u: u, (3,)),
    "mat_grad": (go.fd_mat_grad, lambda u: tn.sym(pf.jac(u)), (3, 3, 3)),
    "mat_curl": (go.fd_mat_curl, lambda u: tn.sym(pf.jac(u)), (3, 3)),
    "mat_div": (go.fd_mat_div, lambda u: tn.sym(pf.jac(u)), (3,)),
    "second_gradient": (go.fd_second_gradient, lambda u: u, (3, 3, 3)),
}


@pytest.mark.parametrize("name", sorted(FD))
def test_fd_shapes_dtype_and_reference(name):
    fd, field_of, shape = FD[name]
    F = field_of(pf.random_vec_field(np.random.default_rng(5), 5))
    pts = go.BASE_LATTICE
    one = fd(F, pts, 1 / 8)
    assert one.shape == (len(pts),) + shape and one.dtype == np.float64
    every = fd(F, pts, list(go.DEFAULT_H))
    assert every.shape == (3, len(pts)) + shape and every.dtype == np.float64
    assert np.array_equal(every[0], one)
    # float64 loops differ by their own roundoff, about eps*|u|/h^k
    tol = 1e-11 if name == "second_gradient" else 1e-12
    assert np.max(np.abs(one - _reference(name, F, pts, 1 / 8))) < tol


@pytest.mark.parametrize("shape", [(3,), (3, 3), (3, 3, 3)])
def test_eval_fields_matches_poly3_eval(shape):
    rng = np.random.default_rng(6)
    F = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        F[idx] = pf.random_poly(rng, 1 + sum(idx) % 6)
    pts = rng.uniform(0, 1, (40, 3))
    scale = max(p.max_abs_coeff() for p in F.flat)
    got = pf.eval_fields(F, pts)
    assert got.shape == (40,) + shape and got.dtype == np.float64
    for idx in np.ndindex(shape):
        assert np.max(np.abs(got[(slice(None),) + idx] - F[idx].eval(pts))) <= 1e-14 * scale
    assert pf.eval_fields(F, pts[7]).shape == shape
    assert np.array_equal(pf.eval_fields(F, pts[7]), got[7])
    assert pf.eval_fields(F, pts.astype(np.longdouble)).dtype == np.longdouble


def test_eval_fields_of_one_scalar_and_wrappers():
    rng = np.random.default_rng(7)
    p, u = pf.random_poly(rng, 4), pf.random_vec_field(rng, 3)
    pts = rng.uniform(0, 1, (5, 2, 3))
    assert pf.eval_fields(p, pts).shape == (5, 2)
    assert np.array_equal(pf.eval_vec(u, pts), pf.eval_fields(u, pts))
    assert np.array_equal(pf.eval_mat(pf.jac(u), pts), pf.eval_fields(pf.jac(u), pts))


def _formula_eval(p, pts):
    """Poly3.eval before the power tables: powers formed per monomial."""
    pts = np.asarray(pts, dtype=float)
    q = pts.reshape(-1, 3)
    out = np.zeros(q.shape[0])
    for (i, j, k), val in p.coef.items():
        out += val * q[:, 0] ** i * q[:, 1] ** j * q[:, 2] ** k
    return float(out[0]) if pts.ndim == 1 else out.reshape(pts.shape[:-1])


@pytest.mark.parametrize("degree", range(1, 9))
def test_poly3_eval_is_bit_identical_to_the_monomial_formula(degree):
    rng = np.random.default_rng(degree)
    p = pf.random_poly(rng, degree)
    pts = rng.uniform(-1.5, 1.5, (64, 3))
    assert np.array_equal(p.eval(pts), _formula_eval(p, pts))
    assert np.array_equal(p.eval(pts.reshape(8, 8, 3)), _formula_eval(p, pts.reshape(8, 8, 3)))
    one = p.eval(pts[0])
    assert isinstance(one, float) and one == _formula_eval(p, pts[0])
    assert Poly3().eval(pts).shape == (64,) and Poly3().eval(pts[0]) == 0.0
