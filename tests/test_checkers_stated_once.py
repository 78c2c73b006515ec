"""The checkers state each formula once, with the results of the loops they replace.

`gridoracle.fd_div` and `fd_curl` take a vector or a matrix field (the
matrix operators are the same functions under a second name), the two lift
energies go through one pairing over the nonzeros of a matrix, and the two
report classes give their dicts by `dataclasses.asdict`. The functions
below restate the earlier code, one formula per field kind; every result
must equal them bit for bit (`tobytes` of every value, and for the
pairings also the key order and the cap).
"""
import dataclasses

import numpy as np
import pytest

from couplestress import gridoracle as go
from couplestress import identities as idn
from couplestress import lift as lf
from couplestress import polyfield as pf
from couplestress import tensors as tn
from couplestress.trig import SIN, TrigPoly

# --- the earlier code ------------------------------------------------------------


def loop_fd_div(u, pts, h):
    return np.trace(go.fd_jac(u, pts, h), axis1=-2, axis2=-1)


def loop_fd_curl(u, pts, h):
    J = go.fd_jac(u, pts, h)
    return np.stack(
        [
            J[..., 2, 1] - J[..., 1, 2],
            J[..., 0, 2] - J[..., 2, 0],
            J[..., 1, 0] - J[..., 0, 1],
        ],
        axis=-1,
    )


def loop_fd_mat_curl(P, pts, h):
    G = go.fd_mat_grad(P, pts, h)
    return np.einsum("jlk,...ikl->...ij", tn.EPS, G)


def loop_fd_mat_div(P, pts, h):
    return np.trace(go.fd_mat_grad(P, pts, h), axis1=-2, axis2=-1)


def loop_weighted_pairing(ps, qs, weights):
    acc = pf.Poly3.zero()
    return acc + pf.Poly3.dot(ps, qs, weights) if len(ps) else acc


def loop_row_pairing(k, blocks):
    ps, qs, weights = [], [], []
    for i in range(3):
        Li = blocks[i]
        for j in range(3):
            for l in range(3):
                if Li[j, l]:
                    ps.append(k[i, j])
                    qs.append(k[i, l])
                    weights.append(float(Li[j, l]))
    return loop_weighted_pairing(ps, qs, weights)


def loop_second_gradient_pairing(u, C):
    T = lf.second_gradient_flat(u)
    rows, cols = np.nonzero(C)
    return loop_weighted_pairing(T[rows], T[cols], C[rows, cols].tolist())


def order_report_dict(r):
    return {
        "operator": r.operator,
        "hs": list(r.hs),
        "errors": list(r.errors),
        "observed_order": r.observed_order,
        "exact_match": r.exact_match,
        "passed": r.passed,
        "stencil_eps": r.stencil_eps,
    }


def identity_report_dict(r):
    return {
        "name": r.name,
        "kind": r.kind,
        "magnitude": r.magnitude,
        "threshold": r.threshold,
        "passed": r.passed,
    }


# --- inputs ------------------------------------------------------------------------


def random_trig(rng, terms=4, fmax=2):
    coef = {}
    for _ in range(terms):
        key = []
        for _ in range(3):
            kind = int(rng.integers(2))
            key.append((kind, int(rng.integers(1 if kind == SIN else 0, fmax + 1))))
        coef[tuple(key)] = rng.uniform(-1.0, 1.0)
    return TrigPoly(coef)


def poly_fields(seed, degree):
    rng = np.random.default_rng(seed)
    u = pf.random_vec_field(rng, degree)
    return u, tn.sym(pf.jac(u)), pf.random_mat_field(rng, degree)


def trig_fields(seed):
    rng = np.random.default_rng(seed)
    u = pf.as_vec([random_trig(rng) for _ in range(3)])
    return u, pf.as_mat([[random_trig(rng) for _ in range(3)] for _ in range(3)])


FIELD_CASES = [("poly", seed, degree) for seed in range(4) for degree in (1, 2, 3, 5)]
FIELD_CASES += [("trig", seed, None) for seed in range(4)]
SPACINGS = [pytest.param(1 / 16, id="h-scalar"), pytest.param(list(go.DEFAULT_H), id="h-list")]
DTYPES = [pytest.param(np.float64, id="float64"), pytest.param(np.longdouble, id="longdouble")]


def fields_of(case):
    family, seed, degree = case
    if family == "poly":
        u, strain, P = poly_fields(seed, degree)
        return u, [strain, P]
    u, P = trig_fields(seed)
    return u, [P, tn.sym(P)]


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


# --- the grid oracle -----------------------------------------------------------------


def test_the_matrix_operators_are_the_vector_operators():
    assert go.fd_mat_div is go.fd_div
    assert go.fd_mat_curl is go.fd_curl
    assert go.fd_jac is go.fd_grad and go.fd_mat_grad is go.fd_grad


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("h", SPACINGS)
@pytest.mark.parametrize("case", FIELD_CASES, ids=str)
def test_div_and_curl_match_the_earlier_formulas(monkeypatch, case, h, dtype):
    monkeypatch.setattr(go, "STENCIL_DTYPE", dtype)
    pts = go.BASE_LATTICE
    u, matrices = fields_of(case)
    assert_bitwise(go.fd_div(u, pts, h), loop_fd_div(u, pts, h))
    assert_bitwise(go.fd_curl(u, pts, h), loop_fd_curl(u, pts, h))
    for P in matrices:
        for div in (go.fd_div, go.fd_mat_div):
            assert_bitwise(div(P, pts, h), loop_fd_mat_div(P, pts, h))
        for curl in (go.fd_curl, go.fd_mat_curl):
            assert_bitwise(curl(P, pts, h), loop_fd_mat_curl(P, pts, h))


def test_the_matrix_curl_is_the_curl_of_each_row():
    _, strain, P = poly_fields(7, 4)
    pts = go.BASE_LATTICE
    for F in (strain, P):
        whole = go.fd_curl(F, pts, 1 / 16)
        for i in range(3):
            assert_bitwise(whole[:, i], go.fd_curl(F[i], pts, 1 / 16))


def test_curl_is_one_contraction_of_one_gradient(monkeypatch):
    calls = []
    grad = go.fd_grad

    def counting(F, pts, h):
        calls.append(np.shape(F))
        return grad(F, pts, h)

    monkeypatch.setattr(go, "fd_grad", counting)
    u, strain, _ = poly_fields(3, 3)
    for F in (u, strain):
        calls.clear()
        go.fd_curl(F, go.BASE_LATTICE, 1 / 8)
        go.fd_div(F, go.BASE_LATTICE, 1 / 8)
        assert calls == [np.shape(F)] * 2


@pytest.mark.parametrize("name", go.operator_names())
def test_order_report_dict_is_the_dataclass(name):
    u = pf.random_vec_field(np.random.default_rng(5), 3)
    rep = go.check_operator(name, u)
    d = rep.as_dict()
    assert d == order_report_dict(rep) == dataclasses.asdict(rep)
    assert d["hs"] is not rep.hs and d["errors"] is not rep.errors


# --- the lift ---------------------------------------------------------------------------


def assert_same_poly(a, b):
    assert type(a) is type(b) is pf.Poly3
    assert list(a.coef) == list(b.coef)
    assert np.array(list(a.coef.values())).tobytes() == np.array(list(b.coef.values())).tobytes()
    assert a.cap == b.cap


def random_sparse_blocks(rng, density=0.4):
    return [np.where(rng.uniform(size=(3, 3)) < density, rng.normal(size=(3, 3)), 0.0)
            for _ in range(3)]


MATERIALS = [(1.0, 0.0), (1.3, 0.4), (0.7, 2.1)]


@pytest.mark.parametrize("alphas", MATERIALS, ids=str)
@pytest.mark.parametrize("seed", range(10))
def test_both_lift_pairings_match_their_loops(seed, alphas):
    rng = np.random.default_rng(100 + seed)
    u = pf.random_vec_field(rng, 2 + seed % 4)
    blocks = lf.isotropic_blocks(*alphas)
    C = lf.sixth_order_from_blocks(blocks)
    k = lf.strain_curl(u)
    assert_same_poly(lf.row_pairing(k, blocks), loop_row_pairing(k, blocks))
    assert_same_poly(lf.second_gradient_pairing(u, C), loop_second_gradient_pairing(u, C))


@pytest.mark.parametrize("seed", range(10))
def test_sparse_and_empty_matrices_pair_as_the_loops(seed):
    rng = np.random.default_rng(200 + seed)
    u = pf.random_vec_field(rng, 3)
    k = lf.strain_curl(u)
    blocks = random_sparse_blocks(rng)
    C = np.where(rng.uniform(size=(27, 27)) < 0.05, rng.normal(size=(27, 27)), 0.0)
    assert_same_poly(lf.row_pairing(k, blocks), loop_row_pairing(k, blocks))
    assert_same_poly(lf.second_gradient_pairing(u, C), loop_second_gradient_pairing(u, C))
    zero_blocks = [np.zeros((3, 3))] * 3
    assert_same_poly(lf.row_pairing(k, zero_blocks), loop_row_pairing(k, zero_blocks))
    assert_same_poly(lf.second_gradient_pairing(u, np.zeros((27, 27))),
                     loop_second_gradient_pairing(u, np.zeros((27, 27))))


def test_one_private_pairing_serves_both_energies(monkeypatch):
    calls = []
    pairing = lf._pairing

    def counting(M, f):
        calls.append(M.shape)
        return pairing(M, f)

    monkeypatch.setattr(lf, "_pairing", counting)
    u = pf.random_vec_field(np.random.default_rng(9), 3)
    lf.verify_energy_equality(u, 1.0, 0.5)
    assert sorted(calls) == [(9, 9), (27, 27)]


# --- the identity suite -------------------------------------------------------------------


def test_identity_report_dict_is_the_dataclass():
    reports = idn.run_suite(seed=2, trials=3, degree=3)
    for rep in reports:
        assert rep.as_dict() == identity_report_dict(rep) == dataclasses.asdict(rep)
        assert list(rep.as_dict()) == list(identity_report_dict(rep))
