"""Batched dense operator evaluation against the per-field scalar path.

`polyfield.DenseBatch` runs the field operators on a whole stack of fields
at once; these tests restate each result field by field with Poly3 (or
TrigPoly) arithmetic. Tolerances: 1e-14 * max for operator cubes and
1e-13 * max|K| (max|G|) for assembled matrices.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress import tensors as tn
from couplestress.energies import Material, rotation_gradient, strain_curl
from couplestress.trig import COS, SIN, TrigPoly

MAT = Material(1.0, 1.0, 1.0, 0.0, 1.0)


def apply_1d(R, cube, ax):
    """R[out, in] applied along one axis of a dense cube."""
    return np.moveaxis(np.tensordot(R, cube, (1, ax)), 0, ax)


def test_poly3_dense_diff_matches_diff():
    rng = np.random.default_rng(0)
    p = pf.random_poly(rng, 5)
    D = pf.dense_degree([p]) + 1
    R = pf.Poly3.dense_diff(D)
    for ax in range(3):
        got = apply_1d(R, pf.to_dense(p, D), ax)
        want = pf.to_dense(p.diff(ax), D)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_trig_dense_diff_matches_diff():
    p = TrigPoly({
        ((SIN, 1), (COS, 2), (COS, 0)): 0.7,
        ((COS, 3), (SIN, 2), (SIN, 1)): -1.3,
        ((SIN, 3), (SIN, 3), (COS, 1)): 0.4,
    })
    D = TrigPoly.dense_size(pf.dense_degree([p]) + 1)
    assert D == 7  # sin 3 sits at 5 and its derivative cos 3 at 6
    R = TrigPoly.dense_diff(D)
    for ax in range(3):
        got = apply_1d(R, pf.to_dense(p, D), ax)
        want = pf.to_dense(p.diff(ax), D)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(ValueError):
        TrigPoly.dense_diff(6)


def random_fields(n=5, degree=4):
    rng = np.random.default_rng(1)
    return [pf.random_vec_field(rng, degree) for _ in range(n)]


@pytest.mark.parametrize("op", [pf.jac, strain_curl, rotation_gradient],
                         ids=["jac", "strain_curl", "rotation_gradient"])
@pytest.mark.parametrize("family", ["poly", "sine"])
def test_batched_operator_matches_per_field(op, family):
    fields = random_fields() if family == "poly" else sv.sine_basis(2).fields
    batched = op(pf.batch_fields(fields))
    for a, u in enumerate(fields):
        ref = op(u)
        for idx in np.ndindex(ref.shape):
            D = batched[idx].coef.shape[-1]
            want = pf.to_dense(ref[idx], D)
            got = batched[idx].coef[a]
            assert np.max(np.abs(got - want)) <= 1e-14 * max(np.max(np.abs(want)), 1.0)


def per_field_assembly(basis, formulation):
    """K and G from per-field scalar operators, paired by `box_gram`."""
    rows = {key: [] for key in ("sym", "tr", "devk", "skwk", "J", "k")}
    for u in basis.fields:
        J = pf.jac(u)
        k_curl = strain_curl(u)
        k = k_curl if formulation == "curl" else rotation_gradient(u)
        for key, M in (("sym", tn.sym(J)), ("tr", tn.trace(J)), ("devk", tn.devsym(k)),
                       ("skwk", tn.skw(k)), ("J", J), ("k", k_curl)):
            rows[key].append(list(np.ravel(M)))
    g = {key: pf.box_gram(r) for key, r in rows.items()}
    s = MAT.curvature_scale
    K = (2.0 * MAT.mu * g["sym"] + MAT.lam * g["tr"]
         + s * (2.0 * MAT.alpha1 * g["devk"] + 2.0 * MAT.alpha2 * g["skwk"]))
    return 0.5 * (K + K.T), 0.5 * (g["J"] + g["k"] + (g["J"] + g["k"]).T)


@pytest.mark.parametrize("formulation", ["curl", "axl"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_bubble_assembly_matches_per_field_restatement(order, formulation):
    basis = sv.bubble_basis(order)
    asm = sv.assemble(basis, MAT, formulation)
    K, G = per_field_assembly(basis, formulation)
    assert np.max(np.abs(asm.K - K)) <= 1e-13 * np.max(np.abs(K))
    assert np.max(np.abs(asm.G - G)) <= 1e-13 * np.max(np.abs(G))


@pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
def test_blocked_dense_gram_matches_einsum(n):
    rng = np.random.default_rng(n)
    m, D = 3, 4
    X = rng.uniform(-1.0, 1.0, (n, m, D, D, D))
    Y = rng.uniform(-1.0, 1.0, (7, m, D, D, D))
    M = pf.Poly3.dense_moments(D)
    for other in (None, Y):
        ref_Y = X if other is None else other
        want = np.einsum("amxyz,xu,yv,zw,bmuvw->ab", X, M, M, M, ref_Y)
        got = pf.dense_gram(X, M, other)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_batch_products_only_by_constants():
    U = pf.batch_fields(random_fields(3))
    with pytest.raises(TypeError):
        U[0] * U[1]
    one = U[0] ** 0
    assert np.array_equal((U[1] * (one * 2.0)).coef, (U[1] * 2.0).coef)
    assert np.array_equal((one * U[1]).coef, U[1].coef)
    # numpy holds a batch as one entry, so axl keeps three
    assert tn.axl(pf.jac(U)).shape == (3,)


def test_batch_restrict_matches_poly_restrict():
    fields = random_fields(4, 3)
    U = pf.batch_fields(fields)
    for ax in range(3):
        for value in (0.0, 1.0):
            trace = U[1].restrict(ax, value)
            D = trace.coef.shape[-1]
            for a, u in enumerate(fields):
                want = pf.to_dense(u[1].restrict(ax, value), D)
                assert np.max(np.abs(trace.coef[a] - want)) <= 1e-14 * np.max(np.abs(want))
