"""One pairing path and one dense solve for the Galerkin layer.

Every box pairing of the solver is a contraction of dense per-axis cubes.
The references are pairwise symbolic products: for the sine basis,
TrigPoly products integrated term by term; for polynomials,
`integral_of_product`. Only the summation order differs, so K and G must
agree within 1e-13 * max|K| and load vectors within 1e-11 * max|b|.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress import tensors as tn
from couplestress.energies import Material, rotation_gradient, strain_curl
from couplestress.trig import TrigPoly, trig_integral_of_product

MAT = Material(1.0, 1.0, 1.0, 0.0, 1.0)


def pairwise_assembly(basis, mat, formulation):
    """K and G from symbolic products of every pair of basis fields."""

    def flat(M):
        return [M[i, j] for i in range(3) for j in range(3)]

    def terms(u):
        J = pf.jac(u)
        k = strain_curl(u) if formulation == "curl" else rotation_gradient(u)
        return {
            "sym": flat(tn.sym(J)),
            "tr": [tn.trace(J)],
            "devk": flat(tn.devsym(k)),
            "skwk": flat(tn.skw(k)),
            "J": flat(J),
            "k": flat(strain_curl(u)),
        }

    cached = [terms(u) for u in basis.fields]
    n = len(basis)
    s = mat.curvature_scale
    weights = {
        "sym": 2.0 * mat.mu,
        "tr": mat.lam,
        "devk": s * 2.0 * mat.alpha1,
        "skwk": s * 2.0 * mat.alpha2,
    }
    K = np.zeros((n, n))
    G = np.zeros((n, n))
    for a in range(n):
        for b in range(a, n):
            def inner(key):
                return sum(
                    (p * q).integrate() for p, q in zip(cached[a][key], cached[b][key])
                )

            K[a, b] = K[b, a] = sum(w * inner(key) for key, w in weights.items())
            G[a, b] = G[b, a] = inner("J") + inner("k")
    return K, G


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("formulation", ["curl", "axl"])
def test_sine_assembly_matches_pairwise_products(order, formulation):
    mat = Material(1.0, 1.3, 1.1, 0.7, 0.9)
    basis = sv.sine_basis(order)
    asm = sv.assemble(basis, mat, formulation)
    K_ref, G_ref = pairwise_assembly(basis, mat, formulation)
    scale = np.max(np.abs(K_ref))
    assert np.max(np.abs(asm.K - K_ref)) <= 1e-13 * scale
    assert np.max(np.abs(asm.G - G_ref)) <= 1e-13 * scale


def test_bubble_load_vector_matches_integral_of_product():
    rng = np.random.default_rng(11)
    basis = sv.bubble_basis(2)
    f = pf.random_vec_field(rng, 4)
    b = sv.load_vector(basis, f)
    ref = np.array(
        [sum(pf.integral_of_product(f[i], u[i]) for i in range(3)) for u in basis.fields]
    )
    assert np.max(np.abs(b - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_sine_load_vector_matches_trig_products():
    # cosine factors, a constant and mixed frequencies exercise every
    # slot of the trigonometric dense index
    s111 = TrigPoly.sine_mode((1, 1, 1))
    f = pf.as_vec(
        [
            s111 + TrigPoly.sine_mode((2, 1, 3), 0.5).diff(0),
            TrigPoly.const(0.25) + TrigPoly.sine_mode((1, 2, 1), -1.5),
            s111 * TrigPoly.sine_mode((1, 1, 2)).diff(2) + 0.5,
        ]
    )
    basis = sv.sine_basis(2)
    b = sv.load_vector(basis, f)
    ref = np.array(
        [sum(trig_integral_of_product(f[i], u[i]) for i in range(3)) for u in basis.fields]
    )
    assert np.max(np.abs(b - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_sine_modes_with_zero_or_negative_frequency_pair_correctly():
    # sin(-f) = -sin(f) and sin(0) = 0 must not land in another dense slot
    f = pf.as_vec(
        [
            TrigPoly.sine_mode((-1, 1, 1), 2.0),
            TrigPoly.sine_mode((0, 1, 1)) + TrigPoly.sine_mode((1, 1, 1)),
            TrigPoly.sine_mode((1, -2, 1)),
        ]
    )
    basis = sv.sine_basis(2)
    b = sv.load_vector(basis, f)
    ref = np.array(
        [sum(trig_integral_of_product(f[i], u[i]) for i in range(3)) for u in basis.fields]
    )
    assert abs(b[0] + 0.25) <= 1e-15
    assert np.max(np.abs(b - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_pairing_refuses_mixed_scalar_types():
    with pytest.raises(TypeError):
        pf.dense_layout([pf.Poly3.const(1.0), TrigPoly.const(1.0)])


def test_shared_solve_reports_an_indefinite_stiffness():
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    K = Q @ np.diag([2.0, -1e-3, 1.0]) @ Q.T
    K = 0.5 * (K + K.T)
    asm = sv.Assembly(sv.bubble_basis(1), MAT, "curl", K, np.eye(3))
    b = np.array([1.0, -2.0, 0.5])
    rep = sv.solve(asm, b)
    assert rep.min_eigenvalue < 0.0
    assert abs(rep.min_eigenvalue + 1e-3) < 1e-12
    assert rep.residual < 1e-12
    assert np.allclose(K @ rep.coefficients, b, atol=1e-12)


@pytest.fixture(scope="module")
def order4():
    basis = sv.bubble_basis(4)
    return basis, sv.assemble(basis, MAT, "curl")


@pytest.mark.parametrize("seed", [0, 5])
def test_order_4_manufactured_recovery(order4, seed):
    basis, asm = order4
    c_star = np.random.default_rng(seed).uniform(-1.0, 1.0, len(basis))
    u_star = sv.displacement(basis, c_star)
    _, b = sv.manufactured_load(basis, u_star, MAT)
    rep = sv.solve(asm, b)
    assert rep.min_eigenvalue > 0.0
    assert rep.residual <= 1e-10
    assert sv.recovery_error(basis, rep.coefficients, u_star) <= 1e-8
