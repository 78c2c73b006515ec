"""The law read from `energies` against the formulas it replaced, bit for bit.

Each formula below is the writing that `stresses`, `solver`, `micromorphic`
and `lift` carried before they read `energies.ELASTIC_PARTS`,
`CURVATURE_PARTS` and the conjugate rule. Every comparison is exact: the
coefficients (and their key order) or the float arrays must agree byte for
byte, so a reordered sum or a flipped zero sign fails.
"""
from functools import cache

import numpy as np
import pytest

from couplestress import energies as en
from couplestress import lift as lf
from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress import stresses as st
from couplestress import tensors as tn
from couplestress.energies import Material

MATERIALS = [
    Material(),
    Material(mu=2.0, lam=-0.5, alpha1=1.5, alpha2=0.3, ell=0.7),
    Material(mu=0.8, lam=3.0, alpha1=0.6, alpha2=0.0, ell=1.3),
    Material(mu=1.1, lam=5e-324, alpha1=0.9, alpha2=0.2),  # 2 (lam / 2) is 0, not lam
]
PARAMS = mm.MicromorphicParams(mu=1.3, lam=0.4, ell=0.8, penalty=7.0, alpha1=0.7,
                               alpha2=1.1, alpha3=0.5)
ALPHAS = [(1.0, 0.0), (1.3, 0.4), (0.7, 2.1), (1e-300, 3e200)]


def bits(x):
    """A comparable image of a field, an array of fields, or a float array."""
    if isinstance(x, np.ndarray) and x.dtype == object:
        return [bits(p) for p in x.flat]
    if isinstance(x, np.ndarray):
        return x.shape, x.tobytes()
    if isinstance(x, pf.DenseBatch):
        return x.coef.shape, x.coef.tobytes()
    return tuple(x.coef), np.array(list(x.coef.values()), dtype=float).tobytes()


# --- the stresses --------------------------------------------------------------


def old_couple_stress(k, mat):
    s = mat.curvature_scale
    return tn.devsym(k) * (2.0 * mat.alpha1 * s) + tn.skw(k) * (2.0 * mat.alpha2 * s)


def old_force_stress(J, mat):
    iso = tn.identity_like(J) * (tn.trace(J) * mat.lam)
    return tn.sym(J) * (2.0 * mat.mu) + iso


def fields():
    """A random field, the same with an infinite coefficient, and both as one-field batches.

    The infinite one tells a sum that starts from its first term from one
    that starts from zero times the input, whose NaN reaches more slots.
    """
    u = pf.random_vec_field(np.random.default_rng(5), 3)
    v = u.copy()
    v[1] = v[1] + pf.Poly3({(1, 2, 0): np.inf})
    return {"poly3": u, "batch": pf.batch_fields([u]), "poly3-inf": v,
            "batch-inf": pf.batch_fields([v])}


@pytest.mark.parametrize("kind", ["poly3", "batch", "poly3-inf", "batch-inf"])
@pytest.mark.parametrize("mat", MATERIALS)
@np.errstate(all="ignore")
def test_stresses_match_the_old_constitutive_maps(kind, mat):
    state = st.assemble(fields()[kind], mat)
    assert bits(state.sigma) == bits(old_force_stress(state.jacobian, mat))
    assert bits(st.force_stress(fields()[kind], mat)) == bits(state.sigma)
    for k, m in ((state.k_curl, state.m_curl), (state.k_axl, state.m_axl)):
        assert bits(m) == bits(old_couple_stress(k, mat))


@pytest.mark.parametrize("mat", MATERIALS)
def test_densities_match_the_old_writings(mat):
    u = fields()["poly3"]
    J, k = pf.jac(u), en.strain_curl(u)
    t = tn.trace(J)
    elastic = tn.norm_sq(tn.sym(J)) * mat.mu + t * t * (mat.lam / 2.0)
    curvature = (tn.norm_sq(tn.devsym(k)) * mat.alpha1
                 + tn.norm_sq(tn.skw(k)) * mat.alpha2) * mat.curvature_scale
    assert bits(en.linear_elastic_density(u, mat)) == bits(elastic)
    assert bits(en.curvature_quadratic(k, mat)) == bits(curvature)


# --- the Galerkin stiffness and load ---------------------------------------------


@cache
def basis_of(name):
    kind, order = name.split("-")
    return (sv.bubble_basis if kind == "bubble" else sv.sine_basis)(int(order))


def old_assemble(basis, mat, formulation):
    """K and G from the old term tuple and weight rows."""
    curvature = en.strain_curl if formulation == "curl" else en.rotation_gradient
    U = pf.unit_symbols()
    J, k = pf.jac(U), curvature(U)
    terms = (tn.sym(J), tn.trace(J), tn.devsym(k), tn.skw(k), J, en.strain_curl(U))
    s = mat.curvature_scale
    weights = [
        [2.0 * mat.mu, mat.lam, s * (2.0 * mat.alpha1), s * (2.0 * mat.alpha2), 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        K, G = pf.symbol_grams(terms, weights, pf.factor_moments(basis.factors, basis.family))
    return 0.5 * (K + K.T), 0.5 * (G + G.T)


@pytest.mark.parametrize("name", ["bubble-1", "bubble-2", "bubble-3", "bubble-4",
                                  "sine-2", "sine-3"])
@pytest.mark.parametrize("formulation", ["curl", "axl"])
def test_stiffness_and_norm_gram_match_the_old_weight_row(name, formulation):
    basis = basis_of(name)
    for mat in MATERIALS:
        asm = sv.assemble(basis, mat, formulation)
        K, G = old_assemble(basis, mat, formulation)
        assert bits(asm.K) == bits(K)
        assert bits(asm.G) == bits(G)


def test_functional_norm_reads_the_same_terms():
    u = fields()["poly3"]
    J = pf.jac(pf.batch_fields([u]))
    row = [*np.ravel(J), *np.ravel(en.curvature_from_jacobian(J, "curl"))]
    assert sv.functional_norm(u) == float(np.sqrt(pf.batch_gram(row)[0, 0]))


@pytest.mark.parametrize("mat", MATERIALS)
def test_manufactured_load_matches_the_old_stresses(mat, monkeypatch):
    basis = basis_of("bubble-2")
    u_star = sv.displacement(basis, np.random.default_rng(3).uniform(-1.0, 1.0, len(basis)))
    f, b = sv.manufactured_load(basis, u_star, mat)
    monkeypatch.setattr(st, "couple_stress", old_couple_stress)
    monkeypatch.setattr(st, "_force_stress", old_force_stress)
    f_old, b_old = sv.manufactured_load(basis, u_star, mat)
    assert bits(b) == bits(b_old)
    assert bits(f) == bits(f_old)


# --- the relaxations ---------------------------------------------------------------

OLD_DEV_SKW = (("alpha1", tn.devsym), ("alpha2", tn.skw))
OLD_CURVATURE = {
    "cosserat": (lambda P: pf.jac(tn.axl(P)),
                 (("alpha1", tn.devsym), ("alpha2", tn.trace), ("alpha2", tn.skw))),
    "degenerate-cosserat": (lambda P: pf.jac(tn.axl(P)), (("alpha2", tn.skw),)),
    "microstrain": (pf.mat_curl, OLD_DEV_SKW),
    "micromorphic": (lambda P: pf.mat_curl(tn.sym(P)), OLD_DEV_SKW),
    "relaxed": (pf.mat_curl, OLD_DEV_SKW + (("alpha3", tn.trace),)),
    "further-relaxed": (pf.mat_curl, OLD_DEV_SKW),
    "sym-curl-p": (pf.mat_curl, (("alpha1", tn.sym),)),
}


def old_hyperstress(P, model, params):
    measure, parts = OLD_CURVATURE[model]
    k = measure(P)
    out = k * 0.0
    for key, part in parts:
        w = 2.0 * params.curvature_scale * getattr(params, key)
        val = part(k)
        if not isinstance(val, np.ndarray):
            val = tn.identity_like(k) * val
        out = out + val * w
    return out


def old_class(model):
    if model in ("cosserat", "degenerate-cosserat"):
        return "skew"
    return "sym" if model == "microstrain" else "full"


def old_constrained_companion(model, u):
    J = pf.jac(u)
    return {"skew": tn.skw, "sym": tn.sym, "full": lambda A: A}[old_class(model)](J)


def old_term_list(model, params):
    if model in ("relaxed", "further-relaxed", "sym-curl-p"):
        def coupling(u, P):
            return tn.sym(pf.jac(u) - P)
    else:
        def coupling(u, P):
            return old_constrained_companion(model, u) - P
    terms = [
        (params.mu, lambda u, P: tn.sym(pf.jac(u))),
        (params.lam / 2.0, lambda u, P: tn.trace(pf.jac(u))),
        (params.penalty, coupling),
    ]
    measure, parts = OLD_CURVATURE[model]
    s = params.curvature_scale
    for key, part in parts:
        terms.append((s * getattr(params, key), lambda u, P, part=part: part(measure(P))))
    return terms


def companion_field(model, rng):
    u = pf.random_vec_field(rng, 3)
    make = {"skew": pf.random_skw_mat_field, "sym": pf.random_sym_mat_field,
            "full": pf.random_mat_field}[old_class(model)]
    return u, make(rng, 3)


def test_model_table_answers_as_the_old_readers():
    assert mm.MODEL_IDS == ("cosserat", "microstrain", "micromorphic", "relaxed",
                            "further-relaxed", "sym-curl-p", "degenerate-cosserat")
    shift = {"cosserat": "same", "micromorphic": "same", "degenerate-cosserat": "same",
             "microstrain": "none"}
    for model in mm.MODEL_IDS:
        assert mm.companion_class(model) == old_class(model)
        assert mm.invariance_shift_kind(model) == shift.get(model, "independent")


@pytest.mark.parametrize("model", sorted(OLD_CURVATURE))
def test_hyperstress_energy_and_stress_match_the_old_writings(model):
    u, P = companion_field(model, np.random.default_rng(8))
    assert bits(mm.hyperstress(u, P, model, PARAMS)) == bits(old_hyperstress(P, model, PARAMS))
    assert bits(mm.constrained_companion(model, u)) == bits(old_constrained_companion(model, u))
    new, old = mm._term_list(model, PARAMS), old_term_list(model, PARAMS)
    assert [w for w, _ in new] == [w for w, _ in old]
    for (_, op), (_, op_old) in zip(new, old):
        assert bits(np.asarray(op(u, P), dtype=object)) == bits(
            np.asarray(op_old(u, P), dtype=object))


@pytest.mark.parametrize("model", sorted(OLD_CURVATURE))
def test_coupled_grams_match_the_old_term_list(model):
    basis = basis_of("bubble-2")
    companion = mm.companion_basis(model, basis)
    U, P = pf.product_batches(basis.fields, pf.FieldStack.of(companion))
    want = [pf.batch_gram(op(U, P)) for _, op in old_term_list(model, mm.MicromorphicParams())]
    got = mm.coupled_operator_grams(model, basis, companion)
    assert [bits(G) for G in got] == [bits(G) for G in want]


# --- the lift ---------------------------------------------------------------------


def old_isotropic_fourth_order(alpha1, alpha2):
    L4 = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    symp = 0.5 * ((i == k) * (j == l) + (i == l) * (j == k)) - (
                        (i == j) * (k == l)
                    ) / 3.0
                    skwp = 0.5 * ((i == k) * (j == l) - (i == l) * (j == k))
                    L4[i, j, k, l] = 2.0 * alpha1 * symp + 2.0 * alpha2 * skwp
    return L4


def old_spin_matrices():
    """The hand-entered axl (3x9), anti (9x3) and skw (9x9) matrices."""
    Sa = np.zeros((3, 9))
    Sa[0, 3 * 2 + 1] = Sa[1, 3 * 0 + 2] = Sa[2, 3 * 1 + 0] = 1.0
    Sn = np.zeros((9, 3))
    Sn[3 * 0 + 1, 2] = Sn[3 * 1 + 2, 0] = Sn[3 * 2 + 0, 1] = -1.0
    Sn[3 * 0 + 2, 1] = Sn[3 * 1 + 0, 2] = Sn[3 * 2 + 1, 0] = 1.0
    Sk = np.zeros((9, 9))
    for k in range(3):
        for l in range(3):
            Sk[3 * k + l, 3 * k + l] += 0.5
            Sk[3 * k + l, 3 * l + k] -= 0.5
    return Sa, Sn, Sk


def old_index_maps(s2):
    """The looped reconstruction (signs +, s2, -), half symmetrization and
    last-two symmetrizer."""
    f = lf.flat_index
    A, H, P = np.zeros((27, 27)), np.zeros((27, 27)), np.zeros((27, 27))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                A[f(a, b, c), f(b, a, c)] += 1.0
                A[f(a, b, c), f(c, a, b)] += s2
                A[f(a, b, c), f(b, c, a)] -= 1.0
                H[f(a, b, c), f(a, b, c)] += 0.5
                H[f(a, b, c), f(b, a, c)] += 0.5
                P[f(a, b, c), f(a, b, c)] += 0.5
                P[f(a, b, c), f(a, c, b)] += 0.5
    return A, H, P


def old_block_lift(blocks):
    Sa, Sn, Sk = old_spin_matrices()
    B = np.zeros((27, 27))
    for i in range(3):
        B[9 * i: 9 * i + 9, 9 * i: 9 * i + 9] = 2.0 * Sk @ Sn @ blocks[i] @ Sa @ Sk
    return B


def test_spin_and_index_matrices_match_the_hand_entered_ones():
    Sa, Sn, Sk = old_spin_matrices()
    assert bits(lf._matrix(tn.axl, (3, 3))) == bits(Sa)
    assert bits(lf._matrix(tn.anti, (3,)) + 0.0) == bits(Sn)
    assert bits(lf._matrix(tn.skw, (3, 3))) == bits(Sk)
    for signs, s2 in (("corrected", 1.0), ("printed", -1.0)):
        A, H, P = old_index_maps(s2)
        assert bits(lf.reconstruction_matrix(signs)) == bits(A)
    assert bits(lf.halfsym_matrix()) == bits(H)
    assert bits(lf.last_two_symmetrizer()) == bits(P)


@pytest.mark.parametrize("alphas", ALPHAS)
def test_lift_matches_the_old_index_formula(alphas):
    assert bits(lf.isotropic_fourth_order(*alphas)) == bits(old_isotropic_fourth_order(*alphas))
    blocks = lf.isotropic_blocks(*alphas)
    assert bits(lf.block_lift(blocks)) == bits(old_block_lift(blocks))
    A, H, P = old_index_maps(1.0)
    C = P @ H.T @ old_block_lift(blocks) @ H @ P
    assert bits(lf.sixth_order_isotropic(*alphas)) == bits(C)
    C = lf.sixth_order_isotropic(*alphas)
    assert not np.signbit(C[C == 0.0]).any()  # no -0.0 for export_flat to print


@pytest.mark.parametrize("alphas", ALPHAS[:3])
def test_matrix_pairing_matches_the_old_formula(alphas):
    a1, a2 = alphas
    k = en.strain_curl(fields()["poly3"]) + pf.random_mat_field(np.random.default_rng(2), 1)
    old = tn.norm_sq(tn.devsym(k)) * (2.0 * a1) + tn.norm_sq(tn.skw(k)) * (2.0 * a2)
    assert bits(lf.matrix_pairing(k, a1, a2)) == bits(old)
