"""A Galerkin solve does only the work it reads.

Three layers, each against the form it replaces, restated below:

(a) `DenseBatch.diff` is an index gather with weights, derived from the
    family's derivative matrix. On finite batches of every family it equals
    the contraction with that matrix bit for bit; a NaN stays in its own
    derivative slot (the contraction spread it along the axis); a third
    derivative on a symbol axis is refused.
(b) A `StressState` forms each field on first read from one Jacobian. Every
    field equals the eager formula bit for bit, and the manufactured load
    forms one Jacobian, no axl-route field, and one double force per axis.
(c) `solver.assemble` forms K and G as two material-weighted Grams. They
    match the per-term Grams summed afterwards to 1e-15 max|K|, and
    (d) near the float limit the weighted K overflows exactly when the
    per-term K does.
"""
import itertools

import numpy as np
import pytest

from couplestress import energies as en
from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress import stresses as st
from couplestress import tensors as tn
from couplestress.energies import Material, rotation_gradient, strain_curl
from couplestress.tractions import Face, curl_double_force
from couplestress.trig import TrigPoly

MATERIALS = [
    Material(1.0, 1.0, 1.0, 0.0, 1.0),
    Material(1.0, 0.7, 1.3, 0.4, 0.9),
    Material(2.0, -0.5, 0.6, 1.7, 1.4),  # lam < 0 with 3 lam + 2 mu > 0
]
BASES = [("bubble", o) for o in (1, 2, 3, 4)] + [("sine", o) for o in (1, 2, 3)]


# --- (a) the derivative as a gather ------------------------------------------


def contraction_diff(batch, axis):
    """The derivative as one contraction with R[out, in], as it was formed before."""
    D = batch.coef.shape[-1]
    T = np.tensordot(batch.family.dense_diff(D), batch.coef, (1, axis + 1))
    if np.any(T[D:]):
        raise ValueError("past the layout")
    return np.moveaxis(T[:D], 0, axis + 1)


def random_batch(family, seed):
    """A batch of 4 fields with no zero coefficient, on a layout closed under d/dx."""
    rng = np.random.default_rng(seed)
    D = {pf.Poly3: 6, TrigPoly: 7, pf.DerivativeSymbol: pf.SYMBOL_SIZE}[family]
    return pf.DenseBatch(rng.uniform(0.5, 2.0, (4, D, D, D)) * rng.choice([-1.0, 1.0], (4, D, D, D)),
                         family)


FAMILIES = [pf.Poly3, TrigPoly, pf.DerivativeSymbol]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_the_gather_equals_the_contraction_bit_for_bit(family, axis, seed):
    batch = random_batch(family, 10 * seed + axis)
    if family is pf.DerivativeSymbol:  # nothing in the top slot, so no third derivative
        at = [slice(None)] * 4
        at[axis + 1] = -1
        batch.coef[tuple(at)] = 0.0
    got = batch.diff(axis).coef
    ref = contraction_diff(batch, axis)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def test_no_tensordot_in_the_batch_derivative(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("tensordot called")

    batches = [random_batch(family, 5) for family in (pf.Poly3, TrigPoly)]
    monkeypatch.setattr(np, "tensordot", refused)
    for batch, axis in itertools.product(batches, range(3)):
        batch.diff(axis)
    U = pf.unit_symbols()
    U[0].diff(0).diff(1).diff(2)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_a_symbol_axis_refuses_a_third_derivative(axis):
    second = pf.unit_symbols()[1].diff(axis).diff(axis)
    with pytest.raises(ValueError, match="layout"):
        second.diff(axis)
    batch = random_batch(pf.DerivativeSymbol, 3)
    with pytest.raises(ValueError, match="layout"):
        batch.diff(axis)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_a_nan_stays_in_its_own_derivative_slot(axis):
    rng = np.random.default_rng(axis)
    D = 5
    cube = rng.uniform(-1.0, 1.0, (D, D, D))
    slot = [2, 3, 1]
    cube[tuple(slot)] = np.nan
    batch = pf.DenseBatch(cube[None].copy(), pf.Poly3)
    got = batch.diff(axis).coef[0]
    expect = pf.to_dense(pf.Poly3.from_cube(cube, 12).diff(axis), D)
    assert np.array_equal(got, expect, equal_nan=True)
    out = list(slot)
    out[axis] -= 1
    assert np.argwhere(np.isnan(got)).tolist() == [out]
    assert np.isnan(contraction_diff(batch, axis)).sum() > 1  # the contraction spread it


def test_a_nan_off_the_top_slot_does_not_raise_on_a_symbol_axis():
    batch = pf.DenseBatch(np.zeros((1,) + (pf.SYMBOL_SIZE,) * 3), pf.DerivativeSymbol)
    batch.coef[0, 0, 1, 1] = np.nan
    got = batch.diff(0).coef[0]
    assert np.argwhere(np.isnan(got)).tolist() == [[1, 1, 1]]


# --- (b) stress fields formed on first read ----------------------------------


def eager_state(u, mat):
    """Every stress field by the formulas of the eager state."""
    k_axl = rotation_gradient(u)
    k_curl = strain_curl(u)
    m_axl = st.couple_stress(k_axl, mat)
    m_curl = st.couple_stress(k_curl, mat)
    tau_axl = tn.anti(pf.mat_div(m_axl)) * 0.5
    tau_curl = tn.sym(pf.mat_curl(m_curl))
    sigma = st.force_stress(u, mat)
    return {"k_axl": k_axl, "k_curl": k_curl, "sigma": sigma, "m_axl": m_axl,
            "m_curl": m_curl, "tau_axl": tau_axl, "tau_curl": tau_curl,
            "total_axl": sigma - tau_axl, "total_curl": sigma + tau_curl}


def same_bits(p, q):
    assert type(p) is type(q)
    if isinstance(p, pf.DenseBatch):
        return p.family is q.family and p.coef.tobytes() == q.coef.tobytes()
    return list(p.coef.items()) == list(q.coef.items())


def sine_field(rng):
    modes = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]
    return pf.as_vec([sum((TrigPoly.sine_mode(m) * rng.uniform(-1.0, 1.0) for m in modes),
                          TrigPoly.zero()) for _ in range(3)])


def fields():
    rng = np.random.default_rng(7)
    yield "poly3", pf.random_vec_field(rng, 4)
    yield "trig", sine_field(rng)
    yield "batch", pf.batch_fields([pf.random_vec_field(rng, 3) for _ in range(3)])


@pytest.mark.parametrize("name,u", list(fields()), ids=lambda x: x if isinstance(x, str) else "")
@pytest.mark.parametrize("order", [0, 1])
def test_every_lazy_field_equals_the_eager_formula(name, u, order):
    mat = MATERIALS[1]
    ref = eager_state(u, mat)
    state = st.assemble(u, mat)
    keys = list(ref) if order == 0 else list(reversed(ref))  # no read depends on another
    for key in keys:
        got = getattr(state, key)
        assert got.shape == ref[key].shape
        assert all(same_bits(p, q) for p, q in zip(got.flat, ref[key].flat)), key
        assert getattr(state, key) is got  # formed once


def test_the_curl_route_forms_no_axl_field():
    state = st.assemble(pf.random_vec_field(np.random.default_rng(1), 3), MATERIALS[1])
    state.total_curl, state.m_curl
    assert not {"k_axl", "m_axl", "tau_axl", "total_axl"} & set(vars(state))


def test_the_manufactured_load_forms_one_jacobian_and_no_axl_field(monkeypatch):
    basis, mat = sv.bubble_basis(2), MATERIALS[1]
    u_star = sv.displacement(basis, np.random.default_rng(3).uniform(-1.0, 1.0, len(basis)))
    expect = pf.FieldStack.of([u_star]).cubes
    jac, curvature, double_force = pf.jac, st.curvature_from_jacobian, sv.curl_double_force
    jacs, routes, faces = [], [], []

    def counting_jac(u):
        jacs.append(u)
        return jac(u)

    def counting_curvature(J, route):
        routes.append(route)
        return curvature(J, route)

    def counting_double_force(state, face):
        faces.append(face)
        return double_force(state, face)

    def refused(u):
        raise AssertionError("rotation_gradient called")

    monkeypatch.setattr(pf, "jac", counting_jac)
    monkeypatch.setattr(st, "curvature_from_jacobian", counting_curvature)
    monkeypatch.setattr(sv, "curl_double_force", counting_double_force)
    monkeypatch.setattr(en, "rotation_gradient", refused)
    monkeypatch.setattr(sv, "rotation_gradient", refused)
    sv.manufactured_load(basis, u_star, mat)
    (U,) = jacs
    assert np.array_equal(np.stack([p.coef for p in U], axis=1), expect)
    assert routes == ["curl"]
    assert sorted(f.axis for f in faces) == [0, 1, 2]


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_the_two_faces_of_an_axis_share_the_double_force(axis):
    U = pf.batch_fields([pf.random_vec_field(np.random.default_rng(axis), 4)])
    state = st.assemble(U, MATERIALS[1])
    g0 = curl_double_force(state, Face(axis, 0.0))
    g1 = curl_double_force(state, Face(axis, 1.0))
    assert all(np.array_equal(p.coef, q.coef) for p, q in zip(g0, g1))


def test_the_functional_norm_is_unchanged_bit_for_bit():
    rng = np.random.default_rng(4)
    for u in (pf.random_vec_field(rng, 3), sine_field(rng)):
        U = pf.batch_fields([u])
        row = [*np.ravel(pf.jac(U)), *np.ravel(strain_curl(U))]
        assert sv.functional_norm(u) == float(np.sqrt(pf.batch_gram(row)[0, 0]))


# --- (c), (d) two weighted Grams per assembly -----------------------------------


def term_grams(basis, formulation):
    """The six term Grams, each formed on its own from the symbols, as before."""
    U = pf.unit_symbols()
    J = pf.jac(U)
    k = (strain_curl if formulation == "curl" else rotation_gradient)(U)
    terms = (tn.sym(J), tn.trace(J), tn.devsym(k), tn.skw(k), J, strain_curl(U))
    M = pf.factor_moments(basis.factors, basis.family)
    S = pf.SYMBOL_SIZE
    Ws = [np.stack([p.coef for p in np.ravel(t)], axis=1).reshape(3, -1, S**3) for t in terms]
    C = np.stack([np.tensordot(W, W, (1, 1)) for W in Ws])
    C = C.reshape((len(terms), 3) + (S,) * 3 + (3,) + (S,) * 3)
    T = np.tensordot(C, M, ([2, 6], [0, 1]))
    T = np.tensordot(T, M, ([2, 5], [0, 1]))
    T = np.tensordot(T, M, ([2, 4], [0, 1]))
    N = 3 * M.shape[-1] ** 3
    return T.transpose(0, 3, 5, 7, 1, 4, 6, 8, 2).reshape(len(terms), N, N)


@np.errstate(over="ignore", invalid="ignore")
def per_term_assembly(grams, mat):
    sym_J, tr_J, devsym_k, skw_k, gram_J, gram_k = grams
    s = mat.curvature_scale
    K = (2.0 * mat.mu * sym_J + mat.lam * tr_J
         + s * (2.0 * mat.alpha1 * devsym_k + 2.0 * mat.alpha2 * skw_k))
    G = gram_J + gram_k
    return 0.5 * (K + K.T), 0.5 * (G + G.T)


def make_basis(kind, order):
    return (sv.bubble_basis if kind == "bubble" else sv.sine_basis)(order)


@pytest.mark.parametrize("formulation", ["curl", "axl"])
@pytest.mark.parametrize("kind,order", BASES, ids=[f"{k}-o{o}" for k, o in BASES])
def test_weighted_grams_match_the_per_term_sum(kind, order, formulation):
    basis = make_basis(kind, order)
    grams = term_grams(basis, formulation)
    for mat in MATERIALS:
        asm = sv.assemble(basis, mat, formulation)
        K, G = per_term_assembly(grams, mat)
        assert np.max(np.abs(asm.K - K)) <= 1e-15 * np.max(np.abs(K))
        assert np.max(np.abs(asm.G - G)) <= 1e-15 * np.max(np.abs(K))


def test_assemble_forms_two_grams(monkeypatch):
    shapes = []
    symbol_grams = pf.symbol_grams

    def counting(*args):
        out = symbol_grams(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(pf, "symbol_grams", counting)
    sv.assemble(sv.bubble_basis(2), MATERIALS[1], "curl")
    sv.assemble(sv.sine_basis(2), MATERIALS[1], "axl")
    assert shapes == [(2, 24, 24), (2, 24, 24)]


NEAR_LIMIT = list(itertools.product(
    [1.0, 1e307, 8e307, 1e308],          # mu
    [1.0, 1e307, 1e308, 1.7e308],        # lam
    [1.0, 1e307, 1e308],                 # alpha1
    [0.0, 1.0, 1e307, 1e308],            # alpha2
    [1.0, 0.25],                         # ell
))


@pytest.mark.parametrize("order", [1, 2])
def test_overflow_exactly_where_the_per_term_stiffness_overflows(order):
    basis = sv.bubble_basis(order)
    grams = term_grams(basis, "curl")
    raised = []
    for mu, lam, a1, a2, ell in NEAR_LIMIT:
        mat = Material(mu, lam, a1, a2, ell)
        K, _ = per_term_assembly(grams, mat)
        try:
            sv.assemble(basis, mat)
            raised.append(False)
        except OverflowError as err:
            assert "stiffness" in str(err)
            raised.append(True)
        assert raised[-1] == (not np.isfinite(K).all()), mat
    assert 0 < sum(raised) < len(raised)
