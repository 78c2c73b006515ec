"""A Galerkin basis is one coefficient stack, and the manufactured load stays on it.

`solver.Basis.fields` is a `polyfield.FieldStack` of either scalar family,
filled by putting each scalar's cube in its component slot. The references
below are the list-of-fields bases and the Poly3 strong-form load that the
stack replaces: items must equal the reference fields coefficient for
coefficient; the strong form f must equal the reference coefficient for
coefficient, and b must agree within 1e-14 relative (only the summation
order of its pairings differs). On the sine basis, where no Poly3 strong
form exists, the load must reproduce K c* within 1e-13 relative. One solve
stacks only u_star and the recovery error, three scalars each.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress import tensors as tn
from couplestress.energies import Material
from couplestress.stresses import assemble as assemble_stresses
from couplestress.tractions import ALL_FACES, curl_double_force
from couplestress.trig import COS, SIN, TrigPoly

MATERIALS = [Material(1.0, 1.0, 1.0, 0.0, 1.0), Material(1.0, 0.7, 1.3, 0.4, 0.9)]


def reference_bubble_fields(order):
    """The bubble basis as a list of Poly3 vector fields."""
    fields = []
    for scalar in sv.bubble_scalars(order):
        for d in range(3):
            comps = [pf.Poly3.zero(scalar.cap)] * 3
            comps[d] = scalar
            fields.append(pf.as_vec(comps))
    return fields


def reference_sine_fields(order):
    """The sine basis as a list of TrigPoly vector fields."""
    fields = []
    for a in range(1, order + 1):
        for b in range(1, order + 1):
            for c in range(1, order + 1):
                scalar = TrigPoly.sine_mode((a, b, c))
                for d in range(3):
                    comps = [TrigPoly.zero()] * 3
                    comps[d] = scalar
                    fields.append(pf.as_vec(comps))
    return fields


def reference_manufactured_load(basis, u_star, mat, include_boundary=True):
    """The load with its strong form f = -Div(sigma + tau) in Poly3 arithmetic."""
    state = assemble_stresses(u_star, mat)
    r = pf.mat_div(state.total_curl)
    f = pf.as_vec([r[i] * (-1.0) for i in range(3)])
    b = sv.load_vector(basis, f)
    if include_boundary:
        J = pf.jac(basis.fields.batch())
        for face in ALL_FACES:
            g = curl_double_force(state, face)
            dn = [face.restrict(p) for p in tn.matvec(J, face.normal)]
            trace = pf.batch_fields([[face.restrict(p) for p in g]])
            b += pf.batch_gram(dn, trace)[:, 0]
    return f, b


def assert_same_field(F, G, cap=True):
    assert F.shape == G.shape
    for p, q in zip(F.flat, G.flat):
        assert type(p) is type(q)
        assert p.coef == q.coef
        if cap:
            assert p.cap == q.cap


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_bubble_basis_items_equal_the_reference_fields(order):
    basis = sv.bubble_basis(order)
    ref = reference_bubble_fields(order)
    assert isinstance(basis.fields, pf.FieldStack) and basis.fields.family is pf.Poly3
    assert len(basis) == len(ref) == 3 * order**3
    for a, F in enumerate(ref):
        assert_same_field(basis.fields[a], F)
    assert sum(1 for _ in basis.fields) == len(ref)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_sine_basis_items_equal_the_reference_fields(order):
    basis = sv.sine_basis(order)
    ref = reference_sine_fields(order)
    assert basis.fields.family is TrigPoly
    assert basis.fields.cubes.shape[-1] == 2 * order + 1  # closed under d/dx
    assert len(basis) == len(ref)
    for a, F in enumerate(ref):
        assert_same_field(basis.fields[a], F, cap=False)


@pytest.mark.parametrize("include_boundary", [True, False])
@pytest.mark.parametrize("mat", MATERIALS, ids=["default", "coupled"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_manufactured_load_matches_the_strong_form_reference(order, mat, include_boundary):
    basis = sv.bubble_basis(order)
    c_star = np.random.default_rng(order).uniform(-1.0, 1.0, len(basis))
    u_star = sv.displacement(basis, c_star)
    f, b = sv.manufactured_load(basis, u_star, mat, include_boundary)
    f_ref, b_ref = reference_manufactured_load(basis, u_star, mat, include_boundary)
    assert np.max(np.abs(b - b_ref)) <= 1e-14 * np.max(np.abs(b_ref))
    # the batched operators take the same float steps per coefficient
    assert_same_field(f, f_ref, cap=False)


def random_trig(rng, terms=4):
    coef = {}
    for _ in range(terms):
        key = tuple((int(rng.integers(2)), int(rng.integers(0, 3))) for _ in range(3))
        coef[key] = rng.uniform(-1.0, 1.0)
    return TrigPoly(coef)


def test_trig_field_stack_round_trip():
    rng = np.random.default_rng(21)
    fields = [pf.as_vec([random_trig(rng) for _ in range(3)]) for _ in range(4)]
    fields.append(pf.as_vec([TrigPoly.sine_mode((1, 2, 1)), TrigPoly.zero(),
                             TrigPoly({((COS, 2), (SIN, 1), (COS, 0)): 0.5})]))
    S = pf.FieldStack.of(fields)
    assert S.family is TrigPoly and len(S) == 5
    assert S.cubes.shape[-1] % 2 == 1
    for F, G in zip(S, fields):
        assert_same_field(F, G, cap=False)
    with pytest.raises(IndexError):
        S[5]
    B = S.batch()
    assert B.shape == (3,)
    assert all(B[q].family is TrigPoly and np.array_equal(B[q].coef, S.cubes[:, q])
               for q in range(3))
    assert pf.batch_fields(fields)[1].family is TrigPoly
    W = rng.uniform(-1.0, 1.0, (5, 2))
    combos = pf.linear_combinations(S, W)
    assert isinstance(combos, pf.FieldStack) and combos.family is TrigPoly
    for r in range(2):
        want = sum((fields[a] * W[a, r] for a in range(5)), pf.as_vec([TrigPoly.zero()] * 3))
        got = combos[r]
        D = S.cubes.shape[-1]
        for p, q in zip(got, want):
            assert type(p) is TrigPoly
            assert np.max(np.abs(pf.to_dense(p, D) - pf.to_dense(q, D))) <= 1e-15


def test_one_solve_stacks_only_u_star_and_its_error(monkeypatch):
    mat = MATERIALS[0]
    basis = sv.bubble_basis(2)
    stacked = []
    to_dense = pf.to_dense

    def counting_to_dense(p, D):
        stacked.append(p)
        return to_dense(p, D)

    monkeypatch.setattr(pf, "to_dense", counting_to_dense)
    asm = sv.assemble(basis, mat, "curl")
    sv.assemble(basis, mat, "axl")
    c_star = np.random.default_rng(0).uniform(-1.0, 1.0, len(basis))
    u_star = sv.displacement(basis, c_star)
    _, b = sv.manufactured_load(basis, u_star, mat)
    rep = sv.solve(asm, b)
    rec = sv.recovery_error(basis, rep.coefficients, u_star)
    assert rec <= 1e-8
    # u_star for its load and u_h - u_star for the recovery norm, three scalars each
    assert len(stacked) <= 6


@pytest.mark.parametrize("order", [1, 2])
def test_sine_manufactured_load_is_the_stiffness_image(order):
    # u_star stays in the sine family, so its strong form and face double
    # forces are exact trigonometric fields and b = K c* to rounding
    mat = MATERIALS[1]
    basis = sv.sine_basis(order)
    asm = sv.assemble(basis, mat)
    c_star = np.random.default_rng(order).uniform(-1.0, 1.0, len(basis))
    u_star = sv.displacement(basis, c_star)
    assert all(type(p) is TrigPoly for p in u_star)
    f, b = sv.manufactured_load(basis, u_star, mat)
    assert all(type(p) is TrigPoly for p in f)
    assert np.linalg.norm(b - asm.K @ c_star) <= 1e-13 * np.linalg.norm(b)
    rep = sv.solve(asm, b)
    assert sv.recovery_error(basis, rep.coefficients, u_star) <= 1e-12
