"""Face double-force loads and constraint violations on the dense pairing path.

The references are the symbolic per-face and per-entry integrals: the face
part of the manufactured load as sums of `face.integrate(g[i] * dn[i])`,
and the coupled-solve violation as the square root of a sum of
`integral_of_product`. Only the summation order differs, so the face load
must agree within 1e-11 * max|b| and the violation within 1e-8 relative.
The manufactured load must also reproduce K c* to 1e-13 relative.
"""
import numpy as np
import pytest

from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress import tensors as tn
from couplestress.energies import Material
from couplestress.stresses import assemble as assemble_stresses
from couplestress.tractions import ALL_FACES, traction_curl_form

MAT = Material(1.0, 1.0, 1.0, 0.0, 1.0)


def manufactured(order, seed):
    basis = sv.bubble_basis(order)
    c_star = np.random.default_rng(seed).uniform(-1.0, 1.0, len(basis))
    return basis, c_star, sv.displacement(basis, c_star)


def symbolic_face_load(basis, u_star, mat):
    """Face double-force work <g, grad v . n>, one symbolic face integral each."""
    state = assemble_stresses(u_star, mat)
    b = np.zeros(len(basis))
    for face in ALL_FACES:
        g = traction_curl_form(state, face).double_force
        for a, v in enumerate(basis.fields):
            dn = tn.matvec(pf.jac(v), face.normal)
            b[a] += sum(face.integrate(g[i] * dn[i]) for i in range(3))
    return b


@pytest.mark.parametrize("order", [1, 2, 3])
def test_face_load_matches_symbolic_face_integrals(order):
    basis, _, u_star = manufactured(order, seed=3)
    _, b = sv.manufactured_load(basis, u_star, MAT)
    _, b_volume = sv.manufactured_load(basis, u_star, MAT, include_boundary=False)
    ref = symbolic_face_load(basis, u_star, MAT)
    assert np.max(np.abs(ref)) > 1e-3  # the face part is not vacuous
    assert np.max(np.abs((b - b_volume) - ref)) <= 1e-11 * np.max(np.abs(b))


@pytest.fixture(scope="module", params=[1, 2, 3, 4])
def assembled(request):
    basis = sv.bubble_basis(request.param)
    return basis, sv.assemble(basis, MAT, "curl")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_manufactured_load_is_the_stiffness_image(assembled, seed):
    # u* lies in the span, so integration by parts makes b = K c* exactly;
    # only rounding separates the two
    basis, asm = assembled
    c_star = np.random.default_rng(seed).uniform(-1.0, 1.0, len(basis))
    u_star = sv.displacement(basis, c_star)
    _, b = sv.manufactured_load(basis, u_star, MAT)
    assert np.linalg.norm(b - asm.K @ c_star) <= 1e-13 * np.linalg.norm(b)


def _generic_load():
    x = [pf.Poly3.variable(ax) for ax in range(3)]
    return pf.as_vec([x[1] + 1.0, x[2] - 2.0, x[0]])


@pytest.mark.parametrize("model", ["cosserat", "microstrain"])
def test_violation_matches_symbolic_integrals_on_every_rung(model):
    params = mm.MicromorphicParams()
    basis = sv.bubble_basis(2)
    f = _generic_load()
    companion = mm.companion_basis(model, basis)
    grams = mm.coupled_operator_grams(model, basis, companion)
    for pen in (1.0, 1e2, 1e4, 1e6):
        state, rep = mm.coupled_solve(
            model, params.with_penalty(pen), basis, f,
            companion_fields=companion, grams=grams,
        )
        # for the skew and symmetric companions the coupling is the
        # constraint image of u minus the companion
        coupling = mm.constrained_companion(model, state.u) - state.P
        ref = np.sqrt(sum(pf.integral_of_product(p, p) for p in np.ravel(coupling)))
        assert ref > 0.0
        assert abs(rep["violation"] - ref) <= 1e-8 * ref


def test_bubble_scalars_are_the_bubble_times_each_monomial():
    xs = [pf.Poly3.variable(ax, 14) for ax in range(3)]
    bubble = xs[0] * (1.0 - xs[0]) * (1.0 - xs[1]) * xs[1] * xs[2] * (1.0 - xs[2])
    scalars = sv.bubble_scalars(2)
    exps = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    assert len(scalars) == len(exps)
    for s, e in zip(scalars, exps):
        ref = bubble * pf.Poly3.monomial(e, 1.0, 14)
        assert s.coef == ref.coef and s.cap == ref.cap
    fields = sv.bubble_basis(2).fields
    assert all(fields[3 * n + d][d].coef == s.coef for n, s in enumerate(scalars) for d in range(3))


@pytest.mark.parametrize("model,count", [("cosserat", 48), ("microstrain", 72)])
def test_companion_basis_size_is_unchanged(model, count):
    assert len(mm.companion_basis(model, sv.bubble_basis(2))) == count
