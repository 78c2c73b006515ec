"""Every boundary quantity of a route is read from its (T, B).

The references below are the route-by-route forms the traction layer had
before it read each route through its total force stress T and surface
moment B: the curl double force (sym M).n, the axl double force
+-(1/2)(m.n) x n with its own tangential correction, the edge force with
its moment matrix built a second time, and the unsplit face work with the
curl route paired through sym grad v and the axl route through curl v.
The tractions, double forces and edge forces must equal them coefficient
for coefficient, in the same key order; the unsplit work, whose integrand
is now (T.n).v + B : grad v, must agree to rounding.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import tensors as tn
from couplestress import tractions as tr
from couplestress.energies import Material
from couplestress.stresses import assemble as assemble_stresses
from couplestress.trig import TrigPoly

MAT = Material(1.0, 0.7, 1.3, 0.4, 0.9)
ROUTES = [("curl", "energetic"), ("axl", "energetic"), ("axl", "appendix")]


# --- references: the route-by-route forms --------------------------------------


def ref_curl_double_force(state, face):
    symM = tn.sym(tr.surface_moment_matrix(state.m_curl, face.normal))
    return symM, tn.matvec(symM, face.normal)


def ref_axl_double_force(state, face, orientation):
    sign = 1.0 if orientation == "energetic" else -1.0
    v = tn.matvec(state.m_axl, face.normal)
    return v, sign, tn.cross(v, face.normal) * (0.5 * sign)


def ref_traction_curl_form(state, face):
    symM, g = ref_curl_double_force(state, face)
    t = tn.matvec(state.total_curl, face.normal) - tr.tangential_divergence(symM, face)
    return t, g


def ref_traction_axl_form(state, face, orientation):
    v, sign, g = ref_axl_double_force(state, face, orientation)
    corr = tr.tangential_divergence(tn.anti(v), face)
    t = tn.matvec(state.total_axl, face.normal) - corr * (0.5 * sign)
    return t, g


def ref_traction(state, face, formulation, orientation):
    if formulation == "curl":
        return ref_traction_curl_form(state, face)
    return ref_traction_axl_form(state, face, orientation)


def ref_edge_force(state, face, edge_axis, edge_value, formulation, orientation):
    nu = tr.edge_conormal(face, edge_axis, edge_value)
    if formulation == "curl":
        B = tn.sym(tr.surface_moment_matrix(state.m_curl, face.normal))
    else:
        v, sign, _ = ref_axl_double_force(state, face, orientation)
        B = tn.anti(v) * (0.5 * sign)
    vec = tn.matvec(B, nu)
    return [vec[i].restrict(face.axis, face.value).restrict(edge_axis, edge_value)
            for i in range(3)]


def ref_unsplit_face_work(state, face, test, formulation):
    n = face.normal
    J = pf.jac(test)
    if formulation == "curl":
        tvec = tn.matvec(state.total_curl, n)
        M = tr.surface_moment_matrix(state.m_curl, n)
        moment = tn.inner(M, tn.sym(J))
    else:
        tvec = tn.matvec(state.total_axl, n)
        v = tn.matvec(state.m_axl, n)
        moment = tn.inner_vec(v, pf.curl(test)) * 0.5
    force = tn.inner_vec(tvec, test)
    return face.integrate(force + moment)


# --- states ----------------------------------------------------------------------


def _sine_field(rng):
    modes = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]
    return pf.as_vec([sum(TrigPoly.sine_mode(f) * rng.uniform(-1.0, 1.0) for f in modes)
                      for _ in range(3)])


def _state(kind):
    rng = np.random.default_rng({"poly3": 31, "poly4": 41, "sine": 51}[kind])
    if kind == "sine":
        return assemble_stresses(_sine_field(rng), MAT), _sine_field(rng)
    degree = int(kind[-1])
    return (assemble_stresses(pf.random_vec_field(rng, degree), MAT),
            pf.random_vec_field(rng, degree))


STATES = {kind: _state(kind) for kind in ("poly3", "poly4", "sine")}


def assert_same_coefficients(got, want):
    for p, q in zip(got, want, strict=True):
        assert list(p.coef.items()) == list(q.coef.items())


def _traction(state, face, formulation, orientation):
    if formulation == "curl":
        ts = tr.traction_curl_form(state, face)
    else:
        ts = tr.traction_axl_form(state, face, orientation)
    assert (ts.formulation, ts.orientation) == (formulation, orientation)
    return ts


# --- tests -------------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("formulation,orientation", ROUTES)
def test_traction_and_double_force_equal_the_references(kind, formulation, orientation):
    state, _ = STATES[kind]
    for face in tr.ALL_FACES:
        ts = _traction(state, face, formulation, orientation)
        t, g = ref_traction(state, face, formulation, orientation)
        assert_same_coefficients(ts.traction, t)
        assert_same_coefficients(ts.double_force, g)
        assert pf.max_abs_coeff(face.restrict(ts.double_force[face.axis])) == 0.0


@pytest.mark.parametrize("kind", sorted(STATES))
def test_double_forces_alone_equal_the_references(kind):
    state, _ = STATES[kind]
    for face in tr.ALL_FACES:
        assert_same_coefficients(tr.curl_double_force(state, face),
                                 ref_curl_double_force(state, face)[1])
        cmp = tr.compare_double_forces(state, face)
        assert_same_coefficients(cmp["curl"], ref_curl_double_force(state, face)[1])
        for orientation in ("energetic", "appendix"):
            assert_same_coefficients(cmp[f"axl-{orientation}"],
                                     ref_axl_double_force(state, face, orientation)[2])
        assert cmp["curl-vs-energetic"] <= 1e-12 and cmp["curl-plus-appendix"] <= 1e-12


@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("formulation,orientation", ROUTES)
def test_edge_forces_equal_the_references(kind, formulation, orientation):
    state, _ = STATES[kind]
    for face in tr.ALL_FACES:
        for edge_axis in face.tangential_axes:
            for edge_value in (0.0, 1.0):
                got = tr.edge_force(state, face, edge_axis, edge_value, formulation,
                                    orientation)
                want = ref_edge_force(state, face, edge_axis, edge_value, formulation,
                                      orientation)
                assert_same_coefficients(got, want)


@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("formulation", ["curl", "axl"])
def test_unsplit_face_work_agrees_with_the_reference(kind, formulation):
    state, v = STATES[kind]
    for face in tr.ALL_FACES:
        got = tr.unsplit_face_work(state, face, v, formulation)
        want = ref_unsplit_face_work(state, face, v, formulation)
        assert abs(want) > 1e-6
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("kind", sorted(STATES))
def test_boundary_virtual_work_reads_the_same_split(kind):
    state, v = STATES[kind]
    face = tr.ALL_FACES[3]
    dn = tn.matvec(pf.jac(v), face.normal)
    for formulation, orientation in ROUTES:
        work = tr.boundary_virtual_work(state, face, v, formulation, orientation)
        t, g = ref_traction(state, face, formulation, orientation)
        assert work["orientation"] == orientation
        assert work["traction_term"] == face.integrate(tn.inner_vec(t, v))
        assert work["double_force_term"] == face.integrate(tn.inner_vec(g, dn))
