"""Each call that reads a field's Jacobian in several steps forms it once.

The face works of `tractions`, `micromorphic.force_stress` and
`conformal.elastic_density_identity_gap` read J = grad v from the field's
derived-field state (`energies._state`) inside one call scope, and a
`StressState` takes J from the state of its u, so in a scope that registers
u it forms none of its own. Every value is compared bit for bit with the
same formula restated with a `pf.jac` per step.
"""
import contextlib
import io

import numpy as np
import pytest

from couplestress import cli
from couplestress import conformal as cf
from couplestress import energies as en
from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import stresses as st
from couplestress import tensors as tn
from couplestress import tractions as tr

MAT = en.Material(1.3, 0.7, 0.9, 0.4, 0.8)


def field(seed, degree=3):
    return pf.random_vec_field(np.random.default_rng(seed), degree)


def counting_jac(monkeypatch):
    """pf.jac wrapped to log the argument of each call."""
    calls = []
    real = pf.jac

    def run(u):
        calls.append(u)
        return real(u)

    monkeypatch.setattr(pf, "jac", run)
    return calls


def jacs_of(calls, F):
    return sum(c is F for c in calls)


def bits(x):
    return np.float64(x).tobytes()


def same_field(F, G):
    assert np.shape(F) == np.shape(G)
    for p, q in zip(np.ravel(F), np.ravel(G)):
        assert list(p.coef) == list(q.coef) and p.cap == q.cap
        assert [bits(v) for v in p.coef.values()] == [bits(v) for v in q.coef.values()]


# --- the works as first written, one pf.jac of the test field per step --------------


def restated_boundary_work(state, face, test, formulation, orientation="energetic"):
    ts = tr._traction_set(state, face, formulation, orientation)
    dn = tn.matvec(pf.jac(test), face.normal)
    traction_term = face.integrate(tn.inner_vec(ts.traction, test))
    double_term = face.integrate(tn.inner_vec(ts.double_force, dn))
    return traction_term, double_term, traction_term + double_term


def restated_closed_work(state, test, formulation):
    total = 0
    for face in tr.ALL_FACES:
        T, B, _ = tr._route(state, face, formulation, "energetic")
        force = tn.inner_vec(tn.matvec(T(), face.normal), test)
        total = total + face.integrate(force + tn.inner(B, pf.jac(test)))
    return total


@pytest.mark.parametrize("face", tr.ALL_FACES, ids=str)
def test_face_work_comparison_forms_one_jacobian_of_the_test_field(monkeypatch, face):
    state = st.assemble(field(0, 4), MAT)
    test = tr.face_bump(face, (face.axis + 1) % 3)
    want = {key: restated_boundary_work(state, face, test, *route)
            for key, route in (("curl", ("curl",)), ("axl-energetic", ("axl", "energetic")),
                               ("axl-appendix", ("axl", "appendix")))}
    calls = counting_jac(monkeypatch)
    got = tr.face_work_comparison(state, face, test)
    assert jacs_of(calls, test) == 1
    for key, (traction, double, total) in want.items():
        assert [bits(got[key][k]) for k in ("traction_term", "double_force_term", "total")] \
            == [bits(traction), bits(double), bits(total)]


@pytest.mark.parametrize("route", ["curl", "axl"])
@pytest.mark.parametrize("seed", [0, 1])
def test_closed_boundary_work_forms_one_jacobian_of_the_test_field(monkeypatch, route, seed):
    state = st.assemble(field(seed, 4), MAT)
    test = field(seed + 10)
    want = restated_closed_work(state, test, route)
    calls = counting_jac(monkeypatch)
    got = tr.closed_boundary_work(state, test, route)
    assert jacs_of(calls, test) == 1
    assert bits(got) == bits(want)
    calls.clear()
    tr.closed_boundary_work(state, test, route)
    assert jacs_of(calls, test) == 1  # no state outlives the call


# --- micromorphic and conformal -------------------------------------------------


def restated_force_stress(u, P, model, params):
    elastic = en.conjugate(pf.jac(u), en.elastic_weights(params)[1], en.ELASTIC_PARTS)
    if mm._model(model)[1] == "strain":
        coupling = tn.sym(pf.jac(u) - P)
    else:
        coupling = mm._CLASSES[mm.companion_class(model)][0](pf.jac(u)) - P
    return elastic + coupling * (2.0 * params.penalty)


def companion(model, rng):
    return {"skew": pf.random_skw_mat_field, "sym": pf.random_sym_mat_field,
            "full": pf.random_mat_field}[mm.companion_class(model)](rng, 3)


@pytest.mark.parametrize("model", mm.MODEL_IDS)
def test_micromorphic_force_stress_forms_one_jacobian(monkeypatch, model):
    rng = np.random.default_rng(4)
    u, P = pf.random_vec_field(rng, 3), companion(model, rng)
    params = mm.MicromorphicParams(penalty=3.0, alpha3=0.2)
    want = restated_force_stress(u, P, model, params)
    calls = counting_jac(monkeypatch)
    got = mm.force_stress(u, P, model, params)
    assert jacs_of(calls, u) == 1
    same_field(got, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_elastic_density_identity_gap_forms_one_jacobian(monkeypatch, seed):
    phi, _ = cf.random_conformal(np.random.default_rng(seed))
    J = pf.jac(phi)
    t = tn.trace(J)
    want = (en.linear_elastic_density(phi, MAT) - t * t * (MAT.kappa / 2.0)).max_abs_coeff()
    calls = counting_jac(monkeypatch)
    got = cf.elastic_density_identity_gap(phi, MAT)
    assert jacs_of(calls, phi) == 1
    assert bits(got) == bits(want)


# --- stresses ---------------------------------------------------------------------


def test_a_stress_state_in_a_scope_of_u_forms_no_jacobian_of_its_own(monkeypatch):
    u = field(3, 4)
    want = st.structure_report(st.assemble(u, MAT))
    calls = counting_jac(monkeypatch)
    with en._derived_fields(u):
        J = en._state(u).jacobian
        state = st.assemble(u, MAT)
        got = st.structure_report(state)
        sigma = st.force_stress(u, MAT)
    assert jacs_of(calls, u) == 1
    assert state.jacobian is J
    assert [bits(v) for v in got.values()] == [bits(v) for v in want.values()]
    same_field(sigma, state.sigma)


# --- the traction-compare command ---------------------------------------------------


def test_a_default_traction_compare_forms_one_jacobian_of_its_test_field(monkeypatch):
    drawn = []
    real_draw = pf.random_vec_field

    def draw(rng, degree):
        drawn.append(real_draw(rng, degree))
        return drawn[-1]

    monkeypatch.setattr(pf, "random_vec_field", draw)
    calls = counting_jac(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["traction-compare"]) == 0
    test = drawn[0]  # drawn before the field of the second state
    assert jacs_of(calls, test) == 1
    assert len(calls) <= 7
