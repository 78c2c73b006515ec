"""The traction layer's boundary identities on trigonometric fields.

The curl and axl routes share their field equations, so the closed-boundary
work of either route equals the volume virtual work for every admissible
state and test field. The face traces these pairings need are exact for the
sine family too: each is a TrigPoly restricted to a face and integrated in
closed form.
"""
import math

import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import stresses as st
from couplestress import tractions as tr
from couplestress.energies import Material
from couplestress.trig import COS, SIN, TrigPoly

MAT = Material(1.0, 0.7, 1.3, 0.4, 0.9)


def _random_trig(rng, terms=4, fmax=2):
    """A few separable sin/cos terms with random frequencies and weights."""
    coef = {}
    for _ in range(terms):
        key = []
        for _ in range(3):
            kind = int(rng.integers(2))
            key.append((kind, int(rng.integers(1 if kind == SIN else 0, fmax + 1))))
        coef[tuple(key)] = rng.uniform(-1.0, 1.0)
    return TrigPoly(coef)


def _trig_field(seed):
    rng = np.random.default_rng(seed)
    return pf.as_vec([_random_trig(rng) for _ in range(3)])


def _sine_bump(face):
    """sin^2(pi s) sin^2(pi t) on the tangential axes: zero with its gradient on the face edges."""
    key = [(COS, 0)] * 3
    for ax in face.tangential_axes:
        key[ax] = (SIN, 1)
    m = TrigPoly({tuple(key): 1.0})
    return m * m


@pytest.mark.parametrize("seed", range(5))
def test_closed_boundary_work_is_route_independent_on_trig_fields(seed):
    state = st.assemble(_trig_field(seed), MAT)
    v = _trig_field(seed + 100)
    volume = tr.volume_virtual_work(state, v)
    assert abs(volume) > 1e-3
    for formulation in ("curl", "axl"):
        closed = tr.closed_boundary_work(state, v, formulation)
        assert abs(closed - volume) <= 1e-12 * abs(volume), formulation


@pytest.mark.parametrize("seed", range(3))
def test_double_forces_and_face_work_evaluate_on_every_face(seed):
    state = st.assemble(_trig_field(seed), MAT)
    v = _trig_field(seed + 100)
    for face in tr.ALL_FACES:
        cmp = tr.compare_double_forces(state, face)
        scale = max(1.0, pf.max_abs_coeff_vec([face.restrict(g) for g in cmp["curl"]]))
        assert cmp["curl-vs-energetic"] <= 1e-12 * scale
        assert cmp["curl-plus-appendix"] <= 1e-12 * scale
        assert tr.traction_curl_form(state, face).double_force_normal_component() <= 1e-12 * scale
        work = tr.face_work_comparison(state, face, v)
        for route in ("curl", "axl-energetic", "axl-appendix"):
            assert all(math.isfinite(work[route][k])
                       for k in ("traction_term", "double_force_term", "total"))
        # a test field supported inside the face: the split totals agree
        b = _sine_bump(face)
        bump = tr.face_work_comparison(state, face, pf.as_vec([b, b * 2.0, -b]))
        assert bump["total_gap"] <= 1e-12 * max(1.0, abs(bump["curl"]["total"]))
        assert bump["curl"]["total"] == pytest.approx(
            tr.unsplit_face_work(state, face, pf.as_vec([b, b * 2.0, -b])), rel=1e-12)
