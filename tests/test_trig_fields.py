"""The energy zoo and the traction layer on trigonometric fields.

The field algebra is written once for every scalar type with the field
protocol, so the sine family goes through the same densities, tractions
and virtual work as the polynomial one.
"""
import math

import numpy as np
import pytest

from couplestress import energies as en
from couplestress import polyfield as pf
from couplestress import stresses as st
from couplestress import tractions as tr
from couplestress.energies import Material
from couplestress.trig import SIN, TrigPoly

MATERIALS = (Material(), Material(1.3, 0.4, 1.7, 0.6, 0.8))


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


@pytest.mark.parametrize("seed", [0, 1])
def test_every_registry_density_evaluates_on_trig_fields(seed):
    u = _trig_field(seed)
    assert len(en.MODEL_REGISTRY) == 11
    for mat in MATERIALS:
        for name in en.MODEL_REGISTRY:
            dens, total = en.evaluate_model(name, u, mat)
            assert isinstance(dens, TrigPoly), name
            assert math.isfinite(total), name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mindlin_iii_specializes_to_indeterminate_on_trig_fields(seed):
    u = _trig_field(seed)
    a1, a2 = 1.3, 0.7
    for mat in MATERIALS:
        d1 = en.mindlin_iii_density(
            u, mat, a=((a1 + a2) / 2.0, (a1 - a2) / 2.0, 0.0, 0.0, 0.0))
        d2 = en.indeterminate_density(u, mat.with_alphas(a1, a2))
        scale = d2.max_abs_coeff()
        assert scale > 0.0
        assert (d1 - d2).max_abs_coeff() <= 1e-12 * scale


def test_tractions_and_volume_work_evaluate_on_trig_fields():
    u, v = _trig_field(3), _trig_field(4)
    state = st.assemble(u, Material(1.0, 0.7, 1.3, 0.4, 0.9))
    assert math.isfinite(tr.volume_virtual_work(state, v))
    pts = np.random.default_rng(5).uniform(0.0, 1.0, (20, 3))
    for face in tr.ALL_FACES:
        on_face = pts.copy()
        on_face[:, face.axis] = face.value
        curl = tr.traction_curl_form(state, face)
        energetic = tr.traction_axl_form(state, face, "energetic")
        appendix = tr.traction_axl_form(state, face, "appendix")
        for ts in (curl, energetic, appendix):
            assert np.all(np.isfinite([c.eval(on_face) for c in ts.traction]))
        # the energetic axl double force is the curl-route one, pointwise
        g_curl = np.array([c.eval(on_face) for c in curl.double_force])
        g_en = np.array([c.eval(on_face) for c in energetic.double_force])
        g_ap = np.array([c.eval(on_face) for c in appendix.double_force])
        scale = max(1.0, np.max(np.abs(g_curl)))
        assert np.max(np.abs(g_curl - g_en)) <= 1e-12 * scale
        assert np.max(np.abs(g_curl + g_ap)) <= 1e-12 * scale
