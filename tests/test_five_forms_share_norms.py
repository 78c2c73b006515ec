"""`energies.five_form_densities` forms each (measure, part) squared norm once.

The five writings read three measures (grad curl u, the rotation gradient
and the strain curl) through sym, dev sym and skw parts; the skw parts of
grad curl u and of the strain curl enter two writings each. Each (measure,
part) image is formed once, so the forms make 8 part images where they made
10, and each form sums its norms by `_weighted_sum` in the order of its
parts, so every density equals its `quadratic` restatement bit for bit.
"""
import numpy as np
import pytest

from couplestress import energies as en
from couplestress import polyfield as pf
from test_array_expressions_bitwise import SPECIALS, same, spiked

MATERIALS = [en.Material(), en.Material(1.3, 0.7, 1.1, 0.4, 0.9), en.Material(2.0, -0.5, 0.2, 0.0)]


def quadratic_forms(u, mat):
    """The five writings, each `quadratic` of its measure, as they were formed."""
    s = en._state(u)
    k = {"gradcurl": s.grad_curl, "axl": s.k_axl, "curl": s.k_curl}
    return {name: en.quadratic(k[measure], [f * w for w in en.constants(mat, parts)], parts)
            * mat.curvature_scale
            for name, measure, f, parts in en._FIVE_FORMS}


@pytest.fixture(autouse=True)
def quiet():
    # inf - inf in the field algebra sets the invalid flag; its NaN is compared
    with np.errstate(invalid="ignore", over="ignore"):
        yield


def test_each_measure_and_part_is_formed_once(monkeypatch):
    calls = []

    def counted(part):
        def wrapped(X):
            calls.append((part.__name__, id(X)))
            return part(X)
        return wrapped

    parts = {part for *_, form_parts in en._FIVE_FORMS for _, part in form_parts}
    wrap = {part: counted(part) for part in parts}
    table = tuple((name, measure, f, tuple((key, wrap[part]) for key, part in form_parts))
                  for name, measure, f, form_parts in en._FIVE_FORMS)
    monkeypatch.setattr(en, "_FIVE_FORMS", table)
    u = pf.random_vec_field(np.random.default_rng(0), 4)
    with en._derived_fields(u):
        s = en._state(u)
        en.five_form_densities(u, en.Material())
        measures = {id(s.grad_curl): "gradcurl", id(s.k_curl): "curl"}
    named = sorted((measures.get(x, "axl"), part) for part, x in calls)
    assert len(set(calls)) == len(calls) == 8
    assert named == sorted([("gradcurl", "sym"), ("gradcurl", "devsym"), ("gradcurl", "skw"),
                            ("axl", "sym"), ("axl", "skw"),
                            ("curl", "sym"), ("curl", "devsym"), ("curl", "skw")])


@pytest.mark.parametrize("mat", MATERIALS, ids=str)
@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_the_forms_are_the_quadratic_restatement_bit_for_bit(mat, degree):
    for seed in range(2):
        u = pf.random_vec_field(np.random.default_rng(seed), degree)
        same(en.five_form_densities(u, mat), quadratic_forms(u, mat))


@pytest.mark.parametrize("special", sorted(SPECIALS))
def test_non_finite_fields_give_the_quadratic_restatement(special):
    rng = np.random.default_rng(7)
    u = pf.random_vec_field(rng, 4)
    u[1] = spiked(u[1], (2, 1, 0), SPECIALS[special])
    for mat in MATERIALS:
        same(en.five_form_densities(u, mat), quadratic_forms(u, mat))
