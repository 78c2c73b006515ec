"""Route and orientation names are checked wherever a route is read.

Every traction function that takes a formulation refuses a name other
than "curl" and "axl", and every one that takes an orientation refuses a
name other than "energetic" and "appendix", on both routes: the curl
route has no orientation of its own, but a misspelt one is still an error.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import tractions as tr
from couplestress.energies import Material
from couplestress.stresses import assemble as assemble_stresses

RNG = np.random.default_rng(6)
STATE = assemble_stresses(pf.random_vec_field(RNG, 2), Material(1.0, 0.7, 1.3, 0.4, 0.9))
TEST = pf.random_vec_field(RNG, 2)
FACE = tr.Face(2, 1.0)

BY_FORMULATION = {
    "boundary_virtual_work": lambda f: tr.boundary_virtual_work(STATE, FACE, TEST, f),
    "unsplit_face_work": lambda f: tr.unsplit_face_work(STATE, FACE, TEST, f),
    "closed_boundary_work": lambda f: tr.closed_boundary_work(STATE, TEST, f),
    "edge_force": lambda f: tr.edge_force(STATE, FACE, 0, 1.0, f),
}


@pytest.mark.parametrize("name", sorted(BY_FORMULATION))
def test_unknown_formulation_is_named(name):
    with pytest.raises(ValueError, match="unknown formulation 'strain'"):
        BY_FORMULATION[name]("strain")


@pytest.mark.parametrize("formulation", ["curl", "axl"])
def test_boundary_virtual_work_refuses_an_unknown_orientation(formulation):
    with pytest.raises(ValueError, match="orientation"):
        tr.boundary_virtual_work(STATE, FACE, TEST, formulation, orientation="bogus")


@pytest.mark.parametrize("formulation", ["curl", "axl"])
def test_edge_force_refuses_an_unknown_orientation(formulation):
    with pytest.raises(ValueError, match="orientation"):
        tr.edge_force(STATE, FACE, 0, 1.0, formulation, orientation="bogus")


def test_traction_axl_form_refuses_an_unknown_orientation():
    with pytest.raises(ValueError, match="orientation"):
        tr.traction_axl_form(STATE, FACE, orientation="bogus")


@pytest.mark.parametrize("formulation", ["curl", "axl"])
@pytest.mark.parametrize("orientation", ["energetic", "appendix"])
def test_known_names_are_accepted(formulation, orientation):
    work = tr.boundary_virtual_work(STATE, FACE, TEST, formulation, orientation)
    assert work["formulation"] == formulation
    assert work["orientation"] == ("energetic" if formulation == "curl" else orientation)
    assert np.isfinite(work["total"])
    assert len(tr.edge_force(STATE, FACE, 1, 0.0, formulation, orientation)) == 3
