"""The complete traction boundary conditions close the virtual work identity.

For a test field v that does not vanish on the boundary, the face work of
the split (force traction paired with v, double force paired with the
normal derivative of v) misses the volume virtual work by the work of the
edge forces along the box edges. Adding, for each face, the integral of
`edge_force` . v over its four edges closes the identity to rounding on
the curl route and on the energetic axl route; the appendix orientation of
the axl split does not close it. Each edge integral is exact: v and the
edge force are restricted to the face, then to the edge, and integrated.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import tractions as tr
from couplestress.energies import Material
from couplestress.stresses import assemble as assemble_stresses

MAT = Material(1.0, 0.7, 1.3, 0.4, 0.9)


def edge_work(state, v, formulation, orientation):
    total = 0.0
    for face in tr.ALL_FACES:
        for edge_axis in face.tangential_axes:
            for edge_value in (0.0, 1.0):
                e = tr.edge_force(state, face, edge_axis, edge_value, formulation, orientation)
                trace = [v[i].restrict(face.axis, face.value).restrict(edge_axis, edge_value)
                         for i in range(3)]
                total += sum((e[i] * trace[i]).integrate() for i in range(3))
    return total


def face_work(state, v, formulation, orientation):
    return sum(tr.boundary_virtual_work(state, face, v, formulation, orientation)["total"]
               for face in tr.ALL_FACES)


def states(seed=4, n=3):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        u_star = pf.random_vec_field(rng, 3)
        v = pf.random_vec_field(rng, 3)
        yield assemble_stresses(u_star, MAT), v


def test_test_fields_do_not_vanish_on_the_boundary():
    for _, v in states():
        assert all(pf.max_abs_coeff(face.restrict(v[0])) > 0.1 for face in tr.ALL_FACES)


@pytest.mark.parametrize("formulation,orientation", [("curl", "energetic"),
                                                     ("axl", "energetic")])
def test_faces_plus_edges_equal_the_volume_work(formulation, orientation):
    for state, v in states():
        volume = tr.volume_virtual_work(state, v)
        faces = face_work(state, v, formulation, orientation)
        edges = edge_work(state, v, formulation, orientation)
        assert abs(faces + edges - volume) <= 1e-12 * abs(volume)
        assert abs(faces - volume) >= 1e-3 * abs(volume)  # the edges carry work


def test_appendix_orientation_does_not_close_with_its_edges():
    for state, v in states():
        volume = tr.volume_virtual_work(state, v)
        total = face_work(state, v, "axl", "appendix") + edge_work(state, v, "axl", "appendix")
        assert abs(total - volume) >= 1e-2 * abs(volume)
