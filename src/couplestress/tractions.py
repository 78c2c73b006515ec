"""Boundary tractions and double forces on faces of the unit box.

A route is its total force stress T and its surface moment B on a face
with normal n, both given by `_route`, the one reader of route and
orientation names: T = sigma + tau_curl and B = sym M, M with rows m_i x n
for m = m_curl, on the curl route; T = sigma - tau_axl and
B = +-(1/2) anti(m.n) for m = m_axl on the axl route. From (T, B) come the
force traction t = T.n - grad(B P) : P with P = Id - n otimes n, the double
force g = B.n, the per-face edge force B.nu and the unsplit face work
(T.n).v + B : grad v. The last is the raw pairing of both routes, since
M : sym grad v = sym M : grad v and (1/2)(m.n).curl v = (1/2) anti(m.n) : grad v.
The two splits differ by tangential divergences, so their terms disagree
while totals agree for test fields supported inside a face. Every face
work is an exact integral of a polynomial over the face. The works read the
test field's J (and grad curl) from its state (`energies._state`), and a
comparison or closed sum is one call scope around the test field.

The axl route carries an orientation switch. "energetic" uses the spin
convention anti(v).w = v x w throughout, under which its double force
coincides pointwise with the curl-route one. "appendix" uses the opposite
spin sign, which is the form the split is usually quoted in; it flips B,
and with it the double force and the tangential correction of the traction.
The curl route has no orientation and records "energetic".
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import polyfield as pf
from . import tensors as tn
from .energies import _ROUTES, _derived_fields, _state
from .stresses import StressState

_ORIENTATIONS = ("energetic", "appendix")


def _is_axis(axis, axes=(0, 1, 2)):
    """Whether axis is one of axes and of an integer type other than bool."""
    return (isinstance(axis, (int, np.integer)) and axis.__class__ is not bool
            and axis in axes)


def _is_end(value):
    """Whether value is 0 or 1 and no bool (both types equal to 0 and 1)."""
    return value.__class__ not in pf._BOOLS and value in (0.0, 1.0)


@dataclass(frozen=True)
class Face:
    """One axis-aligned face of the unit box."""

    axis: int
    value: float

    def __post_init__(self):
        if not (_is_axis(self.axis) and _is_end(self.value)):
            raise ValueError("face must be an integer axis in {0,1,2} at value 0 or 1, "
                             f"got axis {self.axis!r} at value {self.value!r}")

    @property
    def normal(self):
        n = np.zeros(3)
        n[self.axis] = 1.0 if self.value == 1.0 else -1.0
        return n

    @property
    def tangential_axes(self):
        return tuple(ax for ax in range(3) if ax != self.axis)

    def restrict(self, p):
        return p.restrict(self.axis, self.value)

    def integrate(self, p):
        """Exact integral of a polynomial over this face."""
        return self.restrict(p).integrate()


ALL_FACES = tuple(Face(ax, v) for ax in range(3) for v in (0.0, 1.0))


def projector(n):
    return np.eye(3) - np.outer(n, n)


def surface_moment_matrix(m, n):
    """Matrix with rows m_i x n; annihilates n from the right."""
    n = np.asarray(n, dtype=float)
    return np.stack([tn.cross(row, n) for row in m])


def tangential_divergence(B, face):
    """[grad(B P) : P]_i with P = Id - n otimes n, for constant n.

    On an axis-aligned face P is the identity on the two tangential axes
    and zero on the normal one, so this is the divergence of each row of B
    over the tangential axes.
    """
    t1, t2 = face.tangential_axes
    return pf.as_vec([B[i, t1].diff(t1) + B[i, t2].diff(t2) for i in range(3)])


@dataclass
class TractionSet:
    """Force traction and double force of one formulation on one face.

    Component fields are stored as polynomials on the whole box; restrict
    to the face (or evaluate at face points) to use them.
    """

    face: Face
    formulation: str
    traction: object
    double_force: object
    orientation: str = "energetic"
    notes: dict = field(default_factory=dict)

    def double_force_normal_component(self):
        """Must vanish: the double force is tangential by construction."""
        comp = tn.inner_vec(self.double_force, self.face.normal)
        return self.face.restrict(comp).max_abs_coeff()


def _route(state: StressState, face: Face, formulation, orientation):
    """T, B and the recorded orientation of one route on one face; T as a
    function of no arguments, so that readers of B alone do not form it."""
    pf._choice(formulation, _ROUTES, "formulation")
    pf._choice(orientation, _ORIENTATIONS, "orientation")
    n = face.normal
    if formulation == "curl":
        B = tn.sym(surface_moment_matrix(state.m_curl, n))
        return (lambda: state.total_curl), B, "energetic"
    sign = 1.0 if orientation == "energetic" else -1.0
    B = tn.anti(tn.matvec(state.m_axl, n)) * (0.5 * sign)
    return (lambda: state.total_axl), B, orientation


def _double_force(state, face, formulation, orientation="energetic"):
    """g = B.n, without the force traction."""
    return tn.matvec(_route(state, face, formulation, orientation)[1], face.normal)


def _traction_set(state, face, formulation, orientation):
    """t = T.n - grad(B P) : P and g = B.n."""
    T, B, orientation = _route(state, face, formulation, orientation)
    n = face.normal
    t = tn.matvec(T(), n) - tangential_divergence(B, face)
    return TractionSet(face, formulation, t, tn.matvec(B, n), orientation)


def curl_double_force(state: StressState, face: Face):
    """Curl-route double force g = (sym M).n, without the force traction."""
    return _double_force(state, face, "curl")


@np.errstate(over="ignore", invalid="ignore")
def traction_curl_form(state: StressState, face: Face):
    """t = (sigma + tau).n - grad[(sym M)(Id-nxn)]:(Id-nxn), g = (sym M).n."""
    return _traction_set(state, face, "curl", "energetic")


@np.errstate(over="ignore", invalid="ignore")
def traction_axl_form(state: StressState, face: Face, orientation="appendix"):
    """t = (sigma - tau).n -+ (1/2) grad[anti(m.n) P]:P, g = +-(1/2) (m.n) x n."""
    return _traction_set(state, face, "axl", orientation)


@np.errstate(over="ignore", invalid="ignore")
def erroneous_mindlin_tiersten(state: StressState, face: Face):
    """Historical mis-split t = (sigma - tau).n - (1/2) n x grad<n, sym(m).n>.

    Kept as a labeled foil: it disagrees with both correct splits on fields
    whose moment stress varies along the face.
    """
    n = face.normal
    scalar = tn.inner_vec(tn.matvec(tn.sym(state.m_axl), n), n)
    corr = tn.cross(n, pf.grad(scalar))
    t = tn.matvec(state.total_axl, n) - corr * 0.5
    return TractionSet(face, "axl-mindlin-tiersten", t, pf.zero_vec(), notes={"erroneous": True})


@np.errstate(over="ignore", invalid="ignore")
def compare_double_forces(state: StressState, face: Face):
    """Curl-route double force against both orientations of the axl route."""
    g = {"curl": curl_double_force(state, face),
         **{f"axl-{o}": _double_force(state, face, "axl", o) for o in _ORIENTATIONS}}
    agree, oppose = (pf.max_abs_coeff([face.restrict(p) for p in vec])
                     for vec in (g["curl"] - g["axl-energetic"], g["curl"] + g["axl-appendix"]))
    return {**g, "curl-vs-energetic": agree, "curl-plus-appendix": oppose}


# --- face work ----------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def boundary_virtual_work(state, face, test, formulation="curl",
                          orientation="energetic"):
    """Exact face work: traction term, double-force term, total."""
    ts = _traction_set(state, face, formulation, orientation)
    dn = tn.matvec(_state(test).jacobian, face.normal)
    traction_term = face.integrate(tn.inner_vec(ts.traction, test))
    double_term = face.integrate(tn.inner_vec(ts.double_force, dn))
    return {
        "formulation": formulation,
        "orientation": ts.orientation,
        "traction_term": traction_term,
        "double_force_term": double_term,
        "total": traction_term + double_term,
    }


@np.errstate(over="ignore", invalid="ignore")
def face_work_comparison(state, face, test):
    """Totals under the energetic split against termwise values as printed.

    Totals from both formulations agree for test fields supported inside
    the face. Termwise values computed with the appendix orientation show
    the mismatch of the individual terms. The three works read one J of test.
    """
    with _derived_fields(test):
        curl = boundary_virtual_work(state, face, test, "curl")
        axl_en = boundary_virtual_work(state, face, test, "axl", "energetic")
        axl_ap = boundary_virtual_work(state, face, test, "axl", "appendix")
    return {
        "curl": curl,
        "axl-energetic": axl_en,
        "axl-appendix": axl_ap,
        "total_gap": abs(curl["total"] - axl_en["total"]),
        "termwise_double_force_gap": abs(
            curl["double_force_term"] - axl_ap["double_force_term"]
        ),
        "termwise_traction_gap": abs(
            curl["traction_term"] - axl_ap["traction_term"]
        ),
    }


# --- unsplit pairings and volume consistency --------------------------------


@np.errstate(over="ignore", invalid="ignore")
def unsplit_face_work(state, face, test, formulation="curl"):
    """Raw boundary pairing (T.n).v + B : grad v before the tangential split,
    with the energetic B of the route, integrated exactly."""
    T, B, _ = _route(state, face, formulation, "energetic")
    force = tn.inner_vec(tn.matvec(T(), face.normal), test)
    return face.integrate(force + tn.inner(B, _state(test).jacobian))


@np.errstate(over="ignore", invalid="ignore")
def closed_boundary_work(state, test, formulation="curl"):
    """Unsplit pairing summed over all six faces, from one J of test; route
    independent."""
    with _derived_fields(test):
        return sum(unsplit_face_work(state, face, test, formulation) for face in ALL_FACES)


@np.errstate(over="ignore", invalid="ignore")
def volume_virtual_work(state, test):
    """Volume side of the same identity:

    integral of <sigma, sym grad v> + <m, (1/2) grad curl v> + <Div total, v>.
    """
    s = _state(test)
    a = tn.inner(state.sigma, tn.sym(s.jacobian))
    kt = s.grad_curl * 0.5
    b = tn.inner(state.m_axl, kt)
    c = tn.inner_vec(pf.mat_div(state.total_curl), test)
    return (a + b + c).integrate()


# --- helpers for tests and reports -------------------------------------------


def face_bump(face: Face, direction, cap=14):
    """Test field supported inside one face with unit value of the axial factor.

    The tangential profile (s(1-s)t(1-t))^2 vanishes to second order on the
    face edges; the axial factor equals one on the face and makes the
    normal derivative of the field nonzero there.
    """
    t1, t2 = face.tangential_axes
    s = pf.Poly3.variable(t1, cap)
    t = pf.Poly3.variable(t2, cap)
    prof = (s * (1.0 - s) * t * (1.0 - t)) ** 2
    a = pf.Poly3.variable(face.axis, cap)
    axial = a if face.value == 1.0 else (1.0 - a)
    comps = [pf.Poly3.zero(cap)] * 3
    comps[pf._axis(direction)] = axial * prof
    return pf.as_vec(comps)


def face_quadrature(face: Face, order=12):
    """Tensor Gauss-Legendre rule mapped to the unit face.

    For pointwise checks on a face; face work is integrated exactly.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    t1, t2 = face.tangential_axes
    pts = np.zeros((order * order, 3))
    pts[:, face.axis] = face.value
    grid1, grid2 = np.meshgrid(x, x, indexing="ij")
    pts[:, t1] = grid1.ravel()
    pts[:, t2] = grid2.ravel()
    wts = np.outer(w, w).ravel()
    return pts, wts


def surface_divergence_residual(face: Face, v):
    """Face integral of the tangential divergence of a tangential field.

    Zero whenever v vanishes on the face edges; validates the tangential
    integration by parts that the traction split relies on.
    """
    t1, t2 = face.tangential_axes
    return face.integrate(v[t1].diff(t1) + v[t2].diff(t2))


def edge_conormal(face: Face, edge_axis: int, edge_value: float):
    """Outward conormal of the face at its edge x[edge_axis] = edge_value in {0, 1}."""
    if not (_is_axis(edge_axis, face.tangential_axes) and _is_end(edge_value)):
        raise ValueError(f"no edge of {face} at axis {edge_axis!r}, value {edge_value!r}: "
                         f"the axis must be one of {face.tangential_axes}, the value 0 or 1")
    nu = np.zeros(3)
    nu[edge_axis] = 1.0 if edge_value == 1.0 else -1.0
    return nu


@np.errstate(over="ignore", invalid="ignore")
def edge_force(state, face: Face, edge_axis: int, edge_value: float,
               formulation="curl", orientation="energetic"):
    """Per-face edge contribution B.nu along one face edge.

    The physical edge force is the sum of this quantity over the two faces
    meeting at the edge.
    """
    nu = edge_conormal(face, edge_axis, edge_value)
    vec = tn.matvec(_route(state, face, formulation, orientation)[1], nu)
    return pf.as_vec([face.restrict(p).restrict(edge_axis, edge_value) for p in vec])
