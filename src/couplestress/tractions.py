"""Boundary tractions and double forces on faces of the unit box.

Both stress routes split the boundary virtual work into a force traction
paired with the test field and a tangential double force paired with the
normal derivative of the test field. The splits are not pointwise equal:
their integrands differ by tangential divergences, so individual terms
disagree while totals agree for test fields supported inside a face.

The axl route carries an orientation switch. "energetic" uses the spin
convention anti(v).w = v x w throughout, under which its double force
coincides pointwise with the curl-route one. "appendix" uses the opposite
spin sign, which is the form the split is usually quoted in; it flips the
double force and the tangential correction of the force traction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import polyfield as pf
from . import tensors as tn
from .stresses import StressState

_ORIENTATIONS = ("energetic", "appendix")


@dataclass(frozen=True)
class Face:
    """One axis-aligned face of the unit box."""

    axis: int
    value: float

    def __post_init__(self):
        if self.axis not in (0, 1, 2) or self.value not in (0.0, 1.0):
            raise ValueError("face must be an axis in {0,1,2} at value 0 or 1")

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
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        row = tn.cross(m[i, :], np.asarray(n, dtype=float))
        for j in range(3):
            out[i, j] = row[j]
    return out


def _mat_times_const(A, C):
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            out[i, j] = sum((A[i, k] * float(C[k, j]) for k in range(3)), pf.Poly3.zero())
    return out


def tangential_divergence(B, face):
    """[grad(B P) : P]_i with P = Id - n otimes n, for constant n."""
    P = projector(face.normal)
    BP = _mat_times_const(B, P)
    comps = []
    for i in range(3):
        acc = pf.Poly3.zero()
        for j in range(3):
            for l in range(3):
                if P[j, l]:
                    acc = acc + BP[i, j].diff(l) * float(P[j, l])
        comps.append(acc)
    return pf.as_vec(comps)


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
        n = self.face.normal
        comp = sum(
            (self.double_force[i] * float(n[i]) for i in range(3)), pf.Poly3.zero()
        )
        return self.face.restrict(comp).max_abs_coeff()


def traction_curl_form(state: StressState, face: Face):
    """t = (sigma + tau).n - grad[(sym M)(Id-nxn)]:(Id-nxn), g = (sym M).n."""
    n = face.normal
    M = surface_moment_matrix(state.m_curl, n)
    symM = tn.sym(M)
    t = tn.matvec(state.total_curl, n) - tangential_divergence(symM, face)
    g = tn.matvec(symM, n)
    return TractionSet(face, "curl", t, g)


def traction_axl_form(state: StressState, face: Face, orientation="appendix"):
    """t = (sigma - tau).n -+ (1/2) grad[anti(m.n) P]:P, g = +-(1/2) (m.n) x n."""
    if orientation not in _ORIENTATIONS:
        raise ValueError(f"orientation must be one of {_ORIENTATIONS}")
    sign = 1.0 if orientation == "energetic" else -1.0
    n = face.normal
    v = tn.matvec(state.m_axl, n)
    corr = tangential_divergence(tn.anti(v), face)
    t = tn.matvec(state.total_axl, n) - corr * (0.5 * sign)
    g = tn.cross(v, n) * (0.5 * sign)
    return TractionSet(face, "axl", t, g, orientation=orientation)


def erroneous_mindlin_tiersten(state: StressState, face: Face):
    """Historical mis-split t = (sigma - tau).n - (1/2) n x grad<n, sym(m).n>.

    Kept as a labeled foil: it disagrees with both correct splits on fields
    whose moment stress varies along the face.
    """
    n = face.normal
    symm = tn.sym(state.m_axl)
    scalar = pf.Poly3.zero()
    for i in range(3):
        for j in range(3):
            if n[i] and n[j]:
                scalar = scalar + symm[i, j] * float(n[i] * n[j])
    corr = tn.cross(n, pf.grad(scalar))
    t = tn.matvec(state.total_axl, n) - corr * 0.5
    return TractionSet(face, "axl-mindlin-tiersten", t, pf.zero_vec(), notes={"erroneous": True})


def compare_double_forces(state: StressState, face: Face):
    """Curl-route double force against both orientations of the axl route."""
    g_curl = traction_curl_form(state, face).double_force
    g_en = traction_axl_form(state, face, "energetic").double_force
    g_ap = traction_axl_form(state, face, "appendix").double_force
    agree = pf.max_abs_coeff_vec(
        pf.as_vec([face.restrict(g_curl[i] - g_en[i]) for i in range(3)])
    )
    oppose = pf.max_abs_coeff_vec(
        pf.as_vec([face.restrict(g_curl[i] + g_ap[i]) for i in range(3)])
    )
    return {
        "curl": g_curl,
        "axl-energetic": g_en,
        "axl-appendix": g_ap,
        "curl-vs-energetic": agree,
        "curl-plus-appendix": oppose,
    }


# --- face quadrature ---------------------------------------------------------


def face_quadrature(face: Face, order=12):
    """Tensor Gauss-Legendre rule mapped to the unit face."""
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


def _face_quad_integral(p, face, pts, wts):
    return float(np.dot(wts, p.eval(pts)))


def boundary_virtual_work(state, face, test, formulation="curl",
                          orientation="energetic", order=12):
    """Gauss-quadrature face work: traction term, double-force term, total."""
    if formulation == "curl":
        ts = traction_curl_form(state, face)
    elif formulation == "axl":
        ts = traction_axl_form(state, face, orientation)
    else:
        raise ValueError(f"unknown formulation {formulation!r}")
    n = face.normal
    dn = tn.matvec(pf.jac(test), n)
    pts, wts = face_quadrature(face, order)
    traction_term = sum(
        _face_quad_integral(ts.traction[i] * test[i], face, pts, wts) for i in range(3)
    )
    double_term = sum(
        _face_quad_integral(ts.double_force[i] * dn[i], face, pts, wts) for i in range(3)
    )
    return {
        "formulation": formulation,
        "orientation": ts.orientation,
        "traction_term": traction_term,
        "double_force_term": double_term,
        "total": traction_term + double_term,
    }


def face_work_comparison(state, face, test, order=12):
    """Totals under the energetic split against termwise values as printed.

    Totals from both formulations agree for test fields supported inside
    the face. Termwise values computed with the appendix orientation show
    the mismatch of the individual terms.
    """
    curl = boundary_virtual_work(state, face, test, "curl", order=order)
    axl_en = boundary_virtual_work(state, face, test, "axl", "energetic", order)
    axl_ap = boundary_virtual_work(state, face, test, "axl", "appendix", order)
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


def unsplit_face_work(state, face, test, formulation="curl"):
    """Raw boundary pairing before the tangential split, integrated exactly."""
    n = face.normal
    J = pf.jac(test)
    if formulation == "curl":
        tvec = tn.matvec(state.total_curl, n)
        M = surface_moment_matrix(state.m_curl, n)
        moment = tn.inner(M, tn.sym(J))
    elif formulation == "axl":
        tvec = tn.matvec(state.total_axl, n)
        v = tn.matvec(state.m_axl, n)
        c = pf.curl(test)
        moment = sum((v[i] * c[i] for i in range(3)), pf.Poly3.zero()) * 0.5
    else:
        raise ValueError(f"unknown formulation {formulation!r}")
    force = sum((tvec[i] * test[i] for i in range(3)), pf.Poly3.zero())
    return face.integrate(force + moment)


def closed_boundary_work(state, test, formulation="curl"):
    """Unsplit pairing summed over all six faces; route independent."""
    return sum(unsplit_face_work(state, face, test, formulation) for face in ALL_FACES)


def volume_virtual_work(state, test):
    """Volume side of the same identity:

    integral of <sigma, sym grad v> + <m, (1/2) grad curl v> + <Div total, v>.
    """
    J = pf.jac(test)
    a = tn.inner(state.sigma, tn.sym(J))
    kt = pf.jac(pf.curl(test)) * 0.5
    b = tn.inner(state.m_axl, kt)
    divt = pf.mat_div(state.total_curl)
    c = sum((divt[i] * test[i] for i in range(3)), pf.Poly3.zero())
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
    comps[direction] = axial * prof
    return pf.as_vec(comps)


def surface_divergence_residual(face: Face, v):
    """Face integral of the tangential divergence of a tangential field.

    Zero whenever v vanishes on the face edges; validates the tangential
    integration by parts that the traction split relies on.
    """
    acc = pf.Poly3.zero()
    for ax in face.tangential_axes:
        acc = acc + v[ax].diff(ax)
    return face.integrate(acc)


def edge_conormal(face: Face, edge_axis: int, edge_value: float):
    nu = np.zeros(3)
    nu[edge_axis] = 1.0 if edge_value == 1.0 else -1.0
    return nu


def edge_force(state, face: Face, edge_axis: int, edge_value: float,
               formulation="curl", orientation="energetic"):
    """Per-face edge contribution [moment matrix].nu along one face edge.

    The physical edge force is the sum of this quantity over the two faces
    meeting at the edge.
    """
    if edge_axis == face.axis:
        raise ValueError("edge axis must be tangential to the face")
    nu = edge_conormal(face, edge_axis, edge_value)
    if formulation == "curl":
        B = tn.sym(surface_moment_matrix(state.m_curl, face.normal))
    elif formulation == "axl":
        sign = 1.0 if orientation == "energetic" else -1.0
        v = tn.matvec(state.m_axl, face.normal)
        B = tn.anti(v) * (0.5 * sign)
    else:
        raise ValueError(f"unknown formulation {formulation!r}")
    vec = tn.matvec(B, nu)
    out = []
    for i in range(3):
        out.append(vec[i].restrict(face.axis, face.value).restrict(edge_axis, edge_value))
    return pf.as_vec(out)
