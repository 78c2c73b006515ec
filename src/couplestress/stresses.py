"""Force stress and couple stress fields for both curvature routes.

The same displacement field feeds two bookkeeping schemes:

  * axl route: moment stress from the rotation gradient, with a skew
    symmetric correction tau = (1/2) anti(Div m) to the force stress;
  * curl route: moment stress from the strain curl, with a symmetric
    correction tau = sym Curl m.

Total force stresses differ (sigma - tau_axl vs sigma + tau_curl) yet both
satisfy the same balance equation: Div of either total is the same vector
field, equivalently Div(tau_curl + tau_axl) vanishes identically.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import polyfield as pf
from . import tensors as tn
from .energies import Material, rotation_gradient, strain_curl


def couple_stress(k, mat):
    """Constitutive map mu ell^2 (2 a1 dev sym k + 2 a2 skw k)."""
    s = mat.curvature_scale
    return tn.devsym(k) * (2.0 * mat.alpha1 * s) + tn.skw(k) * (2.0 * mat.alpha2 * s)


def force_stress(u, mat):
    """Classical stress 2 mu sym(grad u) + lam tr(grad u) Id."""
    J = pf.jac(u)
    iso = tn.identity_like(J) * (tn.trace(J) * mat.lam)
    return tn.sym(J) * (2.0 * mat.mu) + iso


@dataclass
class StressState:
    """All stress fields of one displacement field under one material."""

    material: Material
    u: object
    k_axl: object
    k_curl: object
    sigma: object
    m_axl: object
    m_curl: object
    tau_axl: object
    tau_curl: object

    @property
    def total_axl(self):
        """sigma - tau_axl, the total force stress of the axl route."""
        return self.sigma - self.tau_axl

    @property
    def total_curl(self):
        """sigma + tau_curl, the total force stress of the curl route."""
        return self.sigma + self.tau_curl


def assemble(u, mat):
    k_axl = rotation_gradient(u)
    k_curl = strain_curl(u)
    m_axl = couple_stress(k_axl, mat)
    m_curl = couple_stress(k_curl, mat)
    tau_axl = tn.anti(pf.mat_div(m_axl)) * 0.5
    tau_curl = tn.sym(pf.mat_curl(m_curl))
    return StressState(
        material=mat,
        u=u,
        k_axl=k_axl,
        k_curl=k_curl,
        sigma=force_stress(u, mat),
        m_axl=m_axl,
        m_curl=m_curl,
        tau_axl=tau_axl,
        tau_curl=tau_curl,
    )


def equilibrium_residual(state, f=None, formulation="curl"):
    """Div(total stress) + f as an exact polynomial vector field."""
    if formulation == "curl":
        total = state.total_curl
    elif formulation == "axl":
        total = state.total_axl
    else:
        raise ValueError(f"unknown formulation {formulation!r}")
    r = pf.mat_div(total)
    if f is not None:
        r = r + f
    return r


def body_force_for(u, mat, formulation="curl"):
    """Load under which u satisfies the balance equation exactly."""
    state = assemble(u, mat)
    r = equilibrium_residual(state, formulation=formulation)
    return r * -1.0


def divergence_sum(state):
    """Div(tau_curl + tau_axl); identically zero for every field."""
    return pf.mat_div(state.tau_curl + state.tau_axl)


def divergence_difference(state):
    """Div(tau_curl - tau_axl); nonzero in general, kept as a witness."""
    return pf.mat_div(state.tau_curl - state.tau_axl)


def moment_symmetric_gap(state):
    """sym m_axl - sym m_curl; vanishes for every field and material."""
    return tn.sym(state.m_axl) - tn.sym(state.m_curl)


def moment_transpose_gap(state):
    """m_curl - m_axl^T; vanishes because the constitutive map commutes
    with transposition and the curvatures are mutual transposes."""
    return state.m_curl - tn.transpose(state.m_axl)


def structure_report(state):
    """Max coefficient magnitudes of every structural invariant."""
    tau_a = state.tau_axl
    tau_c = state.tau_curl
    return {
        "tau_axl_antisymmetric": pf.max_abs_coeff_mat(tau_a + tn.transpose(tau_a)),
        "tau_curl_symmetric": pf.max_abs_coeff_mat(tau_c - tn.transpose(tau_c)),
        "divergence_sum": pf.max_abs_coeff_vec(divergence_sum(state)),
        "equilibria_match": pf.max_abs_coeff_vec(
            pf.mat_div(state.total_curl) - pf.mat_div(state.total_axl)
        ),
        "sym_moment_gap": pf.max_abs_coeff_mat(moment_symmetric_gap(state)),
        "moment_transpose_gap": pf.max_abs_coeff_mat(moment_transpose_gap(state)),
        "m_curl_traceless": tn.trace(state.m_curl).max_abs_coeff(),
    }
