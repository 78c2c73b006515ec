"""Force stress and couple stress fields for both curvature routes.

Both constitutive maps are the conjugate rule of `energies` on its weighted
parts: the force stress on grad u with the weights (2 mu, lam), the couple
stress on either curvature with the weights 2 mu ell^2 (alpha1, alpha2).

The same displacement field feeds two bookkeeping schemes:

  * axl route: moment stress from the rotation gradient, with a skew
    symmetric correction tau = (1/2) anti(Div m) to the force stress;
  * curl route: moment stress from the strain curl, with a symmetric
    correction tau = sym Curl m.

Total force stresses differ (sigma - tau_axl vs sigma + tau_curl) yet both
satisfy the same balance equation: Div of either total is the same vector
field, equivalently Div(tau_curl + tau_axl) vanishes identically.

A `StressState` forms each field the first time it is read, all of them
from the J of u's derived-field state (`energies._state`), so a reader of
one route forms none of the other route's fields.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from . import polyfield as pf
from . import tensors as tn
from .energies import (_ROUTES, CURVATURE_PARTS, ELASTIC_PARTS, Material, _state, conjugate,
                       curvature_from_jacobian, curvature_weights, elastic_weights)


def couple_stress(k, mat):
    """Constitutive map mu ell^2 (2 a1 dev sym k + 2 a2 skw k)."""
    return conjugate(k, curvature_weights(mat), CURVATURE_PARTS)


def force_stress(u, mat):
    """Classical stress 2 mu sym(grad u) + lam tr(grad u) Id."""
    return _force_stress(_state(u).jacobian, mat)


def _force_stress(J, mat):
    """force_stress from J = grad u."""
    return conjugate(J, elastic_weights(mat)[1], ELASTIC_PARTS)


class StressState:
    """All stress fields of one displacement field under one material.

    Each field is formed on its first read and kept; every one comes from
    the one Jacobian `jacobian` = grad u, read from the state of u.
    """

    def __init__(self, material: Material, u):
        self.material = material
        self.u = u

    @cached_property
    def jacobian(self):
        return _state(self.u).jacobian

    @cached_property
    def k_axl(self):
        return curvature_from_jacobian(self.jacobian, "axl")

    @cached_property
    def k_curl(self):
        return curvature_from_jacobian(self.jacobian, "curl")

    @cached_property
    def sigma(self):
        return _force_stress(self.jacobian, self.material)

    @cached_property
    def m_axl(self):
        return couple_stress(self.k_axl, self.material)

    @cached_property
    def m_curl(self):
        return couple_stress(self.k_curl, self.material)

    @cached_property
    def tau_axl(self):
        return tn.anti(pf.mat_div(self.m_axl)) * 0.5

    @cached_property
    def tau_curl(self):
        return tn.sym(pf.mat_curl(self.m_curl))

    @cached_property
    def total_axl(self):
        """sigma - tau_axl, the total force stress of the axl route."""
        return self.sigma - self.tau_axl

    @cached_property
    def total_curl(self):
        """sigma + tau_curl, the total force stress of the curl route."""
        return self.sigma + self.tau_curl


def assemble(u, mat):
    """The stress state of u under mat; its fields are formed when first read."""
    return StressState(mat, u)


@np.errstate(over="ignore", invalid="ignore")
def equilibrium_residual(state, f=None, formulation="curl"):
    """Div(total stress) + f as an exact polynomial vector field."""
    curl = pf._choice(formulation, _ROUTES, "formulation") == "curl"
    r = pf.mat_div(state.total_curl if curl else state.total_axl)
    if f is not None:
        r = r + f
    return r


@np.errstate(over="ignore", invalid="ignore")
def body_force_for(u, mat, formulation="curl"):
    """Load under which u satisfies the balance equation exactly."""
    state = assemble(u, mat)
    r = equilibrium_residual(state, formulation=formulation)
    return r * -1.0


@np.errstate(over="ignore", invalid="ignore")
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


@np.errstate(over="ignore", invalid="ignore")
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
