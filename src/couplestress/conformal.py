"""Quadratic conformal maps and the energies that cannot see them.

phi(x) = <w,x> x - (1/2)|x|^2 w + (p Id + A) x + b with A skew and w the
axial vector of a skew matrix W. These maps exhaust the kernel of the
trace-free symmetric curvature: dev sym of their strain curl vanishes
identically, while the skew part stays at the constant W. Energies built
on the dev sym part alone are therefore blind to an infinite dimensional
family of deformations.

`relations_report` reads one state of phi's derived fields;
`invariance_report` and `elastic_density_identity_gap` open a call scope
around phi, so they derive each field of phi once (`energies._derived_fields`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import energies as en
from . import polyfield as pf
from . import tensors as tn
from .energies import (
    MODEL_REGISTRY,
    Material,
    evaluate_model,
)


@dataclass(frozen=True)
class ConformalParameters:
    """Numeric data of one conformal map."""

    W: np.ndarray  # skew 3x3, curvature direction
    p: float  # uniform scaling rate
    A: np.ndarray  # skew 3x3, infinitesimal rotation
    b: np.ndarray  # translation

    @property
    def w(self):
        return tn.axl(self.W)


def _require_skew(M, name):
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3) or np.max(np.abs(M + M.T)) > 1e-12:
        raise ValueError(f"{name} must be a skew 3x3 matrix")
    return M


def conformal_map(W, p=0.0, A=None, b=None):
    """Exact polynomial field of the conformal map with the given data."""
    W = _require_skew(W, "W")
    A = np.zeros((3, 3)) if A is None else _require_skew(A, "A")
    b = np.zeros(3) if b is None else np.asarray(b, dtype=float)
    w = tn.axl(W)
    X = pf.as_vec([pf.Poly3.variable(ax) for ax in range(3)])
    wdotx = tn.inner_vec(X, w)
    half_norm = tn.norm_sq_vec(X) * 0.5
    comps = [wdotx * X[i] - half_norm * w[i] + X[i] * p + tn.inner_vec(X, A[i]) + float(b[i])
             for i in range(3)]
    return pf.as_vec(comps), ConformalParameters(W, float(p), A, b)


def random_conformal(rng, scale=1.0):
    W = tn.anti(rng.uniform(-scale, scale, 3))
    A = tn.anti(rng.uniform(-scale, scale, 3))
    p = float(rng.uniform(-scale, scale))
    b = rng.uniform(-scale, scale, 3)
    return conformal_map(W, p, A, b)


# --- structural relations ----------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def relations_report(phi, params):
    """Max deviation of every closed-form property of a conformal map, from one
    state of phi's derived fields (the open scope's, if phi is registered)."""
    W, w, p = params.W, params.w, params.p
    s = en._state(phi)
    J = s.jacobian
    X = pf.as_vec([pf.Poly3.variable(ax) for ax in range(3)])
    wdotx_p = tn.inner_vec(X, w) + p

    # grad phi = (<w,x> + p) Id + anti(W x) + A
    expected = tn.anti(pf.as_vec([tn.inner_vec(X, row) for row in W])) + params.A
    np.fill_diagonal(expected, expected.diagonal() + wdotx_p)
    grad_gap = pf.max_abs_coeff_mat(J - expected)

    div_gap = (s.div - wdotx_p * 3.0).max_abs_coeff()
    devsym_gap = pf.max_abs_coeff_mat(tn.devsym(J))

    gc = s.grad_curl
    gc_gap = pf.max_abs_coeff_mat(gc - 2.0 * W)
    sym_gc_gap = pf.max_abs_coeff_mat(tn.sym(gc))

    kh = s.k_curl
    skw_density = tn.norm_sq(tn.skw(kh))
    skw_density_gap = (skw_density - float(np.sum(W * W))).max_abs_coeff()

    gd = s.grad_div
    dil_density_gap = (tn.norm_sq_vec(gd) - 9.0 * float(w @ w)).max_abs_coeff()

    return {
        "grad-closed-form": grad_gap,
        "div-closed-form": div_gap,
        "devsym-grad-zero": devsym_gap,
        "grad-curl-constant": gc_gap,
        "sym-grad-curl-zero": sym_gc_gap,
        "skw-curvature-density-constant": skw_density_gap,
        "dilatation-gradient-density": dil_density_gap,
    }


def elastic_density_identity_gap(phi, mat):
    """W_lin on a conformal map collapses to (kappa/2) tr(grad phi)^2; both sides
    read one J of phi."""
    with en._derived_fields(phi):
        t = tn.trace(en._state(phi).jacobian)
        return (en.linear_elastic_density(phi, mat) - t * t * (mat.kappa / 2.0)).max_abs_coeff()


# --- energy classification ---------------------------------------------------


def classify_density(dens, tol=1e-12):
    """'invariant' if identically zero, 'constant' if degree <= 0, else 'sensitive';
    'non-finite', which no classification accepts, if a coefficient is inf or NaN."""
    peak = dens.max_abs_coeff()
    if not np.isfinite(peak):
        return "non-finite"
    if peak <= tol:
        return "invariant"
    reduced = pf.Poly3(
        {k: v for k, v in dens.coef.items() if abs(v) > tol}, cap=dens.cap
    )
    if reduced.degree() <= 0:
        return "constant"
    return "sensitive"


def invariance_report(phi, params, mat, models=None):
    """Classify each registered energy density on one conformal map."""
    if models is None:
        models = sorted(MODEL_REGISTRY)
    rows = []
    with en._derived_fields(phi):
        for name in models:
            dens, total = evaluate_model(name, phi, mat)
            rows.append(
                {
                    "model": name,
                    "classification": classify_density(dens),
                    "density_degree": dens.degree(),
                    "box_energy": total,
                }
            )
    return rows
