"""Curvature energy densities for second-gradient and couple stress models.

Every density here maps an exact polynomial displacement field to an exact
polynomial energy density, so equalities between model families can be
checked coefficient by coefficient instead of pointwise. The couple stress
curvature enters through two routes that are computed independently:

  * rotation gradient  grad(axl(skw(grad u))) = (1/2) grad(curl u)
  * strain curl        Curl(sym(grad u)), taken row by row

The two are transposes of each other on gradient fields, which is what
makes the five classical writings of the couple stress density coincide.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import polyfield as pf
from . import tensors as tn


@dataclass(frozen=True)
class Material:
    """Isotropic material constants.

    mu, lam are the Lame constants, ell the characteristic length, and
    alpha1, alpha2 the dimensionless curvature weights. The curvature
    prefactor used throughout is mu * ell**2.
    """

    mu: float = 1.0
    lam: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 1.0
    ell: float = 1.0

    @property
    def kappa(self):
        """Bulk modulus (2 mu + 3 lam) / 3."""
        return (2.0 * self.mu + 3.0 * self.lam) / 3.0

    @property
    def curvature_scale(self):
        return self.mu * self.ell**2

    def validate_wellposed(self):
        """Raise ValueError unless the energy is coercive.

        Requires mu > 0, 3 lam + 2 mu > 0, alpha1 > 0, alpha2 >= 0.
        """
        problems = []
        if not self.mu > 0:
            problems.append(f"mu = {self.mu} must be positive")
        if not 3 * self.lam + 2 * self.mu > 0:
            problems.append(f"3 lam + 2 mu = {3 * self.lam + 2 * self.mu} must be positive")
        if not self.alpha1 > 0:
            problems.append(f"alpha1 = {self.alpha1} must be positive")
        if not self.alpha2 >= 0:
            problems.append(f"alpha2 = {self.alpha2} must be nonnegative")
        if problems:
            raise ValueError("; ".join(problems))
        return self

    def with_alphas(self, alpha1, alpha2):
        return replace(self, alpha1=alpha1, alpha2=alpha2)


# --- curvature measures --------------------------------------------------


def rotation_gradient(u):
    """k = grad(axl(skw(grad u))), the gradient of the continuum rotation."""
    return pf.jac(tn.axl(tn.skw(pf.jac(u))))


def strain_curl(u):
    """k = Curl(sym(grad u)), row-wise curl of the strain."""
    return pf.mat_curl(tn.sym(pf.jac(u)))


# --- local elastic density -------------------------------------------------


def linear_elastic_density(u, mat):
    """mu |sym grad u|^2 + (lam/2) tr(grad u)^2."""
    J = pf.jac(u)
    t = tn.trace(J)
    return tn.norm_sq(tn.sym(J)) * mat.mu + t * t * (mat.lam / 2.0)


def linear_elastic_density_volumetric(u, mat):
    """Same energy split as mu |dev sym grad u|^2 + (kappa/2) tr(grad u)^2."""
    J = pf.jac(u)
    t = tn.trace(J)
    return tn.norm_sq(tn.devsym(J)) * mat.mu + t * t * (mat.kappa / 2.0)


# --- couple stress curvature densities ------------------------------------


def curvature_quadratic(k, mat, w_dev=None, w_skw=None):
    """mu ell^2 [ w_dev |dev sym k|^2 + w_skw |skw k|^2 ] for a matrix field k."""
    if w_dev is None:
        w_dev = mat.alpha1
    if w_skw is None:
        w_skw = mat.alpha2
    dens = tn.norm_sq(tn.devsym(k)) * w_dev + tn.norm_sq(tn.skw(k)) * w_skw
    return dens * mat.curvature_scale


def indeterminate_density(u, mat):
    """Couple stress density mu ell^2 [a1 |dev sym k|^2 + a2 |skw k|^2], k = Curl(sym grad u).

    On gradient fields the curvature is trace free, so sym and dev sym
    coincide and all five classical writings agree with this one.
    """
    return curvature_quadratic(strain_curl(u), mat)


def five_form_densities(u, mat):
    """The five classical writings of the couple stress curvature density.

    Keys name the route: via grad(curl u) with sym or dev sym split, via the
    rotation gradient, and via the strain curl with sym or dev sym split.
    All five are computed from scratch and must agree coefficientwise.
    """
    s = mat.curvature_scale
    a1, a2 = mat.alpha1, mat.alpha2
    gc = pf.jac(pf.curl(u))
    kt = rotation_gradient(u)
    kh = strain_curl(u)
    return {
        "gradcurl-sym": (
            tn.norm_sq(tn.sym(gc)) * (a1 / 4.0) + tn.norm_sq(tn.skw(gc)) * (a2 / 4.0)
        )
        * s,
        "rotation-gradient": (
            tn.norm_sq(tn.sym(kt)) * a1 + tn.norm_sq(tn.skw(kt)) * a2
        )
        * s,
        "gradcurl-dev": (
            tn.norm_sq(tn.devsym(gc)) * (a1 / 4.0) + tn.norm_sq(tn.skw(gc)) * (a2 / 4.0)
        )
        * s,
        "strain-curl": (
            tn.norm_sq(tn.sym(kh)) * a1 + tn.norm_sq(tn.skw(kh)) * a2
        )
        * s,
        "strain-curl-dev": (
            tn.norm_sq(tn.devsym(kh)) * a1 + tn.norm_sq(tn.skw(kh)) * a2
        )
        * s,
    }


def equivalence_report(u, mat):
    """Max pairwise coefficient difference between the five densities."""
    forms = five_form_densities(u, mat)
    names = sorted(forms)
    pairwise = {}
    worst = 0.0
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            d = (forms[names[a]] - forms[names[b]]).max_abs_coeff()
            pairwise[f"{names[a]} vs {names[b]}"] = d
            worst = float(np.maximum(worst, d))  # keeps a NaN difference
    return {"pairwise": pairwise, "max_difference": worst}


def modified_conformal_density(u, mat):
    """mu ell^2 alpha1 |dev sym Curl(sym grad u)|^2; blind to conformal maps."""
    kh = strain_curl(u)
    return tn.norm_sq(tn.devsym(kh)) * (mat.alpha1 * mat.curvature_scale)


def hadjesfandiari_dargush_density(u, mat):
    """mu ell^2 alpha2 |skw Curl(sym grad u)|^2, the skew-only curvature energy."""
    kh = strain_curl(u)
    return tn.norm_sq(tn.skw(kh)) * (mat.alpha2 * mat.curvature_scale)


def grioli_density(u, mat, alpha1=None, eta_prime=0.0):
    """mu ell^2 [ (alpha1/4) |grad curl u|^2 + (eta'/4) tr((grad curl u)^2) ]."""
    if alpha1 is None:
        alpha1 = mat.alpha1
    gc = pf.jac(pf.curl(u))
    sq = tn.trace(tn.matmul(gc, gc))
    dens = tn.norm_sq(gc) * (alpha1 / 4.0) + sq * (eta_prime / 4.0)
    return dens * mat.curvature_scale


def grioli_to_indeterminate(alpha1, eta_prime):
    """Weight map under which the Grioli form equals the couple stress form.

    tr(X^2) = |dev sym X|^2 - |skw X|^2 for trace-free X, and the factor
    1/4 is absorbed by |grad curl u| = 2 |k|.
    """
    return alpha1 + eta_prime, alpha1 - eta_prime


# --- strain gradient zoo ---------------------------------------------------


def _eta(u):
    """Mindlin form I tensor eta[i,j,k] = u_k,ij."""
    T = pf.second_gradient(u)
    out = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i, j, k] = T[k, i, j]
    return out


def _eta_tilde(u):
    """Mindlin form II tensor eta~[i,j,k] = (sym grad u)_jk,i."""
    E = pf.strain_gradient(u)
    out = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i, j, k] = E[j, k, i]
    return out


def _eta_sym(u):
    """Fully symmetric part eta^S[i,j,k] = (u_k,ij + u_i,jk + u_j,ki)/3."""
    T = pf.second_gradient(u)
    out = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i, j, k] = (T[k, i, j] + T[i, j, k] + T[j, k, i]) / 3.0
    return out


def _mindlin_iii_curvature(u):
    """k[i,j] = (1/2) EPS[j,l,k] u_k,li, the form III rotation curvature."""
    T = pf.second_gradient(u)
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            acc = pf.Poly3.zero()
            for l in range(3):
                for k in range(3):
                    e = tn.EPS[j, l, k]
                    if e:
                        acc = acc + T[k, l, i] * (0.5 * e)
            out[i, j] = acc
    return out


def mindlin_i_density(u, mat, a=(1.0, 1.0, 1.0, 1.0, 1.0)):
    """Mindlin form I in eta[i,j,k] = u_k,ij with weights a1..a5."""
    a1, a2, a3, a4, a5 = a
    eta = _eta(u)
    t2 = pf.Poly3.zero()
    t3 = pf.Poly3.zero()
    v_kii = pf.as_vec([sum((eta[k, i, i] for i in range(3)), pf.Poly3.zero()) for k in range(3)])
    v_jji = pf.as_vec([sum((eta[j, j, i] for j in range(3)), pf.Poly3.zero()) for i in range(3)])
    v_iik = v_jji  # eta[i,i,k] summed over i
    t1 = tn.inner_vec(v_kii, v_kii)
    t4 = tn.inner_vec(v_jji, v_jji)
    t5 = tn.inner_vec(v_iik, v_kii)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t2 = t2 + eta[i, j, k] * eta[i, j, k]
                t3 = t3 + eta[i, j, k] * eta[j, k, i]
    dens = t1 * a1 + t2 * a2 + t3 * a3 + t4 * a4 + t5 * a5
    return dens * mat.curvature_scale


def mindlin_ii_density(u, mat, a=(1.0, 1.0, 1.0, 1.0, 1.0)):
    """Mindlin form II in eta~[i,j,k] = strain_jk,i with weights a1..a5."""
    a1, a2, a3, a4, a5 = a
    et = _eta_tilde(u)
    v_iik = pf.as_vec([sum((et[i, i, k] for i in range(3)), pf.Poly3.zero()) for k in range(3)])
    v_kjj = pf.as_vec([sum((et[k, j, j] for j in range(3)), pf.Poly3.zero()) for k in range(3)])
    t1 = tn.inner_vec(v_iik, v_kjj)
    t2 = tn.inner_vec(v_kjj, v_kjj)
    t3 = tn.inner_vec(v_iik, v_iik)
    t4 = pf.Poly3.zero()
    t5 = pf.Poly3.zero()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t4 = t4 + et[i, j, k] * et[i, j, k]
                t5 = t5 + et[i, j, k] * et[k, j, i]
    dens = t1 * a1 + t2 * a2 + t3 * a3 + t4 * a4 + t5 * a5
    return dens * mat.curvature_scale


def mindlin_iii_density(u, mat, a=(1.0, 1.0, 1.0, 1.0, 1.0)):
    """Mindlin form III: rotation curvature plus fully symmetric part."""
    a1, a2, a3, a4, a5 = a
    kc = _mindlin_iii_curvature(u)
    es = _eta_sym(u)
    t1 = tn.norm_sq(kc)
    t2 = tn.inner(kc, tn.transpose(kc))
    v = pf.as_vec([sum((es[i, i, j] for i in range(3)), pf.Poly3.zero()) for j in range(3)])
    t3 = tn.inner_vec(v, v)
    t4 = pf.Poly3.zero()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t4 = t4 + es[i, j, k] * es[i, j, k]
    v_kll = pf.as_vec([sum((es[k, l, l] for l in range(3)), pf.Poly3.zero()) for k in range(3)])
    t5 = pf.Poly3.zero()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                e = tn.EPS[i, j, k]
                if e:
                    t5 = t5 + kc[i, j] * v_kll[k] * e
    dens = t1 * a1 + t2 * a2 + t3 * a3 + t4 * a4 + t5 * a5
    return dens * mat.curvature_scale


def lam_density(u, mat, a=(1.0, 1.0, 1.0)):
    """Dilatation gradient, traceless symmetric part, and sym grad curl split."""
    a0, a1, a2 = a
    gd = pf.grad(pf.div(u))
    es = _eta_sym(u)
    v = pf.as_vec([sum((es[m, m, k] for m in range(3)), pf.Poly3.zero()) for k in range(3)])
    hat = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                corr = pf.Poly3.zero()
                if i == j:
                    corr = corr + v[k]
                if j == k:
                    corr = corr + v[i]
                if k == i:
                    corr = corr + v[j]
                hat[i, j, k] = es[i, j, k] - corr / 5.0
    t1 = pf.Poly3.zero()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t1 = t1 + hat[i, j, k] * hat[i, j, k]
    sgc = tn.sym(pf.jac(pf.curl(u)))
    dens = tn.norm_sq_vec(gd) * a0 + t1 * a1 + tn.norm_sq(sgc) * a2
    return dens * mat.curvature_scale


def aifantis_lazar_density(u, mat, a=(1.0, 1.0)):
    """Gradient of dilatation plus full strain gradient."""
    a0, a1 = a
    gd = pf.grad(pf.div(u))
    E = pf.strain_gradient(u)
    t1 = pf.Poly3.zero()
    for i in range(3):
        for k in range(3):
            for l in range(3):
                t1 = t1 + E[i, k, l] * E[i, k, l]
    dens = tn.norm_sq_vec(gd) * a0 + t1 * a1
    return dens * mat.curvature_scale


def sharma_kleinert_density(u, mat, a=(1.0, 1.0)):
    """Gradient of dilatation plus gradient of rotation vector."""
    a0, a1 = a
    gd = pf.grad(pf.div(u))
    gc = pf.jac(pf.curl(u))
    dens = tn.norm_sq_vec(gd) * a0 + tn.norm_sq(gc) * a1
    return dens * mat.curvature_scale


# --- registry for reporting ------------------------------------------------


def _registry_entry(fn, needs_coeffs=None):
    return {"fn": fn, "coeffs": needs_coeffs or {}}


MODEL_REGISTRY = {
    "linear-elastic": _registry_entry(linear_elastic_density),
    "indeterminate": _registry_entry(indeterminate_density),
    "modified-conformal": _registry_entry(modified_conformal_density),
    "hadjesfandiari-dargush": _registry_entry(hadjesfandiari_dargush_density),
    "grioli": _registry_entry(grioli_density, {"alpha1": None, "eta_prime": 0.0}),
    "mindlin-i": _registry_entry(mindlin_i_density, {"a": (1.0, 1.0, 1.0, 1.0, 1.0)}),
    "mindlin-ii": _registry_entry(mindlin_ii_density, {"a": (1.0, 1.0, 1.0, 1.0, 1.0)}),
    "mindlin-iii": _registry_entry(mindlin_iii_density, {"a": (1.0, 1.0, 1.0, 1.0, 1.0)}),
    "lam": _registry_entry(lam_density, {"a": (1.0, 1.0, 1.0)}),
    "aifantis-lazar": _registry_entry(aifantis_lazar_density, {"a": (1.0, 1.0)}),
    "sharma-kleinert": _registry_entry(sharma_kleinert_density, {"a": (1.0, 1.0)}),
}


def evaluate_model(name, u, mat, coeffs=None):
    """Return the density polynomial and its box integral for one model."""
    entry = MODEL_REGISTRY[name]
    kwargs = dict(entry["coeffs"])
    if coeffs:
        kwargs.update(coeffs)
    dens = entry["fn"](u, mat, **kwargs) if kwargs else entry["fn"](u, mat)
    return dens, dens.integrate()
