"""The couple stress law, stated once, and the curvature energies of its relatives.

The law is mu |sym grad u|^2 + (lam/2) tr(grad u)^2 + mu ell^2 (alpha1
|dev sym k|^2 + alpha2 |skw k|^2): the weighted parts (key, projection)
`ELASTIC_PARTS` of grad u and `CURVATURE_PARTS` of the curvature k. Its one
conjugate rule sums w part(X), the trace part giving w tr(X) Id: with the
weights (2 mu, lam) it is the symmetric force stress, with 2 mu ell^2
(alpha1, alpha2) the couple stress of either traction bookkeeping. Stresses,
stiffness, relaxations and the sixth-order lift read these.

Every density weights invariants and sums them left to right by one rule; the
five classical writings are one table. mu ell^2 multiplies each sum, but sits
in the weight of the modified-conformal and Hadjesfandiari-Dargush densities.

Every density here maps an exact polynomial displacement field to an exact
polynomial energy density, so equalities between model families can be
checked coefficient by coefficient instead of pointwise. The couple stress
curvature enters through two routes that are computed independently:

  * rotation gradient  grad(axl(skw(grad u))) = (1/2) grad(curl u)
  * strain curl        Curl(sym(grad u)), taken row by row

The two are transposes of each other on gradient fields, which is what
makes the five classical writings of the couple stress density coincide.

Every library reader of a field's derived fields (J, the strain curl, grad
curl u, grad div u, the second and strain gradients, ...) takes them from one
state, `_FieldState`, each by the formula of its operator: the densities here,
`stresses`, the works of `tractions`, the identity gaps, `conformal`, the
terms of `micromorphic`, the second and strain gradients of `lift` and the
norm terms and unit-symbol terms of `solver`. A call scope is a lexical
`with _derived_fields(...)` block (a contextvars registry) that an entry
point reading one field in several steps opens around them; inside it every
function reads the same state of a registered field, so the call derives each
field once, and outside one every call derives from scratch. A state lives
exactly as long as its block: none outlives it, and no reader ends one early
(a field needed for fewer steps gets a nested block).
"""
from __future__ import annotations

import contextlib
import contextvars
import operator
from dataclasses import dataclass, replace
from functools import cache, cached_property, reduce

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


# --- the law: weighted parts and their conjugate ------------------------------

ELASTIC_PARTS = (("mu", tn.sym), ("lam", tn.trace))
CURVATURE_PARTS = (("alpha1", tn.devsym), ("alpha2", tn.skw))


def constants(c, parts):
    """The constant of c that each part's key names, in the order of parts."""
    return [getattr(c, key) for key, _ in parts]


def elastic_weights(c):
    """The weights of ELASTIC_PARTS: (mu, lam/2) in the density, (2 mu, lam) in the stress."""
    return (c.mu, c.lam / 2.0), (2.0 * c.mu, c.lam)


def curvature_weights(c, parts=CURVATURE_PARTS):
    """The weights 2 mu ell^2 w of curvature parts in the couple stress, w their constants."""
    return [2.0 * w * c.curvature_scale for w in constants(c, parts)]


def _weighted_sum(terms, weights):
    """t1 w1 + t2 w2 + ..., summed left to right; unequal lengths raise ValueError."""
    return reduce(operator.add, [t * w for t, w in zip(terms, weights, strict=True)])


def _norm_sq(v):
    """|v|^2 of a part's image: a matrix field's squared norm, a trace's square."""
    return tn.norm_sq(v) if isinstance(v, np.ndarray) else v * v


def quadratic(X, weights, parts):
    """sum of w |part(X)|^2 from the first term; the trace part gives w tr(X)^2."""
    return _weighted_sum([_norm_sq(part(X)) for _, part in parts], weights)


def conjugate(X, weights, parts):
    """The conjugate rule: sum of w part(X) from the first term; the trace part gives
    w tr(X) Id."""
    vals = [part(X) for _, part in parts]
    return _weighted_sum([v if isinstance(v, np.ndarray) else tn.identity_like(X) * v
                          for v in vals], weights)


# --- curvature measures and the derived fields of one field ------------------


_ROUTES = ("curl", "axl")  # the names of the two curvature routes


def curvature_from_jacobian(J, route):
    """The curvature of one route from J = grad u, for a caller that holds J.

    route "axl": grad(axl(skw J)); route "curl": Curl(sym J).
    """
    if pf._choice(route, _ROUTES, "curvature route") == "axl":
        return pf.jac(tn.axl(tn.skw(J)))
    return pf.mat_curl(tn.sym(J))


class _FieldState:
    """The derived fields of one field F, each formed by its `polyfield` operator.

    F is a vector field u, or a matrix field that stands in for J = grad u
    (as the identity suite's p and a micromorphic companion do). The fields
    that several readers of one scope take (J, the strain curl, grad curl u,
    grad div u, the second and strain gradients, the fully symmetric part of
    the second gradient, Curl J and grad axl F of a skew F) are kept from
    their first read. The one-step forms of a kept field (the rotation
    gradient, axl skw J, curl u, div u and INC(J)) are formed on each read:
    keeping them gained no time in the identity suite, and each would hold
    one more field over a block.
    """

    def __init__(self, F):
        self.field = F

    @cached_property
    def jacobian(self):
        F = self.field
        return F if np.ndim(F) == 2 else pf.jac(F)

    @cached_property
    def k_curl(self):
        return curvature_from_jacobian(self.jacobian, "curl")

    @cached_property
    def grad_curl(self):
        return pf.jac(self.curl)

    @cached_property
    def grad_div(self):
        return pf.grad(self.div)

    @cached_property
    def second_gradient(self):
        return pf.second_gradient(self.field)

    @cached_property
    def strain_gradient(self):
        return pf.strain_gradient(self.field)

    @cached_property
    def eta_sym(self):
        return _eta_sym_of(self.second_gradient)

    @cached_property
    def curl_J(self):
        """Curl J, row by row."""
        return pf.mat_curl(self.jacobian)

    @cached_property
    def grad_axl(self):
        """grad(axl F) of a skew matrix field F (the identity suite's A, a cosserat
        companion)."""
        return pf.jac(tn.axl(self.field))

    @property
    def k_axl(self):
        return curvature_from_jacobian(self.jacobian, "axl")

    @property
    def axl_skw(self):
        """axl(skw J), the continuum rotation of u."""
        return tn.axl(tn.skw(self.jacobian))

    @property
    def curl(self):
        return pf.curl(self.field)

    @property
    def div(self):
        return pf.div(self.field)

    @property
    def inc(self):
        """INC(J) = [Curl(sym J)]^T - grad(axl(skw J)), zero exactly when J is a gradient."""
        return tn.transpose(self.k_curl) - self.k_axl


# registered field id -> (field, its state); the field is held so that its id
# stays its own while the scope is open
_FIELD_STATES = contextvars.ContextVar("couplestress_field_states", default=None)


class _Scope:
    """The registry of one open scope (see `_derived_fields`)."""

    def __init__(self, states):
        self.states = states

    def add(self, F):
        """Register F (a state is kept for it until `drop`); F is returned."""
        self.states.setdefault(id(F), (F, _FieldState(F)))
        return F

    def drop(self, F):
        self.states.pop(id(F), None)


@contextlib.contextmanager
def _derived_fields(*fields):
    """A call scope in which each registered field has one state, shared by every
    function that reads it; an inner scope keeps the states of the outer one.

    The registry is reset when the scope closes, on a return or a raise, so
    no state outlives the call that opened it.
    """
    scope = _Scope(dict(_FIELD_STATES.get() or {}))
    for F in fields:
        scope.add(F)
    token = _FIELD_STATES.set(scope.states)
    try:
        yield scope
    finally:
        _FIELD_STATES.reset(token)


def _state(F):
    """The state of F in the open scope; outside one, or unregistered, a fresh state,
    so a call derives from scratch."""
    hit = (_FIELD_STATES.get() or {}).get(id(F))
    return _FieldState(F) if hit is None else hit[1]


@np.errstate(over="ignore", invalid="ignore")
def rotation_gradient(u):
    """k = grad(axl(skw(grad u))), the gradient of the continuum rotation."""
    return _state(u).k_axl


def strain_curl(u):
    """k = Curl(sym(grad u)), row-wise curl of the strain."""
    return _state(u).k_curl


# --- local elastic density -------------------------------------------------


def linear_elastic_density(u, mat):
    """mu |sym grad u|^2 + (lam/2) tr(grad u)^2."""
    return quadratic(_state(u).jacobian, elastic_weights(mat)[0], ELASTIC_PARTS)


_VOLUMETRIC_PARTS = (("mu", tn.devsym), ("kappa", tn.trace))


def linear_elastic_density_volumetric(u, mat):
    """Same energy split as mu |dev sym grad u|^2 + (kappa/2) tr(grad u)^2."""
    return quadratic(_state(u).jacobian, (mat.mu, mat.kappa / 2.0), _VOLUMETRIC_PARTS)


# --- couple stress curvature densities ------------------------------------


def curvature_quadratic(k, mat):
    """mu ell^2 [ alpha1 |dev sym k|^2 + alpha2 |skw k|^2 ] for a matrix field k."""
    return quadratic(k, constants(mat, CURVATURE_PARTS), CURVATURE_PARTS) * mat.curvature_scale


def indeterminate_density(u, mat):
    """Couple stress density mu ell^2 [a1 |dev sym k|^2 + a2 |skw k|^2], k = Curl(sym grad u).

    On gradient fields the curvature is trace free, so sym and dev sym
    coincide and all five classical writings agree with this one.
    """
    return curvature_quadratic(strain_curl(u), mat)


_SYM_PARTS = (("alpha1", tn.sym), CURVATURE_PARTS[1])
# (key, measure, factor on (alpha1, alpha2), parts): grad curl u is twice the
# rotation gradient, hence its factor 1/4
_FIVE_FORMS = (
    ("gradcurl-sym", "gradcurl", 0.25, _SYM_PARTS),
    ("rotation-gradient", "axl", 1.0, _SYM_PARTS),
    ("gradcurl-dev", "gradcurl", 0.25, CURVATURE_PARTS),
    ("strain-curl", "curl", 1.0, _SYM_PARTS),
    ("strain-curl-dev", "curl", 1.0, CURVATURE_PARTS),
)


@np.errstate(over="ignore", invalid="ignore")
def five_form_densities(u, mat):
    """The five classical writings of the couple stress curvature density.

    Keys name the route: via grad(curl u) with sym or dev sym split, via the
    rotation gradient, and via the strain curl with sym or dev sym split.
    Each is `quadratic` of its measure, and must agree with the others
    coefficientwise. The forms share squared norms (the skw part of grad curl u
    and of the strain curl enters two forms each), so each (measure, part)
    norm is formed once and each form sums its norms by `_weighted_sum`.
    """
    s = _state(u)
    k = {"gradcurl": s.grad_curl, "axl": s.k_axl, "curl": s.k_curl}
    norm = cache(lambda measure, part: _norm_sq(part(k[measure])))
    return {name: _weighted_sum([norm(measure, part) for _, part in parts],
                                [f * w for w in constants(mat, parts)]) * mat.curvature_scale
            for name, measure, f, parts in _FIVE_FORMS}


@np.errstate(over="ignore", invalid="ignore")
def equivalence_report(u, mat):
    """Max pairwise coefficient difference between the five densities; a field
    with a non-finite coefficient gives a non-finite difference."""
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
    return quadratic(strain_curl(u), [mat.alpha1 * mat.curvature_scale], CURVATURE_PARTS[:1])


def hadjesfandiari_dargush_density(u, mat):
    """mu ell^2 alpha2 |skw Curl(sym grad u)|^2, the skew-only curvature energy."""
    return quadratic(strain_curl(u), [mat.alpha2 * mat.curvature_scale], CURVATURE_PARTS[1:])


def grioli_density(u, mat, alpha1=None, eta_prime=0.0):
    """mu ell^2 [ (alpha1/4) |grad curl u|^2 + (eta'/4) tr((grad curl u)^2) ]."""
    if alpha1 is None:
        alpha1 = mat.alpha1
    gc = _state(u).grad_curl
    terms = (tn.norm_sq(gc), tn.trace(tn.matmul(gc, gc)))
    return _weighted_sum(terms, (alpha1 / 4.0, eta_prime / 4.0)) * mat.curvature_scale


def grioli_to_indeterminate(alpha1, eta_prime):
    """Weight map under which the Grioli form equals the couple stress form.

    tr(X^2) = |dev sym X|^2 - |skw X|^2 for trace-free X, and the factor
    1/4 is absorbed by |grad curl u| = 2 |k|.
    """
    return alpha1 + eta_prime, alpha1 - eta_prime


# --- strain gradient zoo ---------------------------------------------------
#
# Third-order tensors are object arrays; a permuted index set is a transpose
# (X.transpose(2, 0, 1)[i, j, k] = X[j, k, i]) and a contraction over a slot
# pair is np.trace over those axes.


def _eta(u):
    """Mindlin form I tensor eta[i,j,k] = u_k,ij."""
    return _state(u).second_gradient.transpose(1, 2, 0)


def _eta_tilde(u):
    """Mindlin form II tensor eta~[i,j,k] = (sym grad u)_jk,i."""
    return _state(u).strain_gradient.transpose(2, 0, 1)


def _eta_sym(u):
    """Fully symmetric part eta^S[i,j,k] = (u_k,ij + u_i,jk + u_j,ki)/3."""
    return _state(u).eta_sym


def _eta_sym_of(T):
    """`_eta_sym` from the second gradient T[k,i,j] = u_k,ij."""
    return (T.transpose(1, 2, 0) + T + T.transpose(2, 0, 1)) / 3.0


def _mindlin_iii_curvature(u):
    """k[i,j] = (1/2) EPS[j,l,k] u_k,li, the form III rotation curvature."""
    return _mindlin_iii_curvature_of(_state(u).second_gradient)


def _mindlin_iii_curvature_of(T):
    """`_mindlin_iii_curvature` from the second gradient T[k,i,j] = u_k,ij."""
    # T.transpose(2, 1, 0)[i, l, k] = u_k,li, contracted over (l, k) in that order
    return np.tensordot(T.transpose(2, 1, 0), (0.5 * tn.EPS).transpose(1, 2, 0), 2)


def mindlin_i_density(u, mat, a=(1.0, 1.0, 1.0, 1.0, 1.0)):
    """Mindlin form I in eta[i,j,k] = u_k,ij with weights a1..a5."""
    eta = _eta(u)
    v_kii = np.trace(eta, axis1=1, axis2=2)
    v_iik = np.trace(eta, axis1=0, axis2=1)
    terms = (tn.inner_vec(v_kii, v_kii), tn.ten3_inner(eta, eta),
             tn.ten3_inner(eta, eta.transpose(2, 0, 1)),  # eta[i,j,k] eta[j,k,i]
             tn.inner_vec(v_iik, v_iik), tn.inner_vec(v_iik, v_kii))
    return _weighted_sum(terms, a) * mat.curvature_scale


def mindlin_ii_density(u, mat, a=(1.0, 1.0, 1.0, 1.0, 1.0)):
    """Mindlin form II in eta~[i,j,k] = strain_jk,i with weights a1..a5."""
    et = _eta_tilde(u)
    v_iik = np.trace(et, axis1=0, axis2=1)
    v_kjj = np.trace(et, axis1=1, axis2=2)
    terms = (tn.inner_vec(v_iik, v_kjj), tn.inner_vec(v_kjj, v_kjj), tn.inner_vec(v_iik, v_iik),
             tn.ten3_inner(et, et),
             tn.ten3_inner(et, et.transpose(2, 1, 0)))  # et[i,j,k] et[k,j,i]
    return _weighted_sum(terms, a) * mat.curvature_scale


@np.errstate(over="ignore", invalid="ignore")
def mindlin_iii_density(u, mat, a=(1.0, 1.0, 1.0, 1.0, 1.0)):
    """Mindlin form III: rotation curvature plus fully symmetric part."""
    s = _state(u)
    kc = _mindlin_iii_curvature_of(s.second_gradient)
    es = s.eta_sym
    v_iij = np.trace(es, axis1=0, axis2=1)
    v_kll = np.trace(es, axis1=1, axis2=2)
    terms = (tn.norm_sq(kc), tn.inner(kc, tn.transpose(kc)), tn.inner_vec(v_iij, v_iij),
             tn.ten3_inner(es, es),
             tn.inner(kc, tn.eps_dot(v_kll)))  # EPS[i,j,k] kc[i,j] v_kll[k]
    return _weighted_sum(terms, a) * mat.curvature_scale


@np.errstate(over="ignore", invalid="ignore")
def lam_density(u, mat, a=(1.0, 1.0, 1.0)):
    """Dilatation gradient, traceless symmetric part, and sym grad curl split."""
    s = _state(u)
    gd = s.grad_div
    es = s.eta_sym
    # dv[a,b,c] = v_a delta_bc with v_k = es[m,m,k]; its three placements are
    # the trace part delta_ij v_k + delta_jk v_i + delta_ki v_j of es
    dv = np.multiply.outer(np.trace(es, axis1=0, axis2=1), np.eye(3))
    hat = es - (dv.transpose(1, 2, 0) + dv + dv.transpose(2, 0, 1)) / 5.0
    sgc = tn.sym(s.grad_curl)
    terms = (tn.norm_sq_vec(gd), tn.ten3_inner(hat, hat), tn.norm_sq(sgc))
    return _weighted_sum(terms, a) * mat.curvature_scale


def aifantis_lazar_density(u, mat, a=(1.0, 1.0)):
    """Gradient of dilatation plus full strain gradient."""
    s = _state(u)
    gd, E = s.grad_div, s.strain_gradient
    return _weighted_sum((tn.norm_sq_vec(gd), tn.ten3_inner(E, E)), a) * mat.curvature_scale


def sharma_kleinert_density(u, mat, a=(1.0, 1.0)):
    """Gradient of dilatation plus gradient of rotation vector."""
    s = _state(u)
    gd, gc = s.grad_div, s.grad_curl
    return _weighted_sum((tn.norm_sq_vec(gd), tn.norm_sq(gc)), a) * mat.curvature_scale


# --- registry for reporting ------------------------------------------------


MODEL_REGISTRY = {
    "linear-elastic": linear_elastic_density,
    "indeterminate": indeterminate_density,
    "modified-conformal": modified_conformal_density,
    "hadjesfandiari-dargush": hadjesfandiari_dargush_density,
    "grioli": grioli_density,
    "mindlin-i": mindlin_i_density,
    "mindlin-ii": mindlin_ii_density,
    "mindlin-iii": mindlin_iii_density,
    "lam": lam_density,
    "aifantis-lazar": aifantis_lazar_density,
    "sharma-kleinert": sharma_kleinert_density,
}


@np.errstate(over="ignore", invalid="ignore")
def evaluate_model(name, u, mat):
    """Return the density of one model, at its default weights, and its box integral;
    a name that is not a registered one (or not a str) raises ValueError."""
    dens = MODEL_REGISTRY[pf._choice(name, MODEL_REGISTRY, "model")](u, mat)
    return dens, dens.integrate()
