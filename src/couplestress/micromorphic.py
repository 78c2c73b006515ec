"""Relaxations of the couple stress model with an independent companion field.

Each model couples the displacement to a matrix field through a penalty
and measures curvature on the companion instead of on derivatives of u:

  cosserat             skew companion, curvature grad(axl(companion))
  microstrain          symmetric companion, curvature Curl(companion)
  micromorphic         full companion, curvature Curl(sym companion)
  relaxed              full companion, curvature Curl(companion), trace term
  further-relaxed      relaxed without the trace term
  sym-curl-p           full companion, curvature |sym Curl companion|^2 only
  degenerate-cosserat  skew companion, curvature on the skew part only

All densities include the same local elastic base. sym-curl-p has unclear
well-posedness and its solver hides behind an explicit experimental flag;
degenerate-cosserat is an energy evaluator only.

As the penalty grows the minimizers approach the constrained couple stress
model. The companion span therefore contains the constraint images of the
displacement basis in addition to matrix-shaped bubbles: that makes the
constrained minimizer admissible at every penalty, so the constrained
energy is a true upper bound and the penalized energies increase toward it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import polyfield as pf
from . import tensors as tn
from .energies import Material
from .solver import Basis, assemble as assemble_displacement
from .solver import load_vector, refined_solve, solve as solve_displacement

MODEL_IDS = (
    "cosserat",
    "microstrain",
    "micromorphic",
    "relaxed",
    "further-relaxed",
    "sym-curl-p",
    "degenerate-cosserat",
)

_EVALUATOR_ONLY = ("degenerate-cosserat",)
_EXPERIMENTAL = ("sym-curl-p",)


class ExperimentalModelError(ValueError):
    """Raised when a solver of unclear well-posedness runs without opt-in."""


@dataclass(frozen=True)
class MicromorphicParams:
    mu: float = 1.0
    lam: float = 1.0
    ell: float = 1.0
    penalty: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 1.0
    alpha3: float = 0.0

    @property
    def curvature_scale(self):
        return self.mu * self.ell**2

    def with_penalty(self, value):
        return replace(self, penalty=float(value))

    def constrained_material(self):
        """Material of the couple stress model this relaxation approaches."""
        return Material(self.mu, self.lam, self.alpha1, self.alpha2, self.ell)


def companion_class(model):
    if model in ("cosserat", "degenerate-cosserat"):
        return "skew"
    if model == "microstrain":
        return "sym"
    if model in ("micromorphic", "relaxed", "further-relaxed", "sym-curl-p"):
        return "full"
    raise ValueError(f"unknown model {model!r}")


def _check_companion(model, P, tol=0.0):
    cls = companion_class(model)
    if cls == "skew":
        gap = pf.max_abs_coeff_mat(tn.sym(P))
        if gap > tol:
            raise ValueError(f"{model} companion must be skew, symmetric part {gap}")
    elif cls == "sym":
        gap = pf.max_abs_coeff_mat(tn.skw(P))
        if gap > tol:
            raise ValueError(f"{model} companion must be symmetric, skew part {gap}")


# --- quadratic term lists -----------------------------------------------------


def _coupling_op(model):
    if model in ("cosserat", "degenerate-cosserat"):
        return lambda u, P: tn.skw(pf.jac(u)) - P
    if model == "microstrain":
        return lambda u, P: tn.sym(pf.jac(u)) - P
    if model == "micromorphic":
        return lambda u, P: pf.jac(u) - P
    return lambda u, P: tn.sym(pf.jac(u) - P)


def _curvature_ops(model):
    """List of (weight key, op on the companion field)."""
    grad_axl = lambda P: pf.jac(tn.axl(P))
    if model == "cosserat":
        return [
            ("alpha1", lambda u, P: tn.devsym(grad_axl(P))),
            ("alpha2", lambda u, P: tn.trace(grad_axl(P))),
            ("alpha2", lambda u, P: tn.skw(grad_axl(P))),
        ]
    if model == "degenerate-cosserat":
        return [("alpha2", lambda u, P: tn.skw(grad_axl(P)))]
    if model == "microstrain":
        return [
            ("alpha1", lambda u, P: tn.devsym(pf.mat_curl(P))),
            ("alpha2", lambda u, P: tn.skw(pf.mat_curl(P))),
        ]
    if model == "micromorphic":
        return [
            ("alpha1", lambda u, P: tn.devsym(pf.mat_curl(tn.sym(P)))),
            ("alpha2", lambda u, P: tn.skw(pf.mat_curl(tn.sym(P)))),
        ]
    if model == "relaxed":
        return [
            ("alpha1", lambda u, P: tn.devsym(pf.mat_curl(P))),
            ("alpha2", lambda u, P: tn.skw(pf.mat_curl(P))),
            ("alpha3", lambda u, P: tn.trace(pf.mat_curl(P))),
        ]
    if model == "further-relaxed":
        return [
            ("alpha1", lambda u, P: tn.devsym(pf.mat_curl(P))),
            ("alpha2", lambda u, P: tn.skw(pf.mat_curl(P))),
        ]
    if model == "sym-curl-p":
        return [("alpha1", lambda u, P: tn.sym(pf.mat_curl(P)))]
    raise ValueError(f"unknown model {model!r}")


def _term_list(model, params):
    """All quadratic terms (weight, op) of the model's density."""
    terms = [
        (params.mu, lambda u, P: tn.sym(pf.jac(u))),
        (params.lam / 2.0, lambda u, P: tn.trace(pf.jac(u))),
        (params.penalty, _coupling_op(model)),
    ]
    s = params.curvature_scale
    for key, op in _curvature_ops(model):
        terms.append((s * getattr(params, key), op))
    return terms


def micromorphic_energy(u, P, model, params):
    """Exact polynomial energy density of one model at one coupled state."""
    _check_companion(model, P)
    dens = pf.Poly3.zero()
    for w, op in _term_list(model, params):
        val = op(u, P)
        sq = val * val if isinstance(val, pf.Poly3) else tn.norm_sq(val)
        dens = dens + sq * w
    return dens


def force_stress(u, P, model, params):
    """sigma per model; symmetric exactly for microstrain/relaxed families."""
    J = pf.jac(u)
    base = np.empty((3, 3), dtype=object)
    iso = tn.trace(J) * params.lam
    coupling = _coupling_op(model)(u, P)
    for i in range(3):
        for j in range(3):
            v = tn.sym(J)[i, j] * (2.0 * params.mu) + coupling[i, j] * (2.0 * params.penalty)
            if i == j:
                v = v + iso
            base[i, j] = v
    return base


def hyperstress(u, P, model, params):
    """Moment stress conjugate to the model's curvature measure."""
    _check_companion(model, P)
    s = 2.0 * params.curvature_scale
    if model in ("cosserat", "degenerate-cosserat"):
        k = pf.jac(tn.axl(P))
        out = tn.skw(k)
        out = np.array(
            [[out[i, j] * (s * params.alpha2) for j in range(3)] for i in range(3)],
            dtype=object,
        )
        if model == "cosserat":
            dev = tn.devsym(k)
            t = tn.trace(k)
            for i in range(3):
                for j in range(3):
                    v = out[i, j] + dev[i, j] * (s * params.alpha1)
                    if i == j:
                        v = v + t * (s * params.alpha2)
                    out[i, j] = v
        return out
    if model == "microstrain":
        k = pf.mat_curl(P)
        a3 = 0.0
    elif model == "micromorphic":
        k = pf.mat_curl(tn.sym(P))
        a3 = 0.0
    elif model in ("relaxed",):
        k = pf.mat_curl(P)
        a3 = params.alpha3
    elif model == "further-relaxed":
        k = pf.mat_curl(P)
        a3 = 0.0
    elif model == "sym-curl-p":
        k = pf.mat_curl(P)
        sk = tn.sym(k)
        return np.array(
            [[sk[i, j] * (s * params.alpha1) for j in range(3)] for i in range(3)],
            dtype=object,
        )
    else:
        raise ValueError(f"unknown model {model!r}")
    dev = tn.devsym(k)
    skw = tn.skw(k)
    t = tn.trace(k)
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            v = dev[i, j] * (s * params.alpha1) + skw[i, j] * (s * params.alpha2)
            if i == j and a3:
                v = v + t * (s * a3)
            out[i, j] = v
    return out


# --- invariances ----------------------------------------------------------------


def invariance_shift_kind(model):
    """How the companion must move when u gains a rigid infinitesimal rotation."""
    if model in ("cosserat", "micromorphic", "degenerate-cosserat"):
        return "same"
    if model == "microstrain":
        return "none"
    return "independent"


def invariance_gap(u, P, model, params, rng):
    """Max density coefficient change under the model's invariance transform."""
    W = tn.anti(rng.uniform(-1.0, 1.0, 3))
    Wpp = tn.anti(rng.uniform(-1.0, 1.0, 3))
    bvec = rng.uniform(-1.0, 1.0, 3)
    X = [pf.Poly3.variable(ax) for ax in range(3)]
    u2 = pf.as_vec(
        [
            u[i] + X[0] * W[i, 0] + X[1] * W[i, 1] + X[2] * W[i, 2] + float(bvec[i])
            for i in range(3)
        ]
    )
    kind = invariance_shift_kind(model)
    if kind == "same":
        shift = W
    elif kind == "independent":
        shift = Wpp
    else:
        shift = np.zeros((3, 3))
    P2 = np.array(
        [[P[i, j] + float(shift[i, j]) for j in range(3)] for i in range(3)],
        dtype=object,
    )
    before = micromorphic_energy(u, P, model, params)
    after = micromorphic_energy(u2, P2, model, params)
    return (after - before).max_abs_coeff()


def constrained_companion(model, u):
    """Image of u under the constraint the penalty enforces."""
    cls = companion_class(model)
    J = pf.jac(u)
    if cls == "skew":
        return tn.skw(J)
    if cls == "sym":
        return tn.sym(J)
    return J


# --- coupled Galerkin solver ------------------------------------------------


_SKEW_GENS = [tn.anti(np.eye(3)[k]) for k in range(3)]
_SYM_GENS = [np.diag(np.eye(3)[k]) for k in range(3)] + [
    np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
    np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
]
_FULL_GENS = [np.outer(np.eye(3)[i], np.eye(3)[j]) for i in range(3) for j in range(3)]


def _matrix_field_from(scalar, G):
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            out[i, j] = scalar * float(G[i, j])
    return out


def _mat_flat(P):
    return [P[i, j] for i in range(3) for j in range(3)]


def companion_basis(model, u_basis: Basis, augment=True, prune_tol=1e-10):
    """Matrix-valued companion span: shaped bubbles plus constraint images.

    Linearly dependent candidates are merged away through an L2 Gram
    eigendecomposition, which also orthonormalizes the surviving fields.
    The fields are formed in coefficient space, by one contraction of the
    scaled eigenvectors with the dense stack of the candidates.
    """
    cls = companion_class(model)
    gens = {"skew": _SKEW_GENS, "sym": _SYM_GENS, "full": _FULL_GENS}[cls]
    order, cap = u_basis.order, 14
    xs = [pf.Poly3.variable(ax, cap) for ax in range(3)]
    bubble = xs[0] * (1.0 - xs[0]) * (1.0 - xs[1]) * xs[1] * xs[2] * (1.0 - xs[2])
    candidates = []
    for a in range(order):
        for b in range(order):
            for c in range(order):
                scalar = bubble * pf.Poly3.monomial((a, b, c), 1.0, cap)
                for G in gens:
                    candidates.append(_matrix_field_from(scalar, G))
    if augment:
        for u in u_basis.fields:
            candidates.append(constrained_companion(model, u))
    # prune to an orthonormal independent set
    rows = [_mat_flat(P) for P in candidates]
    D, M = pf.dense_layout(p for row in rows for p in row)
    X = pf.dense_stack(rows, D)
    gram = pf.dense_gram(X, M)
    vals, vecs = scipy.linalg.eigh(gram)
    keep = vals > prune_tol * vals[-1]
    cols = vecs[:, keep]
    V = np.where(np.abs(cols) > 1e-14, cols * (1.0 / np.sqrt(vals[keep])), 0.0)
    return pf.linear_combinations(candidates, V, X)


@dataclass
class CoupledState:
    model: str
    params: MicromorphicParams
    u: object
    P: object


def _zero_u(cap=14):
    return pf.as_vec([pf.Poly3.zero(cap)] * 3)


def _zero_P(cap=14):
    return pf.as_mat([[pf.Poly3.zero(cap)] * 3 for _ in range(3)])


def coupled_operator_grams(model, u_basis, companion_fields):
    """Gram matrix of every quadratic term, over the product basis.

    Returned keyed by term index; weights are applied later so a penalty
    ladder reuses one assembly.
    """
    zero_u, zero_P = _zero_u(), _zero_P()
    elements = [(u, zero_P) for u in u_basis.fields] + [
        (zero_u, P) for P in companion_fields
    ]
    term_ops = [op for _, op in _term_list(model, MicromorphicParams())]
    grams = []
    for op in term_ops:
        vals = [op(u, P) for (u, P) in elements]
        flat = [
            [v] if isinstance(v, pf.Poly3) else list(np.ravel(v)) for v in vals
        ]
        grams.append(pf.box_gram(flat))
    return grams


def coupled_stiffness(model, params, grams):
    weights = [w for w, _ in _term_list(model, params)]
    K = np.zeros_like(grams[0])
    for w, G in zip(weights, grams):
        K = K + 2.0 * w * G
    return 0.5 * (K + K.T)


def coupled_solve(model, params, u_basis, f, companion_fields=None, grams=None,
                  experimental=False):
    """Minimize the coupled functional over the product span.

    Returns the coupled state and a report with energy, residual, and the
    L2 constraint violation. Models of unclear well-posedness require
    experimental=True; evaluator-only models are refused.
    """
    if model in _EVALUATOR_ONLY:
        raise ValueError(f"{model} is an energy evaluator only; no solver")
    if model in _EXPERIMENTAL and not experimental:
        raise ExperimentalModelError(
            f"{model} well-posedness is unclear; pass experimental=True to solve anyway"
        )
    if companion_fields is None:
        companion_fields = companion_basis(model, u_basis)
    if grams is None:
        grams = coupled_operator_grams(model, u_basis, companion_fields)
    K = coupled_stiffness(model, params, grams)
    nu = len(u_basis.fields)
    b = np.zeros(K.shape[0])
    b[:nu] = load_vector(u_basis, f)
    c, residual, min_eig = refined_solve(K, b)
    (u_h,) = pf.linear_combinations(u_basis.fields, c[:nu, None])
    (P_h,) = pf.linear_combinations(companion_fields, c[nu:, None])
    coupling = _coupling_op(model)(u_h, P_h)
    violation = float(
        np.sqrt(sum(pf.integral_of_product(p, p) for p in _mat_flat(coupling)))
    )
    energy = float(0.5 * c @ K @ c - b @ c)
    state = CoupledState(model, params, u_h, P_h)
    report = {
        "model": model,
        "penalty": params.penalty,
        "dim": K.shape[0],
        "energy": energy,
        "residual": residual,
        "min_eigenvalue": min_eig,
        "violation": violation,
    }
    return state, report


def constrained_reference(model, params, u_basis, f):
    """Solve the constrained couple stress model over the same u span."""
    mat = params.constrained_material()
    asm = assemble_displacement(u_basis, mat, "curl")
    b = load_vector(u_basis, f)
    rep = solve_displacement(asm, b)
    return rep


def penalty_limit_study(model, params, u_basis, f, ladder=(1.0, 1e2, 1e4, 1e6)):
    """Penalty ladder table against the constrained reference energy."""
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("penalty ladder must be strictly increasing")
    companion_fields = companion_basis(model, u_basis)
    grams = coupled_operator_grams(model, u_basis, companion_fields)
    ref = constrained_reference(model, params, u_basis, f)
    rows = []
    prev_violation = None
    for pen in ladder:
        _, rep = coupled_solve(
            model,
            params.with_penalty(pen),
            u_basis,
            f,
            companion_fields=companion_fields,
            grams=grams,
        )
        row = {
            "penalty": pen,
            "violation": rep["violation"],
            "energy": rep["energy"],
            "energy_gap": ref.energy - rep["energy"],
            "residual": rep["residual"],
        }
        if prev_violation is not None and prev_violation > 0:
            row["violation_ratio"] = rep["violation"] / prev_violation
        prev_violation = rep["violation"]
        rows.append(row)
    return {"model": model, "constrained_energy": ref.energy, "rows": rows}
