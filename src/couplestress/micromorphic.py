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

All densities include the elastic parts of the law in `energies`, and
every function below that takes a model reads its row of `_MODELS`.
sym-curl-p has unclear well-posedness and its solver hides behind an
explicit experimental flag; degenerate-cosserat is an energy evaluator only.

The limit of a model as the penalty grows follows from its coupling. An
"image" coupling (cosserat, microstrain, micromorphic) ties the companion
to the constraint image of grad u, so the minimizers approach the
constrained couple stress model. The companion span therefore contains the
constraint images of the displacement basis in addition to matrix-shaped
bubbles: that makes the constrained minimizer admissible at every penalty,
so the constrained energy is a true upper bound and the penalized energies
increase toward it. A "strain" coupling (relaxed, further-relaxed) ties only
sym P to sym grad u, and P = grad u zeroes both the coupling and the
curvature Curl P: over a span that holds grad u, as the companion span
does, these rows give the linear elastic (ell = 0) energy at every penalty,
not the couple stress energy.
Dense linear algebra (`scipy.linalg`, for the companion Gram's eigenvectors)
is imported on first use, so the exact-calculus commands start without it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from . import polyfield as pf
from . import tensors as tn
from .energies import (CURVATURE_PARTS, ELASTIC_PARTS, Material, _derived_fields, _state,
                       conjugate, constants, curvature_weights, elastic_weights)
from .solver import Basis, assemble as assemble_displacement
from .solver import finite, load_vector, refined_solve, solve as solve_displacement


# The curvature measures of a companion P, read from its derived-field state
# (`energies._state`), which takes a matrix field for J: Curl J is Curl P.
_grad_axl = attrgetter("grad_axl")  # grad(axl P)
_curl = attrgetter("curl_J")  # Curl P, row by row
_curl_sym = attrgetter("k_curl")  # Curl(sym P)

# Each relaxation, stated once: companion class (`_CLASSES`); coupling, the
# constraint "image" of u or the "strain" sym(grad u) minus the companion;
# the curvature measure k of the companion's state and its parts (key, projection),
# each adding mu ell^2 w |part(k)|^2 to the density and its conjugate to the
# hyperstress; the companion's shift when u gains a rigid rotation; and the
# solver status "solve", "experimental" (opt-in) or "evaluator" (none).
_MODELS = {
    "cosserat": ("skew", "image", _grad_axl,
                 (CURVATURE_PARTS[0], ("alpha2", tn.trace), CURVATURE_PARTS[1]),
                 "same", "solve"),
    "microstrain": ("sym", "image", _curl, CURVATURE_PARTS, "none", "solve"),
    "micromorphic": ("full", "image", _curl_sym, CURVATURE_PARTS, "same", "solve"),
    "relaxed": ("full", "strain", _curl, CURVATURE_PARTS + (("alpha3", tn.trace),),
                "independent", "solve"),
    "further-relaxed": ("full", "strain", _curl, CURVATURE_PARTS, "independent", "solve"),
    "sym-curl-p": ("full", "strain", _curl, (("alpha1", tn.sym),), "independent",
                   "experimental"),
    "degenerate-cosserat": ("skew", "image", _grad_axl, CURVATURE_PARTS[1:], "same",
                            "evaluator"),
}
MODEL_IDS = tuple(_MODELS)


def _model(model):
    """The row of `_MODELS` of one model."""
    return _MODELS[pf._choice(model, _MODELS, "model")]


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
        """A copy at penalty float(value); a value that is no float (one past the
        float range included) raises ValueError."""
        try:
            return replace(self, penalty=float(value))
        except (TypeError, OverflowError):
            raise ValueError(
                f"penalty must be a real number in the float range, got {value!r}") from None

    def constrained_material(self):
        """Material of the couple stress model this relaxation approaches."""
        return Material(self.mu, self.lam, self.alpha1, self.alpha2, self.ell)


def companion_class(model):
    return _model(model)[0]


def _check_companion(model, P):
    _, lacked, name, lacked_name, _ = _CLASSES[companion_class(model)]
    gap = 0.0 if lacked is None else pf.max_abs_coeff_mat(lacked(P))
    if gap != 0.0:  # a NaN gap is refused too
        raise ValueError(f"{model} companion must be {name}, {lacked_name} part {gap}")


# --- quadratic term lists -----------------------------------------------------


def _coupling_op(model):
    if _model(model)[1] == "strain":
        return lambda u, P: tn.sym(_state(u).jacobian - P)
    return lambda u, P: constrained_companion(model, u) - P


def _reads(slot, op):
    """op, marked as reading only one slot of (u, P): "u" or "P"."""
    op.reads = slot
    return op


def _term_list(model, params):
    """All quadratic terms (weight, op) of the model's density.

    An op that reads one slot of (u, P) says so as `op.reads` (the elastic
    parts "u", the curvature parts "P"); the coupling reads both and says
    nothing. The elastic parts read J = grad u, and the curvature parts the
    measure k, from the derived-field state of their slot, so in a scope
    that registers it (`energies._derived_fields`) the ops share one J and
    one k.
    """
    terms = [(w, _reads("u", lambda u, P, part=part: part(_state(u).jacobian)))
             for w, (_, part) in zip(elastic_weights(params)[0], ELASTIC_PARTS)]
    terms.append((params.penalty, _coupling_op(model)))
    measure, parts = _model(model)[2:4]
    s = params.curvature_scale
    for w, (_, part) in zip(constants(params, parts), parts):
        terms.append((s * w, _reads("P", lambda u, P, part=part: part(measure(_state(P))))))
    return terms


@np.errstate(over="ignore", invalid="ignore")
def micromorphic_energy(u, P, model, params):
    """Exact polynomial energy density of one model at one coupled state."""
    _check_companion(model, P)
    terms = []
    with _derived_fields(u, P):  # the terms share one J = grad u and one k of P
        for w, op in _term_list(model, params):
            val = np.ravel(op(u, P))  # a scalar term is one entry
            terms.append((val @ val) * w)
    return np.sum(terms)


@np.errstate(over="ignore", invalid="ignore")
def force_stress(u, P, model, params):
    """sigma per model; symmetric exactly for microstrain/relaxed families. The
    elastic part and the coupling read one J = grad u."""
    with _derived_fields(u):
        elastic = conjugate(_state(u).jacobian, elastic_weights(params)[1], ELASTIC_PARTS)
        return elastic + _coupling_op(model)(u, P) * (2.0 * params.penalty)


def hyperstress(u, P, model, params):
    """Moment stress conjugate to the model's curvature measure k.

    The conjugate rule of `energies` on the model's curvature parts: each
    adds 2 mu ell^2 w part(k), the trace part 2 mu ell^2 w tr(k) Id.
    """
    _check_companion(model, P)
    measure, parts = _model(model)[2:4]
    return conjugate(measure(_state(P)), curvature_weights(params, parts), parts)


# --- invariances ----------------------------------------------------------------


def invariance_shift_kind(model):
    """How the companion must move when u gains a rigid infinitesimal rotation."""
    return _model(model)[4]


@np.errstate(over="ignore", invalid="ignore")
def invariance_gap(u, P, model, params, rng):
    """Max density coefficient change under the model's invariance transform."""
    W = tn.anti(rng.uniform(-1.0, 1.0, 3))
    Wpp = tn.anti(rng.uniform(-1.0, 1.0, 3))
    bvec = rng.uniform(-1.0, 1.0, 3)
    X = pf.as_vec([pf.Poly3.variable(ax) for ax in range(3)])
    u2 = pf.as_vec([u[i] + tn.inner_vec(X, W[i]) + bvec[i] for i in range(3)])
    shift = {"same": W, "independent": Wpp, "none": np.zeros((3, 3))}
    P2 = P + shift[invariance_shift_kind(model)]
    before = micromorphic_energy(u, P, model, params)
    after = micromorphic_energy(u2, P2, model, params)
    return (after - before).max_abs_coeff()


def constrained_companion(model, u):
    """Image of u under the constraint the penalty enforces."""
    return _CLASSES[companion_class(model)][0](_state(u).jacobian)


# --- coupled Galerkin solver ------------------------------------------------


_E = np.eye(3)
# Each companion class: the constraint image of J = grad u, the part that a
# companion of the class lacks, the names of both parts, and the matrix
# generators of the class in candidate order.
_CLASSES = {
    "skew": (tn.skw, tn.sym, "skew", "symmetric", [tn.anti(_E[k]) for k in range(3)]),
    "sym": (tn.sym, tn.skw, "symmetric", "skew",
            [np.outer(_E[i], _E[j]) + np.outer(_E[j], _E[i]) * (i != j)
             for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))]),
    "full": (lambda J: J, None, None, None,
             [np.outer(_E[i], _E[j]) for i in range(3) for j in range(3)]),
}


def companion_basis(model, u_basis: Basis):
    """Matrix-valued companion span: shaped basis scalars plus constraint images.

    Linearly dependent candidates are merged away through an L2 Gram
    eigendecomposition, which also orthonormalizes the surviving fields.
    The kept rank is the numerical rank of the Gram (Golub & Van Loan,
    Matrix Computations, 5.4), the numpy.linalg.matrix_rank default:
    eigenvalues above n eps lambda_max for n candidates. Only null
    directions fall below it; a wider cut drops real ones from order 3 on,
    the constraint images leave the span and the penalty limit misses the
    constrained energy. Orthonormality holds to about eps over the
    smallest kept relative eigenvalue. The candidates are coefficient
    cubes, the constraint images taken on the batched u basis, and the span
    is one `polyfield.FieldStack`: one contraction of the scaled
    eigenvectors with the candidate cubes.
    """
    import scipy.linalg

    gens = _CLASSES[companion_class(model)][4]
    U = u_basis.fields
    D = U.cubes.shape[-1]
    S = U.cubes[::3, 0]  # the basis scalars: field 3 n + d is scalar n times e_d
    images, _ = pf._stacks(constrained_companion(model, U.batch()))
    shaped = S[:, None, None, None] * np.array(gens)[None, ..., None, None, None]
    X = np.concatenate([shaped.reshape((-1, 3, 3) + (D,) * 3), images])
    # prune to an orthonormal independent set; the Gram pairs the independent
    # entries of the class once
    gram = pf.dense_gram(X, U.family.dense_moments(D))
    vals, vecs = scipy.linalg.eigh(gram)
    keep = vals > len(vals) * np.finfo(float).eps * vals[-1]
    cols = vecs[:, keep]
    V = np.where(np.abs(cols) > 1e-14, cols * (1.0 / np.sqrt(vals[keep])), 0.0)
    return pf.linear_combinations(pf.FieldStack(X, U.cap, U.family), V)


@dataclass
class CoupledState:
    model: str
    params: MicromorphicParams
    u: object
    P: object


def coupled_operator_grams(model, u_basis, companion_fields):
    """Gram matrix of every quadratic term, over the product basis.

    The product basis is the pairs (u, 0) and (0, P), u first. Each term
    operator runs once, on what it reads: an op marked `reads` "u" on the
    u stack, one marked "P" on the companion stack (both batched on the
    layout that holds both stacks), any other op on the product span. One
    call scope (`energies._derived_fields`) registers the companion stack
    around every op, and a nested one the u stack around the elastic ops
    only, so the elastic ops share one Jacobian of the u stack and the
    curvature ops one curvature measure of the companion stack, and each
    stack's state ends with the block of its slot. Each Gram is one
    `polyfield.batch_gram`, placed in the block of its slot with zeros
    elsewhere, as the Gram over the zero-padded product span would hold
    it. Returned keyed by term index; weights are applied later so a
    penalty ladder reuses one assembly.
    """
    u_stack, P_stack = u_basis.fields, pf.FieldStack.of(companion_fields)
    nu, n = len(u_stack), len(u_stack) + len(P_stack)
    U, P = pf.stack_batches(u_stack, P_stack)
    span = {"u": (U, None, slice(nu)), "P": (None, P, slice(nu, n)),
            None: (*pf.product_batches(u_stack, P_stack), slice(n))}
    ops = [op for _, op in _term_list(model, MicromorphicParams())]

    def gram(op):
        u, Q, block = span[getattr(op, "reads", None)]
        G = np.zeros((n, n))
        G[block, block] = pf.batch_gram(op(u, Q))
        return G

    with _derived_fields(P):
        with _derived_fields(U):  # the elastic ops lead the term list
            grams = [gram(op) for op in ops[:len(ELASTIC_PARTS)]]
        return grams + [gram(op) for op in ops[len(ELASTIC_PARTS):]]


@np.errstate(over="ignore", invalid="ignore")
def coupled_stiffness(model, params, grams):
    terms = _term_list(model, params)
    if len(grams) != len(terms):
        raise ValueError(f"{model} has {len(terms)} coupled terms, got {len(grams)} Grams")
    K = sum(2.0 * w * G for (w, _), G in zip(terms, grams))
    return finite(0.5 * (K + K.T), "stiffness", params)


def _refuse_unsolvable(model, experimental):
    status = _model(model)[5]
    if status == "evaluator":
        raise ValueError(f"{model} is an energy evaluator only; no solver")
    if status == "experimental" and not experimental:
        raise ExperimentalModelError(
            f"{model} well-posedness is unclear; pass experimental=True to solve anyway"
        )


def coupled_solve(model, params, u_basis, f, companion_fields=None, grams=None,
                  experimental=False):
    """Minimize the coupled functional over the product span.

    Returns the coupled state and a report with energy, residual, and the
    L2 constraint violation. Models of unclear well-posedness require
    experimental=True; evaluator-only models are refused.
    """
    _refuse_unsolvable(model, experimental)
    if companion_fields is None:
        companion_fields = companion_basis(model, u_basis)
    companion = pf.FieldStack.of(companion_fields)
    if grams is None:
        grams = coupled_operator_grams(model, u_basis, companion)
    return _coupled_rung(model, params, u_basis.fields, load_vector(u_basis, f),
                         companion, grams)


def _coupled_rung(model, params, u_stack, load, companion, grams):
    """The coupled solve on one assembly: u basis and companion as stacks, u load given.

    Every Gram must be square over the product span of the two stacks; a Gram
    of another basis raises a ValueError that names both sizes."""
    nu, n = len(u_stack), len(u_stack) + len(companion)
    for G in grams:
        if np.shape(G) != (n, n):
            raise ValueError(
                f"{model} Grams of shape {np.shape(G)} do not fit a u basis of {nu} fields "
                f"and a companion of {len(companion)} fields, which need ({n}, {n})")
    K = coupled_stiffness(model, params, grams)
    b = np.zeros(K.shape[0])
    b[:nu] = load
    c, residual, min_eig = refined_solve(K, b)
    # each from its own stack; the zero-padded product stack reorders the sums
    u_h = pf.linear_combinations(u_stack, c[:nu, None])
    P_h = pf.linear_combinations(companion, c[nu:, None])
    coupling = _coupling_op(model)(*pf.stack_batches(u_h, P_h))
    violation = float(np.sqrt(pf.batch_gram(coupling)[0, 0]))
    energy = float(0.5 * c @ K @ c - b @ c)
    state = CoupledState(model, params, u_h[0], P_h[0])
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
    asm = assemble_displacement(u_basis, params.constrained_material(), "curl")
    return solve_displacement(asm, load_vector(u_basis, f))


def _penalty_ladder(ladder):
    """ladder, if it is a non-empty, strictly increasing sequence of finite positive
    penalties, none a bool; any other (one that is no sequence, or holds an integer
    past the float range) raises ValueError."""
    try:
        numeric = bool(len(ladder)) and all(
            isinstance(p, numbers.Real) and not isinstance(p, (bool, np.bool_))
            and math.isfinite(p) and p > 0 for p in ladder)
    except (TypeError, OverflowError):  # no sequence; an integer past the float range
        numeric = False
    if not numeric:
        raise ValueError("penalty ladder must be non-empty, of finite positive numbers (no "
                         f"booleans), got {ladder!r}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"penalty ladder must be strictly increasing, got {ladder!r}")
    return ladder


def penalty_limit_study(model, params, u_basis, f, ladder=(1.0, 1e2, 1e4, 1e6)):
    """Penalty ladder table against the constrained couple stress reference energy;
    the ladder as `_penalty_ladder` takes it.

    The reference is the limit of the "image" rows only. A "strain" row
    (relaxed, further-relaxed) tends to linear elasticity instead: its
    energies are the ell = 0 energy at every rung, to roundoff that grows
    with the penalty, and its `energy_gap` stays at that energy's distance
    from the couple stress one.
    """
    _penalty_ladder(ladder)
    _refuse_unsolvable(model, False)
    companion = companion_basis(model, u_basis)
    grams = coupled_operator_grams(model, u_basis, companion)
    ref = constrained_reference(model, params, u_basis, f)
    load = load_vector(u_basis, f)
    rows = []
    prev_violation = None
    for pen in ladder:
        _, rep = _coupled_rung(model, params.with_penalty(pen), u_basis.fields, load,
                               companion, grams)
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
