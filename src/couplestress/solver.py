"""Galerkin solver for the equilibrium problem on the unit box.

The displacement is sought in a finite span of fields vanishing on the
whole boundary; every integral of the stiffness matrix is exact because
the basis fields are polynomials (or exact trigonometric products). The
bilinear form can be assembled from either curvature route and the two
stiffness matrices must agree entry by entry.

A basis is its coefficient stack, one `polyfield.FieldStack`, whose
family only chooses the per-axis index of a term and its 1D moment and
derivative matrices: monomial exponents for the bubble basis, sin/cos
factors for the sine basis. The operators run once per assembly on the
stack as one `polyfield.DenseBatch` per component, the manufactured load
runs them on u_star as a one-field batch, and every pairing is one
contraction of coefficient cubes, `polyfield.batch_gram`. Since the same
operator code runs on a batch as on a single field, the curl-against-axl
agreement of K still tests the identity between the two routes. Every
linear system goes through one dense solve, `refined_solve`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import polyfield as pf
from . import tensors as tn
from .energies import Material, rotation_gradient, strain_curl
from .stresses import assemble as assemble_stresses, equilibrium_residual
from .tractions import ALL_FACES, curl_double_force
from .trig import TrigPoly


# --- bases -------------------------------------------------------------------


@dataclass
class Basis:
    """A Galerkin basis: its fields as one `polyfield.FieldStack`."""

    fields: pf.FieldStack
    kind: str
    order: int

    def __len__(self):
        return len(self.fields)


def _component_basis(scalars, kind, order):
    """Fields s e_d for the scalars s in turn, d fastest: each cube in its component slot."""
    S = pf.FieldStack.of(scalars)
    X = np.zeros((len(S), 3, 3) + S.cubes.shape[1:])
    X[:, range(3), range(3)] = S.cubes[:, None]
    return Basis(pf.FieldStack(X.reshape((-1, 3) + X.shape[3:]), S.cap, S.family), kind, order)


BUBBLE_CAP = 14


def bubble_scalars(order):
    """Scalars B(x) x^a y^b z^c, exponents below `order` and a slowest.

    B is the product bubble x(1-x) y(1-y) z(1-z), zero on all six faces.
    """
    xs = [pf.Poly3.variable(ax, BUBBLE_CAP) for ax in range(3)]
    bubble = xs[0] * (1.0 - xs[0]) * (1.0 - xs[1]) * xs[1] * xs[2] * (1.0 - xs[2])
    exps = itertools.product(range(order), repeat=3)
    return [bubble * pf.Poly3.monomial(e, 1.0, BUBBLE_CAP) for e in exps]


def bubble_basis(order):
    """Fields B(x) x^a y^b z^c e_d from `bubble_scalars`, dimension 3 order^3."""
    return _component_basis(bubble_scalars(order), "bubble", order)


def sine_basis(order):
    """Fields sin(a pi x) sin(b pi y) sin(c pi z) e_d, frequencies 1..order."""
    freqs = itertools.product(range(1, order + 1), repeat=3)
    return _component_basis([TrigPoly.sine_mode(f) for f in freqs], "sine", order)


# --- assembly -----------------------------------------------------------------


@dataclass
class Assembly:
    basis: Basis
    material: Material
    formulation: str
    K: np.ndarray
    G: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def assemble(basis, mat, formulation="curl"):
    """Stiffness K and functional-norm Gram G, both exactly integrated.

    K is the bilinear form 2 mu <sym Ju, sym Jv> + lam tr Ju tr Jv
    + mu ell^2 (2 a1 <dev sym ku, dev sym kv> + 2 a2 <skw ku, skw kv>);
    G is the Gram of |grad u|^2 + |Curl sym grad u|^2.

    The operators run once, on the whole basis as one batch; each term is
    paired as soon as it is formed, so only one term's stack is alive.
    """
    if formulation not in ("curl", "axl"):
        raise ValueError(f"unknown formulation {formulation!r}")
    mat.validate_wellposed()
    U = basis.fields.batch()
    J = pf.jac(U)
    k_curl = strain_curl(U)
    k = k_curl if formulation == "curl" else rotation_gradient(U)
    gram = pf.batch_gram
    s = mat.curvature_scale
    K = (
        2.0 * mat.mu * gram(tn.sym(J))
        + mat.lam * gram(tn.trace(J))
        + s * (2.0 * mat.alpha1 * gram(tn.devsym(k)) + 2.0 * mat.alpha2 * gram(tn.skw(k)))
    )
    G = gram(J) + gram(k_curl)
    K = finite(0.5 * (K + K.T), "stiffness", mat)
    G = 0.5 * (G + G.T)
    return Assembly(basis, mat, formulation, K, G)


def finite(A, what, constants):
    """A, or OverflowError naming what overflowed (its builder silences numpy's warnings)."""
    if not np.isfinite(A).all():
        raise OverflowError(f"the {what} of {constants} overflows the float range")
    return A


def load_vector(basis, f):
    """b_a = integral of <f, basis field a>."""
    return pf.batch_gram(basis.fields.batch(), pf.batch_fields([f]))[:, 0]


@np.errstate(over="ignore", invalid="ignore")
def manufactured_load(basis, u_star, mat, include_boundary=True):
    """Load vector under which u_star solves the discrete problem exactly.

    Volume part: f = -Div(sigma + tau) of u_star. Basis fields vanish on
    the boundary but their normal derivatives do not, so the natural
    boundary condition of u_star contributes face double-force work
    <g(u_star), grad v . n> that must be added to the load; dropping it is
    a genuine (demonstrable) error, not a simplification.

    The stresses run on u_star as a one-field batch and each pairing with
    the basis batch is one `polyfield.batch_gram`; the face traces of
    grad v . n and g sit at index 0 on the normal axis, whose moment is 1.
    f comes back as a field of u_star's family; b must be `finite`.
    """
    U = pf.FieldStack.of([u_star])
    state = assemble_stresses(U.batch(), mat)
    f = equilibrium_residual(state) * -1.0
    V = basis.fields.batch()
    b = pf.batch_gram(V, f)[:, 0]
    if include_boundary:
        J = pf.jac(V)
        for face in ALL_FACES:
            dn = [face.restrict(p) for p in tn.matvec(J, face.normal)]
            g = [face.restrict(p) for p in curl_double_force(state, face)]
            b += pf.batch_gram(dn, g)[:, 0]
    (f,) = pf.FieldStack(np.stack([p.coef for p in f], axis=1), U.cap, U.family)
    return f, finite(b, "load", mat)


@dataclass
class SolveReport:
    coefficients: np.ndarray
    energy: float
    residual: float
    min_eigenvalue: float
    dim: int
    formulation: str


def refined_solve(K, b):
    """The dense solve: LU with iterative refinement in extended precision.

    Returns the solution, the max-norm residual in long double and the
    smallest eigenvalue of K. LU rather than Cholesky, so that a numerically
    indefinite K is reported through its eigenvalue instead of raising.
    """
    lu = scipy.linalg.lu_factor(K)
    c = scipy.linalg.lu_solve(lu, b)
    Kl = np.asarray(K, dtype=np.longdouble)
    bl = np.asarray(b, dtype=np.longdouble)
    for _ in range(3):
        r = bl - Kl @ np.asarray(c, dtype=np.longdouble)
        c = c + scipy.linalg.lu_solve(lu, np.asarray(r, dtype=float))
    residual = float(np.max(np.abs(Kl @ np.asarray(c, dtype=np.longdouble) - bl)))
    min_eig = float(scipy.linalg.eigvalsh(K)[0])
    return np.asarray(c, dtype=float), residual, min_eig


def solve(assembly, b):
    """Direct solve of K c = b with the energy (1/2) c.K.c - b.c."""
    K = assembly.K
    c, residual, min_eig = refined_solve(K, b)
    energy = float(0.5 * c @ K @ c - b @ c)
    return SolveReport(c, energy, residual, min_eig, len(b), assembly.formulation)


def displacement(basis, coefficients):
    """The field sum_a c_a v_a of a basis, in the basis family."""
    (u,) = pf.linear_combinations(basis.fields, np.asarray(coefficients, dtype=float)[:, None])
    return u


def functional_norm(u):
    """Norm of the solution space: sqrt of |grad u|^2 + |Curl sym grad u|^2."""
    U = pf.batch_fields([u])
    row = [*np.ravel(pf.jac(U)), *np.ravel(strain_curl(U))]
    return float(np.sqrt(pf.batch_gram(row)[0, 0]))


def recovery_error(basis, coefficients, u_star):
    return functional_norm(displacement(basis, coefficients) - u_star)


def coercivity_estimate(mat, orders=(1, 2, 3)):
    """Smallest generalized eigenvalue of K against the norm Gram, per order.

    Nonincreasing in the order (nested spans) and bounded away from zero;
    an empirical floor for the coercivity constant of the bilinear form.
    """
    out = []
    for order in orders:
        asm = assemble(bubble_basis(order), mat)
        lam = float(scipy.linalg.eigvalsh(asm.K, asm.G)[0])
        out.append({"order": order, "dim": len(asm.basis), "lambda_min": lam})
    return out


def sym_curl_bound_ratio(seed=0, trials=20, degree=4):
    """Empirical constant in the bound

      |sym grad u|^2 + |sym Curl sym grad u|^2 >= c ( |sym grad u|^2
                                                     + |Curl sym grad u|^2 )

    over box integrals of random polynomial fields. Returns the smallest
    and largest observed ratio; the bound holds with c equal to the
    smallest ratio, which must stay strictly positive.
    """
    rng = np.random.default_rng(seed)
    U = pf.batch_fields([pf.random_vec_field(rng, degree) for _ in range(trials)])
    e = tn.sym(pf.jac(U))
    k = pf.mat_curl(e)
    e2, sk2, k2 = (np.diag(pf.batch_gram(M)) for M in (e, tn.sym(k), k))
    ratios = (e2 + sk2) / (e2 + k2)
    return {"min_ratio": float(ratios.min()), "max_ratio": float(ratios.max()),
            "trials": trials}
