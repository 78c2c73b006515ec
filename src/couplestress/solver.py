"""Galerkin solver for the equilibrium problem on the unit box.

The displacement is sought in a finite span of fields vanishing on the
whole boundary; every integral of the stiffness matrix is exact because
the basis fields are polynomials (or exact trigonometric products). The
bilinear form can be assembled from either curvature route and the two
stiffness matrices must agree entry by entry.

A basis is a list of 1D factors in one scalar family (t(1-t) t^i for the
bubble basis, sin((i+1) pi t) for the sine basis): its fields are
s_n e_d with s_n a product of three factors. Every term of the stiffness
is linear with constant coefficients, so `assemble` runs the unchanged
operator code once per curvature route on `polyfield.unit_symbols()`,
whose entries are derivative symbols, and forms K and G from those
symbols and the 1D moments of the factors and their derivatives
(`polyfield.symbol_grams`: two Grams, one tensordot per axis each). The
terms of K are the parts of the law in `energies` under their stress
weights, and those of G the terms of `functional_norm`. Since the symbols
come from the same operator code as every other path, the
curl-against-axl agreement of K still tests the identity between the two
routes. The loads pair the coefficient stacks of their fields with the
factors in the same way, the face double force through the factors'
derivatives at the face. The basis is also one `polyfield.FieldStack`, for
displacements and the companion spans. The manufactured load runs the
stresses on u_star as a one-field batch and reads only the curl route,
so it forms one Jacobian and no axl field, and one double force per
axis. `recovery_error` takes u_h - u_star as one coefficient stack, the
basis combination minus the stack of u_star, through the batch path of
`functional_norm`, so it builds no field of u_h. Every linear system goes
through one dense solve, `refined_solve`.
Dense linear algebra (`scipy.linalg`) is imported on first use, in
`refined_solve` and `coercivity_estimate`, so the exact-calculus commands
start without it.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import polyfield as pf
from . import tensors as tn
from .energies import (_ROUTES, CURVATURE_PARTS, ELASTIC_PARTS, Material, _derived_fields,
                       _state, curvature_weights, elastic_weights, rotation_gradient,
                       strain_curl)
from .stresses import assemble as assemble_stresses, equilibrium_residual
from .tractions import ALL_FACES, curl_double_force
from .trig import TrigPoly


# --- bases -------------------------------------------------------------------


@dataclass(eq=False)
class Basis:
    """A Galerkin basis: fields s_n e_d over the separable scalars s_n, d fastest.

    s_n = phi_n0(x) phi_n1(y) phi_n2(z) for n in range(order)^3, n0
    slowest, and `factors` holds the 1D factors phi_i as rows on the
    family's dense index. Assembly and loads read only the factors;
    `fields` is the same basis as one `polyfield.FieldStack` (each scalar's
    cube in its component slot), for displacements and companions.
    """

    family: type
    factors: np.ndarray
    kind: str
    cap: int = pf.DEFAULT_CAP
    fields: pf.FieldStack = field(init=False, repr=False)

    def __post_init__(self):
        F = self.factors
        S = np.einsum("ai,bj,ck->abcijk", F, F, F)
        S = S.reshape((-1,) + S.shape[3:])
        X = np.zeros((len(S), 3, 3) + S.shape[1:])
        X[:, range(3), range(3)] = S[:, None]
        self.fields = pf.FieldStack(X.reshape((-1, 3) + S.shape[1:]), self.cap, self.family)

    @property
    def order(self):
        return len(self.factors)

    def __len__(self):
        return len(self.fields)


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
    """Fields B(x) x^a y^b z^c e_d of `bubble_scalars`, dimension 3 order^3.

    The 1D factors are t(1 - t) t^i, i < order; the cap is that of the
    scalars, each a product of seven fields of cap BUBBLE_CAP.
    """
    order = pf._count(order, "basis order", 1)
    F = np.zeros((order, order + 2))
    F[range(order), range(1, order + 1)] = 1.0
    F[range(order), range(2, order + 2)] = -1.0
    return Basis(pf.Poly3, F, "bubble", 7 * BUBBLE_CAP)


def sine_basis(order):
    """Fields sin(a pi x) sin(b pi y) sin(c pi z) e_d, frequencies 1..order."""
    order = pf._count(order, "basis order", 1)
    F = np.zeros((order, 2 * order + 1))
    F[range(order), range(1, 2 * order, 2)] = 1.0  # sin(f pi t) sits at index 2 f - 1
    return Basis(TrigPoly, F, "sine")


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

    Every term is linear with constant coefficients, so the operators run
    on `polyfield.unit_symbols()` (once per curvature operator), and K and
    G are formed from their symbols, weighted by the material, and the 1D
    moments of the basis factors, by `polyfield.symbol_grams`.
    """
    pf._choice(formulation, _ROUTES, "formulation")
    mat.validate_wellposed()
    curvature = strain_curl if formulation == "curl" else rotation_gradient
    stiffness = [*elastic_weights(mat)[1], *curvature_weights(mat)]
    weights = [stiffness + [0.0, 0.0], [0.0] * len(stiffness) + [1.0, 1.0]]
    K, G = pf.symbol_grams(_term_symbols(curvature), weights,
                           pf.factor_moments(basis.factors, basis.family))
    K = finite(0.5 * (K + K.T), "stiffness", mat)
    G = 0.5 * (G + G.T)
    return Assembly(basis, mat, formulation, K, G)


@functools.cache
def _term_symbols(curvature):
    """The terms of `assemble` on the unit symbols, formed once per curvature operator
    from one state of them: the parts of the law on J and k, then the norm terms."""
    U = pf.unit_symbols()
    with _derived_fields(U):
        s, k = _state(U), curvature(U)
        return (*(part(s.jacobian) for _, part in ELASTIC_PARTS),
                *(part(k) for _, part in CURVATURE_PARTS), *_norm_terms(s))


def _norm_terms(s):
    """The terms of the solution-space norm from the state s of u: J and Curl sym J."""
    return s.jacobian, s.k_curl


def finite(A, what, constants):
    """A, or OverflowError naming what overflowed (its builder silences numpy's warnings)."""
    if not np.isfinite(A).all():
        raise OverflowError(f"the {what} of {constants} overflows the float range")
    return A


def _load_pairing(basis, family, F, faces=()):
    """Volume pairing of a one-field vector stack F with every basis field, plus face terms.

    For the field s_n e_d the volume entry is the integral of F_d s_n; a
    face (x_a = v, normal n) with its stack G adds the integral over the
    face of G_d n_a d_a s_n. Each is sum_ijk A0[n0, i] A1[n1, j] A2[n2, k]
    X_d[i, j, k] for the cubes X of F or G, (1, 3, D, D, D) in the basis
    family: A = phi Mom on an axis that is integrated, and
    A[n, i] = n_a phi'_n(v) V_i(v) on the normal axis, V the family's 1D values at v.
    """
    pf._one_family({basis.family, family})
    D = max([basis.factors.shape[-1], F.shape[-1]] + [G.shape[-1] for _, G in faces])
    Phi = np.zeros((basis.order, D))
    Phi[:, :basis.factors.shape[-1]] = basis.factors
    A = Phi @ family.dense_moments(D)

    def pair(X, rows):
        """The contraction on X's own layout, which holds all of its nonzeros."""
        d = X.shape[-1]
        A0, A1, A2 = (r[:, :d] for r in rows)
        T = A0 @ (A1 @ (X @ A2.T)).reshape(3, d, -1)
        return T.reshape(3, -1).T.ravel()

    b = pair(F, [A] * 3)
    for face, G in faces:
        V = family.dense_values(D, face.value)
        rows = [A] * 3
        rows[face.axis] = np.outer(face.normal[face.axis] * (Phi @ family.dense_diff(D).T @ V), V)
        b += pair(G, rows)
    return b


def load_vector(basis, f):
    """b_a = integral of <f, basis field a>, through the basis factors."""
    F = pf.FieldStack.of([f])
    return _load_pairing(basis, F.family, F.cubes)


@np.errstate(over="ignore", invalid="ignore")
def manufactured_load(basis, u_star, mat, include_boundary=True):
    """Load vector under which u_star solves the discrete problem exactly.

    Volume part: f = -Div(sigma + tau) of u_star. Basis fields vanish on
    the boundary but their normal derivatives do not, so the natural
    boundary condition of u_star contributes face double-force work
    <g(u_star), grad v . n> that must be added to the load; dropping it is
    a genuine (demonstrable) error, not a simplification.

    The stresses run on u_star as a one-field batch, and f and each face's
    g are paired with the basis through its 1D factors, the face term
    through the factors' derivatives at the face. Only the curl route is
    read, so the stress state forms none of the axl fields, and g is formed
    once per axis: reversing n flips both sym(m x n) and n, so the two
    faces of an axis share it. f comes back as a field of u_star's family;
    b must be `finite`.
    """
    U = pf.FieldStack.of([u_star])
    state = assemble_stresses(U.batch(), mat)
    f = equilibrium_residual(state) * -1.0
    faces = ALL_FACES if include_boundary else ()
    g = {}
    for face in faces:
        if face.axis not in g:
            g[face.axis], _ = pf._stacks(curl_double_force(state, face))
    F, family = pf._stacks(f)
    b = _load_pairing(basis, family, F, [(face, g[face.axis]) for face in faces])
    (f,) = pf.FieldStack(F, U.cap, family)
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
    import scipy.linalg

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
    (u,) = _combination(basis, coefficients)
    return u


def _combination(basis, coefficients):
    """The stack of the one field sum_a c_a v_a."""
    return pf.linear_combinations(basis.fields, np.asarray(coefficients, dtype=float)[:, None])


@np.errstate(over="ignore", invalid="ignore")
def functional_norm(u):
    """Norm of the solution space: sqrt of |grad u|^2 + |Curl sym grad u|^2."""
    return _stack_norm(pf.FieldStack.of([u]))


def _stack_norm(U):
    """The functional norm of the one field of a stack U, through its batch."""
    row = [p for t in _norm_terms(_state(U.batch())) for p in np.ravel(t)]
    return float(np.sqrt(pf.batch_gram(row)[0, 0]))


@np.errstate(over="ignore", invalid="ignore")
def recovery_error(basis, coefficients, u_star):
    """functional_norm(displacement(basis, coefficients) - u_star), on coefficient stacks.

    u_h - u_star is one cube stack, the combination of the basis stack
    minus the stack of u_star (`polyfield._stack_difference`). That is the
    stack `FieldStack.of` makes of the field difference, so the norm is the
    same bit for bit, and no field of u_h is built.
    """
    return _stack_norm(pf._stack_difference(_combination(basis, coefficients),
                                            pf.FieldStack.of([u_star])))


def coercivity_estimate(mat, orders=(1, 2, 3)):
    """Smallest generalized eigenvalue of K against the norm Gram, per order.

    Nonincreasing in the order (nested spans) and bounded away from zero;
    an empirical floor for the coercivity constant of the bilinear form.
    """
    import scipy.linalg

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
    s = _state(pf.batch_fields([pf.random_vec_field(rng, degree) for _ in range(trials)]))
    e, k = tn.sym(s.jacobian), s.k_curl
    e2, sk2, k2 = (np.diag(pf.batch_gram(M)) for M in (e, tn.sym(k), k))
    ratios = (e2 + sk2) / (e2 + k2)
    return {"min_ratio": float(ratios.min()), "max_ratio": float(ratios.max()),
            "trials": trials}
