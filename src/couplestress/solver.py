"""Galerkin solver for the equilibrium problem on the unit box.

The displacement is sought in a finite span of fields vanishing on the
whole boundary; every integral of the stiffness matrix is exact because
the basis fields are polynomials (or exact trigonometric products). The
bilinear form can be assembled from either curvature route and the two
stiffness matrices must agree entry by entry.

Every box pairing (stiffness, norm Gram, load, functional norm) is one
contraction of dense per-axis coefficient cubes, `polyfield.dense_gram`.
The basis family only chooses the per-axis index of a term and the 1D
moment matrix: monomial exponents for the bubble basis, sin/cos factors
for the sine basis. Every linear system goes through one dense solve,
`refined_solve`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import polyfield as pf
from . import tensors as tn
from .energies import Material, rotation_gradient, strain_curl
from .stresses import assemble as assemble_stresses
from .tractions import ALL_FACES, traction_curl_form
from .trig import TrigPoly


# --- bases -------------------------------------------------------------------


@dataclass
class Basis:
    fields: list
    kind: str
    order: int

    def __len__(self):
        return len(self.fields)


def bubble_basis(order, cap=14):
    """Fields B(x) x^a y^b z^c e_d with exponents below `order`.

    B is the product bubble x(1-x) y(1-y) z(1-z), so every field and its
    first derivatives vanish nowhere one needs them to and the field itself
    is zero on all six faces. Dimension 3 order^3.
    """
    xs = [pf.Poly3.variable(ax, cap) for ax in range(3)]
    bubble = xs[0] * (1.0 - xs[0]) * (1.0 - xs[1]) * xs[1] * xs[2] * (1.0 - xs[2])
    fields = []
    for a in range(order):
        for b in range(order):
            for c in range(order):
                mono = pf.Poly3.monomial((a, b, c), 1.0, cap)
                scalar = bubble * mono
                for d in range(3):
                    comps = [pf.Poly3.zero(scalar.cap)] * 3
                    comps[d] = scalar
                    fields.append(pf.as_vec(comps))
    return Basis(fields, "bubble", order)


def sine_basis(order):
    """Fields sin(a pi x) sin(b pi y) sin(c pi z) e_d, frequencies 1..order."""
    fields = []
    for a in range(1, order + 1):
        for b in range(1, order + 1):
            for c in range(1, order + 1):
                scalar = TrigPoly.sine_mode((a, b, c))
                for d in range(3):
                    comps = [TrigPoly.zero()] * 3
                    comps[d] = scalar
                    fields.append(pf.as_vec(comps))
    return Basis(fields, "sine", order)


# --- assembly -----------------------------------------------------------------


@dataclass
class Assembly:
    basis: Basis
    material: Material
    formulation: str
    K: np.ndarray
    G: np.ndarray


def _cached_quantities(u, formulation):
    """Rows of scalars paired in K and G, keyed by term."""
    J = pf.jac(u)
    k_curl = strain_curl(u)
    k = k_curl if formulation == "curl" else rotation_gradient(u)
    return {
        "sym": _flatten9(tn.sym(J)),
        "tr": [tn.trace(J)],
        "devk": _flatten9(tn.devsym(k)),
        "skwk": _flatten9(tn.skw(k)),
        "J": _flatten9(J),
        "k": _flatten9(k_curl),
    }


def _flatten9(M):
    return [M[i, j] for i in range(3) for j in range(3)]


def assemble(basis, mat, formulation="curl"):
    """Stiffness K and functional-norm Gram G, both exactly integrated.

    K is the bilinear form 2 mu <sym Ju, sym Jv> + lam tr Ju tr Jv
    + mu ell^2 (2 a1 <dev sym ku, dev sym kv> + 2 a2 <skw ku, skw kv>);
    G is the Gram of |grad u|^2 + |Curl sym grad u|^2.
    """
    if formulation not in ("curl", "axl"):
        raise ValueError(f"unknown formulation {formulation!r}")
    mat.validate_wellposed()
    cached = [_cached_quantities(u, formulation) for u in basis.fields]
    D, M = pf.dense_layout(p for c in cached for row in c.values() for p in row)
    gram = {
        key: pf.dense_gram(pf.dense_stack([c[key] for c in cached], D), M)
        for key in cached[0]
    }
    s = mat.curvature_scale
    K = (
        2.0 * mat.mu * gram["sym"]
        + mat.lam * gram["tr"]
        + s * (2.0 * mat.alpha1 * gram["devk"] + 2.0 * mat.alpha2 * gram["skwk"])
    )
    G = gram["J"] + gram["k"]
    K = 0.5 * (K + K.T)
    G = 0.5 * (G + G.T)
    return Assembly(basis, mat, formulation, K, G)


def load_vector(basis, f):
    """b_a = integral of <f, basis field a>."""
    return pf.box_gram([list(u) for u in basis.fields], [list(f)])[:, 0]


def manufactured_load(basis, u_star, mat, boundary_sign=1.0, include_boundary=True):
    """Load vector under which u_star solves the discrete problem exactly.

    Volume part: f = -Div(sigma + tau) of u_star. Basis fields vanish on
    the boundary but their normal derivatives do not, so the natural
    boundary condition of u_star contributes face double-force work
    <g(u_star), grad v . n> that must be added to the load; dropping it is
    a genuine (demonstrable) error, not a simplification.
    """
    state = assemble_stresses(u_star, mat)
    r = pf.mat_div(state.total_curl)
    f = pf.as_vec([r[i] * (-1.0) for i in range(3)])
    b = load_vector(basis, f)
    if include_boundary:
        for face in ALL_FACES:
            g = traction_curl_form(state, face).double_force
            n = face.normal
            for a, v in enumerate(basis.fields):
                dn = tn.matvec(pf.jac(v), n)
                term = sum(
                    face.integrate(g[i] * dn[i]) for i in range(3)
                )
                b[a] += boundary_sign * term
    return f, b


@dataclass
class SolveReport:
    coefficients: np.ndarray
    energy: float
    residual: float
    min_eigenvalue: float
    dim: int
    formulation: str
    extras: dict = field(default_factory=dict)


def refined_solve(K, b, sweeps=3):
    """The dense solve: LU with iterative refinement in extended precision.

    Returns the solution, the max-norm residual in long double and the
    smallest eigenvalue of K. LU rather than Cholesky, so that a numerically
    indefinite K is reported through its eigenvalue instead of raising.
    """
    lu = scipy.linalg.lu_factor(K)
    c = scipy.linalg.lu_solve(lu, b)
    Kl = np.asarray(K, dtype=np.longdouble)
    bl = np.asarray(b, dtype=np.longdouble)
    for _ in range(sweeps):
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
    comps = [basis.fields[0][0] * 0.0] * 3
    for c, u in zip(coefficients, basis.fields):
        for i in range(3):
            comps[i] = comps[i] + u[i] * float(c)
    return pf.as_vec(comps)


def functional_norm(u):
    """Norm of the solution space: sqrt of |grad u|^2 + |Curl sym grad u|^2."""
    row = _flatten9(pf.jac(u)) + _flatten9(strain_curl(u))
    return float(np.sqrt(pf.box_gram([row])[0, 0]))


def recovery_error(basis, coefficients, u_star):
    uh = displacement(basis, coefficients)
    diff = pf.as_vec([uh[i] - u_star[i] for i in range(3)])
    return functional_norm(diff)


def coercivity_estimate(mat, orders=(1, 2, 3), formulation="curl"):
    """Smallest generalized eigenvalue of K against the norm Gram, per order.

    Nonincreasing in the order (nested spans) and bounded away from zero;
    an empirical floor for the coercivity constant of the bilinear form.
    """
    out = []
    for order in orders:
        asm = assemble(bubble_basis(order), mat, formulation)
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
    ratios = []
    for _ in range(trials):
        u = pf.random_vec_field(rng, degree)
        e = tn.sym(pf.jac(u))
        k = pf.mat_curl(e)
        sq = np.diag(pf.box_gram([_flatten9(e), _flatten9(tn.sym(k)), _flatten9(k)]))
        ratios.append(float((sq[0] + sq[1]) / (sq[0] + sq[2])))
    return {"min_ratio": min(ratios), "max_ratio": max(ratios), "trials": trials}
