"""Exact trivariate polynomials on the unit box and polynomial tensor fields.

A Poly3 is a sparse coefficient dictionary keyed by exponent triples. All
arithmetic is exact up to float rounding of the coefficients themselves;
differentiation and integration over [0,1]^3 are closed-form. Vector and
matrix fields are numpy object arrays of Poly3, so the helpers in
`tensors` apply to them unchanged. For bulk linear algebra, stacks of
fields convert to dense per-axis coefficient cubes and back.

Every polynomial carries a degree cap. Construction past the cap raises
DegreeCapError; sums take the larger cap, products add caps. The cap is a
tripwire against runaway degree growth in long operator chains, not a
truncation: no coefficient is ever dropped.
"""
from __future__ import annotations

import numpy as np

from . import tensors as tn

DEFAULT_CAP = 8

_AXES = {0: 0, 1: 1, 2: 2, "x": 0, "y": 1, "z": 2, "x1": 0, "x2": 1, "x3": 2}


class DegreeCapError(ValueError):
    """Raised when a polynomial would exceed its degree cap."""


def _axis(axis):
    try:
        return _AXES[axis]
    except KeyError:
        raise ValueError(f"unknown axis {axis!r}") from None


class Poly3:
    """Polynomial in three variables with float coefficients."""

    __slots__ = ("coef", "cap")

    def __init__(self, coef=None, cap=DEFAULT_CAP):
        clean = {}
        if coef:
            for key, val in coef.items():
                i, j, k = key
                if i < 0 or j < 0 or k < 0:
                    raise ValueError(f"negative exponent in {key}")
                v = float(val)
                if v == 0.0:
                    continue
                if i + j + k > cap:
                    raise DegreeCapError(
                        f"monomial {key} exceeds degree cap {cap}"
                    )
                clean[(int(i), int(j), int(k))] = v
        self.coef = clean
        self.cap = int(cap)

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, cap=DEFAULT_CAP):
        return cls({}, cap)

    @classmethod
    def const(cls, value, cap=DEFAULT_CAP):
        return cls({(0, 0, 0): float(value)}, cap)

    @classmethod
    def monomial(cls, exps, coeff=1.0, cap=None):
        if cap is None:
            cap = max(DEFAULT_CAP, sum(exps))
        return cls({tuple(exps): coeff}, cap)

    @classmethod
    def variable(cls, axis, cap=DEFAULT_CAP):
        e = [0, 0, 0]
        e[_axis(axis)] = 1
        return cls({tuple(e): 1.0}, cap)

    # --- queries --------------------------------------------------------

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.coef:
            return -1
        return max(i + j + k for (i, j, k) in self.coef)

    def max_abs_coeff(self):
        if not self.coef:
            return 0.0
        return max(abs(v) for v in self.coef.values())

    def is_zero(self, tol=0.0):
        return self.max_abs_coeff() <= tol

    # --- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly3):
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Poly3.const(float(other), self.cap)
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        cap = max(self.cap, q.cap)
        coef = dict(self.coef)
        for key, val in q.coef.items():
            coef[key] = coef.get(key, 0.0) + val
        return Poly3(coef, cap)

    __radd__ = __add__

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly3({k: -v for k, v in self.coef.items()}, self.cap)

    def __mul__(self, other):
        if isinstance(other, Poly3):
            cap = self.cap + other.cap
            coef = {}
            for (a, b, c), u in self.coef.items():
                for (d, e, f), v in other.coef.items():
                    key = (a + d, b + e, c + f)
                    coef[key] = coef.get(key, 0.0) + u * v
            return Poly3(coef, cap)
        if isinstance(other, (int, float, np.floating, np.integer)):
            s = float(other)
            return Poly3({k: v * s for k, v in self.coef.items()}, self.cap)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self * (1.0 / float(other))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Poly3.const(1.0, self.cap)
        for _ in range(int(n)):
            out = out * self
        return out

    # --- calculus -------------------------------------------------------

    def diff(self, axis):
        ax = _axis(axis)
        coef = {}
        for key, val in self.coef.items():
            e = key[ax]
            if e == 0:
                continue
            new = list(key)
            new[ax] = e - 1
            coef[tuple(new)] = coef.get(tuple(new), 0.0) + e * val
        return Poly3(coef, self.cap)

    def integrate(self):
        """Exact integral over the unit box [0,1]^3."""
        acc = 0.0
        for (i, j, k), val in self.coef.items():
            acc += val / ((i + 1) * (j + 1) * (k + 1))
        return acc

    def restrict(self, axis, value):
        """Substitute one variable by a constant."""
        ax = _axis(axis)
        value = float(value)
        coef = {}
        for key, val in self.coef.items():
            e = key[ax]
            new = list(key)
            new[ax] = 0
            coef_key = tuple(new)
            coef[coef_key] = coef.get(coef_key, 0.0) + val * value**e
        return Poly3(coef, self.cap)

    def eval(self, pts):
        """Evaluate on an (..., 3) array of points."""
        pts = np.asarray(pts, dtype=float)
        squeeze = pts.ndim == 1
        p = pts.reshape(-1, 3)
        out = np.zeros(p.shape[0])
        for (i, j, k), val in self.coef.items():
            out += val * p[:, 0] ** i * p[:, 1] ** j * p[:, 2] ** k
        if squeeze:
            return float(out[0])
        return out.reshape(pts.shape[:-1])

    def __repr__(self):
        n = len(self.coef)
        return f"Poly3({n} terms, degree {self.degree()}, cap {self.cap})"


def integral_of_product(p, q):
    """Exact value of the box integral of p*q without forming the product."""
    acc = 0.0
    for (a, b, c), u in p.coef.items():
        for (d, e, f), v in q.coef.items():
            acc += u * v / ((a + d + 1) * (b + e + 1) * (c + f + 1))
    return acc


# --- dense coefficient cubes ---------------------------------------------
#
# A dense cube holds the coefficient of x^i y^j z^k at [i, j, k]; D is one
# more than the largest single-variable exponent. Stacks of fields share one
# D so that they can be contracted against each other.


def dense_degree(polys):
    deg = 0
    for p in polys:
        for (i, j, k) in p.coef:
            deg = max(deg, i, j, k)
    return deg


def to_dense(p, D):
    out = np.zeros((D, D, D))
    for (i, j, k), v in p.coef.items():
        out[i, j, k] = v
    return out


def from_dense(cube, cap=DEFAULT_CAP):
    """Poly3 from the nonzero entries of a dense cube."""
    idx = np.nonzero(cube)
    return Poly3(dict(zip(zip(*idx), cube[idx])), cap)


def dense_stack(rows, D=None):
    """Array of shape (n, m, D, D, D) from n rows of m Poly3 each.

    D defaults to the smallest size that holds every row.
    """
    if D is None:
        D = dense_degree(p for row in rows for p in row) + 1
    X = np.zeros((len(rows), len(rows[0]), D, D, D))
    for a, row in enumerate(rows):
        for q, p in enumerate(row):
            X[a, q] = to_dense(p, D)
    return X


def linear_combinations(fields, W, X=None):
    """The fields sum_a W[a, r] fields[a], one per column r of W.

    fields are equally shaped Poly3 arrays. The sums are formed in
    coefficient space, by one contraction of W with the dense stack X of
    the fields (built here unless the caller already has it), so only the
    summation order differs from term-by-term Poly3 arithmetic. Like a sum,
    each result takes the largest cap among the fields.
    """
    shape = np.shape(fields[0])
    flat = [np.ravel(F) for F in fields]
    if X is None:
        X = dense_stack(flat)
    cap = max(p.cap for row in flat for p in row)
    out = []
    for cubes in np.tensordot(W, X, axes=(0, 0)):
        F = np.empty(len(cubes), dtype=object)
        for q, cube in enumerate(cubes):
            F[q] = from_dense(cube, cap)
        out.append(F.reshape(shape))
    return out


# --- field constructors -----------------------------------------------


def as_vec(components):
    out = np.empty(3, dtype=object)
    for i in range(3):
        out[i] = components[i]
    return out


def as_mat(rows):
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            out[i, j] = rows[i][j]
    return out


def const_vec(values, cap=DEFAULT_CAP):
    return as_vec([Poly3.const(v, cap) for v in values])


def const_mat(values, cap=DEFAULT_CAP):
    return as_mat([[Poly3.const(values[i][j], cap) for j in range(3)] for i in range(3)])


def zero_vec(cap=DEFAULT_CAP):
    return const_vec([0.0, 0.0, 0.0], cap)


def zero_mat(cap=DEFAULT_CAP):
    return const_mat([[0.0] * 3 for _ in range(3)], cap)


# --- differential operators -------------------------------------------


def grad(p):
    """Gradient of a scalar field."""
    return as_vec([p.diff(0), p.diff(1), p.diff(2)])


def jac(u):
    """Jacobian of a vector field, J[i,j] = d u_i / d x_j."""
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            out[i, j] = u[i].diff(j)
    return out


def div(u):
    return u[0].diff(0) + u[1].diff(1) + u[2].diff(2)


def curl(u):
    return as_vec(
        [
            u[2].diff(1) - u[1].diff(2),
            u[0].diff(2) - u[2].diff(0),
            u[1].diff(0) - u[0].diff(1),
        ]
    )


def mat_grad(P):
    """Third-order gradient of a matrix field, G[i,j,k] = d P_ij / d x_k."""
    out = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i, j, k] = P[i, j].diff(k)
    return out


def mat_curl(P):
    """Row-wise curl: row i of the result is curl of row i of P.

    Componentwise (Curl P)_ij = sum_lk EPS[j,l,k] d P_ik / d x_l.
    """
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        row = as_vec([P[i, 0], P[i, 1], P[i, 2]])
        c = curl(row)
        for j in range(3):
            out[i, j] = c[j]
    return out


def mat_div(P):
    """Row-wise divergence, (Div P)_i = sum_j d P_ij / d x_j."""
    return as_vec(
        [P[i, 0].diff(0) + P[i, 1].diff(1) + P[i, 2].diff(2) for i in range(3)]
    )


def second_gradient(u):
    """Second gradient of a vector field, T[k,i,j] = d^2 u_k / d x_i d x_j."""
    out = np.empty((3, 3, 3), dtype=object)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                out[k, i, j] = u[k].diff(i).diff(j)
    return out


def strain_gradient(u):
    """Gradient of the symmetric strain, E[i,k,l] = d (sym grad u)_ik / d x_l."""
    eps = tn.sym(jac(u))
    out = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for k in range(3):
            for l in range(3):
                out[i, k, l] = eps[i, k].diff(l)
    return out


# --- evaluation and integration helpers ---------------------------------


def eval_vec(u, pts):
    pts = np.asarray(pts, dtype=float)
    single = pts.ndim == 1
    p = pts.reshape(-1, 3)
    out = np.stack([u[i].eval(p) for i in range(3)], axis=-1)
    return out[0] if single else out


def eval_mat(P, pts):
    pts = np.asarray(pts, dtype=float)
    single = pts.ndim == 1
    p = pts.reshape(-1, 3)
    out = np.empty((p.shape[0], 3, 3))
    for i in range(3):
        for j in range(3):
            out[:, i, j] = P[i, j].eval(p)
    return out[0] if single else out


def integrate_inner_vec(u, v):
    return sum(integral_of_product(u[i], v[i]) for i in range(3))


def integrate_inner_mat(A, B):
    return sum(
        integral_of_product(A[i, j], B[i, j]) for i in range(3) for j in range(3)
    )


def max_abs_coeff_vec(u):
    return max(u[i].max_abs_coeff() for i in range(3))


def max_abs_coeff_mat(A):
    return max(A[i, j].max_abs_coeff() for i in range(3) for j in range(3))


def max_abs_coeff_ten3(T):
    return max(
        T[i, j, k].max_abs_coeff() for i in range(3) for j in range(3) for k in range(3)
    )


# --- random fields -------------------------------------------------------


def random_poly(rng, degree, cap=None, scale=1.0):
    """Dense random polynomial with uniform(-scale, scale) coefficients."""
    if cap is None:
        cap = max(DEFAULT_CAP, degree)
    coef = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            for k in range(degree + 1 - i - j):
                coef[(i, j, k)] = rng.uniform(-scale, scale)
    return Poly3(coef, cap)


def random_vec_field(rng, degree, cap=None, scale=1.0):
    return as_vec([random_poly(rng, degree, cap, scale) for _ in range(3)])


def random_mat_field(rng, degree, cap=None, scale=1.0):
    return as_mat(
        [[random_poly(rng, degree, cap, scale) for _ in range(3)] for _ in range(3)]
    )


def random_sym_mat_field(rng, degree, cap=None, scale=1.0):
    return tn.sym(random_mat_field(rng, degree, cap, scale))


def random_skw_mat_field(rng, degree, cap=None, scale=1.0):
    return tn.anti(random_vec_field(rng, degree, cap, scale))


# --- face restriction ----------------------------------------------------


def face_integral(p, axis, value):
    """Exact integral of a polynomial over one box face."""
    return p.restrict(axis, value).integrate()
