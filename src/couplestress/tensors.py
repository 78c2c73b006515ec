"""Dense 3-vector / 3x3-matrix algebra, dtype-agnostic.

Every function here works both on plain float arrays and on numpy object
arrays whose entries are scalar fields (anything supporting +, -, * and
integer powers). That lets the same algebra serve pointwise numerics and
exact polynomial computation.

Conventions:
  * anti(v) is the standard spin matrix, anti(v).w = v x w.
  * axl is its inverse on antisymmetric matrices.
  * The third-order permutation symbol is available as EPS[i,j,k].
"""
from __future__ import annotations

import numpy as np

EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0


def _zero_like(x):
    return x * 0.0


def _one_like(x):
    # 0.0 ** 0 == 1.0 in Python, and polynomial scalars define ** the same way
    return x ** 0


def identity_like(A):
    """3x3 identity with the same entry type as A."""
    one = _one_like(A[0, 0])
    zero = _zero_like(A[0, 0])
    out = np.empty((3, 3), dtype=A.dtype)
    for i in range(3):
        for j in range(3):
            out[i, j] = one * 1.0 if i == j else zero
    return out


def transpose(A):
    return A.T.copy()


def sym(A):
    return 0.5 * (A + A.T)


def skw(A):
    return 0.5 * (A - A.T)


def trace(A):
    return A[0, 0] + A[1, 1] + A[2, 2]


def sph(A):
    """Spherical part (tr A / 3) Id."""
    return (trace(A) * (1.0 / 3.0)) * identity_like(A)


def dev(A):
    return A - sph(A)


def devsym(A):
    return dev(sym(A))


def cartan_decompose(A):
    """Orthogonal split A = dev sym A + skw A + sph A."""
    return devsym(A), skw(A), sph(A)


def axl(A):
    """Axial vector of (the antisymmetric part of) A: axl(anti(v)) = v."""
    return np.array([A[2, 1], A[0, 2], A[1, 0]], dtype=A.dtype)


def anti(v):
    """Standard spin matrix of v: anti(v).w = v x w."""
    z = _zero_like(v[0])
    out = np.empty((3, 3), dtype=v.dtype if hasattr(v, "dtype") else object)
    out[0, 0] = z
    out[0, 1] = -v[2]
    out[0, 2] = v[1]
    out[1, 0] = v[2]
    out[1, 1] = z
    out[1, 2] = -v[0]
    out[2, 0] = -v[1]
    out[2, 1] = v[0]
    out[2, 2] = z
    return out


def _pair_dtype(a, b):
    """Numeric result dtype when both operands are numeric, else object."""
    da = a.dtype if hasattr(a, "dtype") else None
    db = b.dtype if hasattr(b, "dtype") else None
    if da is not None and db is not None and da != object and db != object:
        return np.result_type(da, db)
    return object


def cross(a, b):
    out = np.empty(3, dtype=_pair_dtype(a, b))
    out[0] = a[1] * b[2] - a[2] * b[1]
    out[1] = a[2] * b[0] - a[0] * b[2]
    out[2] = a[0] * b[1] - a[1] * b[0]
    return out


def outer(a, b):
    out = np.empty((3, 3), dtype=_pair_dtype(a, b))
    for i in range(3):
        for j in range(3):
            out[i, j] = a[i] * b[j]
    return out


def matmul(A, B):
    out = np.empty((3, 3), dtype=A.dtype)
    for i in range(3):
        for j in range(3):
            out[i, j] = A[i, 0] * B[0, j] + A[i, 1] * B[1, j] + A[i, 2] * B[2, j]
    return out


def matvec(A, v):
    out = np.empty(3, dtype=A.dtype)
    for i in range(3):
        out[i] = A[i, 0] * v[0] + A[i, 1] * v[1] + A[i, 2] * v[2]
    return out


def _sum_of_products(xs, ys):
    """x0*y0 + x1*y1 + ..., left to right.

    Scalar fields take their family's `dot`, which forms this same chain
    (Poly3 fuses it); floats and batches run the chain here.
    """
    from .polyfield import ScalarField  # polyfield imports this module

    if isinstance(xs[0], ScalarField):
        return type(xs[0]).dot(xs, ys)
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def inner(A, B):
    """Frobenius inner product of two 3x3 arrays."""
    return _sum_of_products(A.ravel(), B.ravel())


def inner_vec(a, b):
    return _sum_of_products(a[:3], b[:3])


def norm_sq(A):
    return inner(A, A)


def norm_sq_vec(v):
    return inner_vec(v, v)


def eps_contract(X):
    """Double contraction of the permutation tensor with a matrix.

    Component i is sum_jk EPS[i,j,k] X[k,j]; equals 2 axl(skw X), so the
    contraction with a spin matrix returns twice its axial vector.
    """
    out = np.empty(3, dtype=X.dtype)
    out[0] = X[2, 1] - X[1, 2]
    out[1] = X[0, 2] - X[2, 0]
    out[2] = X[1, 0] - X[0, 1]
    return out


def eps_dot(v):
    """Single contraction (i,j) -> sum_k EPS[i,j,k] v[k]; equals -anti(v)."""
    return -anti(v)


def ten3_inner(A, B):
    """Full contraction of two third-order arrays."""
    return _sum_of_products(A.ravel(), B.ravel())
