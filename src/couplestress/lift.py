"""Lift of the curvature energy to a quadratic form on second gradients.

Third-order tensors are flattened to 27-vectors with index 9a + 3b + c.
Two linear maps connect the strain-gradient space E[i,k,l] = strain_ik,l
and the second-gradient space T[k,i,j] = u_k,ij:

  * reconstruction: u_k,ij = strain_ik,j + strain_jk,i - strain_ij,k
  * half symmetrization: strain_ik,l = (T[i,k,l] + T[k,i,l]) / 2

The row-wise curvature pairing sum_i <L^i k_i, k_i> acts on the rows k_i
of k = Curl(sym grad u) through 3x3 blocks L^i; pulled back through the
reconstruction it becomes a sixth order form C on second gradients with
<C T, T> equal to the row-wise pairing for every displacement field. The
blocks keep only the same-row entries L4[i, j, i, l] of the law's
fourth-order tensor, so the row-wise pairing is neither the law's curvature
density nor isotropic (`sixth_order_from_blocks`). Both sides are one
pairing <M f, f>, the chain of f[r] * f[c] * M[r, c] over the nonzeros of
M in row-major order: the block-diagonal matrix of the L^i on the rows of
k, and C on the flattened second gradient.

The round trip A(H(T)) runs on the coefficient stack of the second gradient,
one vectorized step per term rank of the rows of A H, which is the float
arithmetic of `apply_flat` on the Poly3 fields, coefficient by coefficient.

The law comes from `energies`: the fourth-order tensor and the full-matrix
pairing are its curvature parts under the weights (2 a1, 2 a2). Every
matrix here is formed from unit inputs by the map it represents: the
index maps above, the law, and `tensors.axl`, `anti` and `skw`.
"""
from __future__ import annotations

import functools

import numpy as np

from . import polyfield as pf
from . import tensors as tn
from .energies import CURVATURE_PARTS, _state, conjugate, quadratic, strain_curl


def flat_index(a, b, c):
    return 9 * a + 3 * b + c


def _matrix(f, shape):
    """The matrix of the linear map f on arrays of this shape: column m is the
    raveled image of the m-th unit input (raveled in the same order)."""
    n = int(np.prod(shape))
    return np.stack([np.ravel(f(e.reshape(shape))) for e in np.eye(n)], axis=1)


def _slot_matrix(f):
    """`_matrix` of a map f of third-order tensors that acts on the last three
    axes of a stack of them, from one call on the stack of all 27 unit tensors."""
    return np.ascontiguousarray(f(np.eye(27).reshape(27, 3, 3, 3)).reshape(27, 27).T)


# --- maps between strain gradients and second gradients ----------------------


_SIGNS = {"corrected": 1.0, "printed": -1.0}  # each convention's sign of its second term


def reconstruction_matrix(signs="corrected"):
    """27x27 map from flattened strain gradients to second gradients.

    signs="corrected" uses (+, +, -) on the three strain-gradient terms,
    which round-trips against half symmetrization. signs="printed" keeps
    the (+, -, -) variant that circulates in the literature and fails the
    round trip; it exists so the failure can be demonstrated, not used.
    """
    s2 = _SIGNS[pf._choice(signs, _SIGNS, "sign convention")]
    # T[k, i, j] = E[i, k, j] + s2 E[j, k, i] - E[i, j, k]
    return _slot_matrix(lambda E: np.swapaxes(E, -3, -2) + s2 * np.moveaxis(E, -3, -1)
                        - np.moveaxis(E, -1, -3))


def halfsym_matrix():
    """27x27 map from second gradients to strain gradients."""
    return _slot_matrix(lambda T: 0.5 * (T + np.swapaxes(T, -3, -2)))


def last_two_symmetrizer():
    """Projection of T onto tensors symmetric in the last two slots."""
    return _slot_matrix(lambda T: 0.5 * (T + np.swapaxes(T, -2, -1)))


# The projection of E onto tensors symmetric in the first two slots. On the flat
# index (i, k, l) it averages E_ikl and E_kil, which is the same 27x27 matrix as
# `halfsym_matrix`: that map takes second gradients u_i,kl to strain gradients by
# the same average. Both names stay, one for each reading.
first_two_symmetrizer = halfsym_matrix


def flatten_field(T):
    """Flatten a 3x3x3 object array of polynomials to a length-27 list."""
    return np.array(T, dtype=object).reshape(27)


def strain_gradient_flat(u):
    return flatten_field(_state(u).strain_gradient)


def second_gradient_flat(u):
    return flatten_field(_state(u).second_gradient)


def apply_flat(M, field_flat):
    """Apply a numeric 27x27 matrix to a flattened polynomial field."""
    return np.array([sum((field_flat[c] * float(row[c]) for c in np.nonzero(row)[0]),
                         pf.Poly3.zero()) for row in M], dtype=object)


@functools.cache
def _roundtrip_terms(signs):
    """The nonzeros of the round-trip map A H of a sign convention, formed once, by
    their rank within their row: for rank 0, 1, ... the rows that have a term of
    that rank, its column and its value. Summed rank by rank, they add each
    row's terms in ascending column, as `apply_flat` does."""
    M = reconstruction_matrix(signs) @ halfsym_matrix()
    rows, cols = np.nonzero(M)
    vals = M[rows, cols]
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    return [(rows[at], cols[at], vals[at]) for at in (rank == r for r in range(rank.max() + 1))]


@np.errstate(over="ignore", invalid="ignore")
def roundtrip_gap(u, signs="corrected"):
    """Max coefficient of A(H(T)) - T on a genuine second gradient; a field with
    a non-finite coefficient gives a non-finite gap.

    A H is applied to the coefficient stack of T, one step per term rank of its
    rows (`_roundtrip_terms`): each coefficient takes the float operations of
    `apply_flat` on the Poly3 fields, in the same order, where a missing key
    counts as 0.0, so the gap is the same bit for bit and no field is formed.
    """
    terms = _roundtrip_terms(pf._choice(signs, _SIGNS, "sign convention"))
    X = pf.FieldStack.of([_state(u).second_gradient]).cubes.reshape(27, -1)
    back = np.zeros_like(X)
    for rows, cols, vals in terms:
        back[rows] += X[cols] * vals[:, None]
    return float(np.abs(back - X).max(initial=0.0))


# --- curvature blocks ---------------------------------------------------------


def isotropic_fourth_order(alpha1, alpha2):
    """L4[i,j,k,l] of 2 a1 P_devsym + 2 a2 P_skw acting on 3x3 matrices."""
    weights = (2.0 * alpha1, 2.0 * alpha2)
    return _matrix(lambda E: conjugate(E, weights, CURVATURE_PARTS), (3, 3)).reshape(3, 3, 3, 3)


def blocks_from_tensor(L4):
    """Row blocks L^i with (L^i)_jl = L4[i, j, i, l]."""
    return [np.array([[L4[i, j, i, l] for l in range(3)] for j in range(3)]) for i in range(3)]


def isotropic_blocks(alpha1, alpha2):
    """Closed form of the isotropic row blocks: diagonal float matrices with
    4 a1 / 3 in slot (i, i) and a1 + a2 elsewhere, for integer weights too."""
    blocks = []
    for i in range(3):
        d = np.full(3, alpha1 + alpha2, dtype=float)
        d[i] = 4.0 * alpha1 / 3.0
        blocks.append(np.diag(d))
    return blocks


def block_lift(blocks):
    """27x27 block-diagonal curvature form on strain gradients.

    Slice i acts as 2 anti . L^i . axl . skw, so that the quadratic form
    equals sum_i <L^i curl(strain row i), curl(strain row i)>.
    """
    Sa = _matrix(tn.axl, (3, 3))
    Sn = _matrix(tn.anti, (3,)) + 0.0  # tn.anti writes -v as -0.0; C keeps +0.0 entries
    Sk = _matrix(tn.skw, (3, 3))
    B = np.zeros((27, 27))
    for i in range(3):
        Bi = 2.0 * Sk @ Sn @ blocks[i] @ Sa @ Sk
        B[9 * i : 9 * i + 9, 9 * i : 9 * i + 9] = Bi
    return B


def sixth_order_from_blocks(blocks):
    """C = P H^T B H P with H the half symmetrization and P the last-two
    symmetrizer.

    The quadratic form of C on second gradients reproduces the row-wise
    pairing sum_i <L^i k_i, k_i> over the rows k_i of k = Curl sym grad u.
    That pairing keeps only the same-row blocks of the law's fourth-order
    tensor, so it is neither the law's curvature density nor isotropic: with
    `isotropic_blocks(1, 0)` it is |k|^2 + (1/3) sum_i k_ii^2, and on
    `random_vec_field(default_rng(0), 3)` its box integral is 22.56 against
    26.25 for the law's 2 |dev sym k|^2 (`matrix_pairing`).
    """
    H = halfsym_matrix()
    P = last_two_symmetrizer()
    B = block_lift(blocks)
    return P @ H.T @ B @ H @ P


def sixth_order_isotropic(alpha1, alpha2):
    """`sixth_order_from_blocks` of `isotropic_blocks`: the lift of the row-wise
    pairing sum_i <L^i k_i, k_i>, which is neither the law's curvature density
    nor isotropic, though its blocks come from the isotropic law."""
    return sixth_order_from_blocks(isotropic_blocks(alpha1, alpha2))


# --- pairings -----------------------------------------------------------------


def _pairing(M, f):
    """<M f, f> for a numeric matrix M and a flat field f: Poly3.zero() plus the
    chain of f[r] * f[c] * M[r, c] over the nonzeros of M in row-major order."""
    rows, cols = np.nonzero(M)
    acc = pf.Poly3.zero()
    return acc + pf.Poly3.dot(f[rows], f[cols], M[rows, cols].tolist()) if len(rows) else acc


def row_pairing(k, blocks):
    """sum_i <L^i k_i, k_i> as an exact polynomial, rows of k as vectors: the
    pairing of the block-diagonal matrix of the blocks with k row-major."""
    M = np.zeros((3, 3, 3, 3))  # M[i, j, i, l] = L^i[j, l]
    M[range(3), :, range(3)] = blocks
    return _pairing(M.reshape(9, 9), np.asarray(k, dtype=object).reshape(9))


def matrix_pairing(k, alpha1, alpha2):
    """Full-matrix contraction 2 a1 |dev sym k|^2 + 2 a2 |skw k|^2.

    Coincides with the row pairing on single-row curvatures but differs
    generically by cross-row terms; reported as a diagnostic, never
    asserted equal.
    """
    return quadratic(k, (2.0 * alpha1, 2.0 * alpha2), CURVATURE_PARTS)


def second_gradient_pairing(u, C):
    """<C T, T> for T the flattened second gradient of u."""
    return _pairing(C, second_gradient_flat(u))


def verify_energy_equality(u, alpha1, alpha2, C=None):
    """Max coefficient of <C D^2 u, D^2 u> - sum_i <L^i k_i, k_i>."""
    blocks = isotropic_blocks(alpha1, alpha2)
    if C is None:
        C = sixth_order_from_blocks(blocks)
    lhs = second_gradient_pairing(u, C)
    rhs = row_pairing(strain_curl(u), blocks)
    return (lhs - rhs).max_abs_coeff()


def defining_relation_gap(blocks):
    """|S^T (A^T C A - B) S| restricted to symmetric strain gradients.

    A^T C A reproduces the block form only on tensors symmetric in the
    first two slots, which is where strain gradients live.
    """
    A = reconstruction_matrix("corrected")
    C = sixth_order_from_blocks(blocks)
    B = block_lift(blocks)
    S = first_two_symmetrizer()
    return float(np.max(np.abs(S.T @ (A.T @ C @ A - B) @ S)))


def export_flat(C):
    """JSON-ready description of the sixth-order form."""
    return {
        "shape": [27, 27],
        "index_convention": "flat = 9a + 3b + c for tensor slot (a, b, c)",
        "second_gradient_slot_order": "T[k, i, j] = d^2 u_k / d x_i d x_j",
        "entries": [[float(C[r, c]) for c in range(27)] for r in range(27)],
    }
