"""Lift of the curvature energy to a quadratic form on second gradients.

Third-order tensors are flattened to 27-vectors with index 9a + 3b + c.
Two linear maps connect the strain-gradient space E[i,k,l] = strain_ik,l
and the second-gradient space T[k,i,j] = u_k,ij:

  * reconstruction: u_k,ij = strain_ik,j + strain_jk,i - strain_ij,k
  * half symmetrization: strain_ik,l = (T[i,k,l] + T[k,i,l]) / 2

The curvature energy acts row by row on k = Curl(sym grad u) through 3x3
blocks L^i; pulled back through the reconstruction it becomes a sixth
order form C on second gradients with <C T, T> equal to the row-wise
curvature pairing for every displacement field.
"""
from __future__ import annotations

import numpy as np

from . import polyfield as pf
from . import tensors as tn
from .energies import strain_curl


def flat_index(a, b, c):
    return 9 * a + 3 * b + c


# --- maps between strain gradients and second gradients ----------------------


def reconstruction_matrix(signs="corrected"):
    """27x27 map from flattened strain gradients to second gradients.

    signs="corrected" uses (+, +, -) on the three strain-gradient terms,
    which round-trips against half symmetrization. signs="printed" keeps
    the (+, -, -) variant that circulates in the literature and fails the
    round trip; it exists so the failure can be demonstrated, not used.
    """
    if signs == "corrected":
        s2 = 1.0
    elif signs == "printed":
        s2 = -1.0
    else:
        raise ValueError("signs must be 'corrected' or 'printed'")
    A = np.zeros((27, 27))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                row = flat_index(k, i, j)
                A[row, flat_index(i, k, j)] += 1.0
                A[row, flat_index(j, k, i)] += s2
                A[row, flat_index(i, j, k)] -= 1.0
    return A


def halfsym_matrix():
    """27x27 map from second gradients to strain gradients."""
    H = np.zeros((27, 27))
    for i in range(3):
        for k in range(3):
            for l in range(3):
                row = flat_index(i, k, l)
                H[row, flat_index(i, k, l)] += 0.5
                H[row, flat_index(k, i, l)] += 0.5
    return H


def last_two_symmetrizer():
    """Projection of T onto tensors symmetric in the last two slots."""
    P = np.zeros((27, 27))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                row = flat_index(k, i, j)
                P[row, flat_index(k, i, j)] += 0.5
                P[row, flat_index(k, j, i)] += 0.5
    return P


def first_two_symmetrizer():
    """Projection of E onto tensors symmetric in the first two slots.

    On the flat index (i, k, l) this averages E_ikl and E_kil, which is the
    same 27x27 matrix as `halfsym_matrix`: that map takes second gradients
    u_i,kl to strain gradients by the same average. Both names stay, one
    for each reading.
    """
    return halfsym_matrix()


def flatten_field(T):
    """Flatten a 3x3x3 object array of polynomials to a length-27 list."""
    out = np.empty(27, dtype=object)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                out[flat_index(a, b, c)] = T[a, b, c]
    return out


def strain_gradient_flat(u):
    return flatten_field(pf.strain_gradient(u))


def second_gradient_flat(u):
    return flatten_field(pf.second_gradient(u))


def apply_flat(M, field_flat):
    """Apply a numeric 27x27 matrix to a flattened polynomial field."""
    out = np.empty(27, dtype=object)
    for r in range(27):
        acc = pf.Poly3.zero()
        for c in np.nonzero(M[r])[0]:
            acc = acc + field_flat[c] * float(M[r, c])
        out[r] = acc
    return out


def roundtrip_gap(u, signs="corrected"):
    """Max coefficient of A(H(T)) - T on a genuine second gradient."""
    A = reconstruction_matrix(signs)
    H = halfsym_matrix()
    T = second_gradient_flat(u)
    back = apply_flat(A @ H, T)
    return float(np.max([(back[r] - T[r]).max_abs_coeff() for r in range(27)]))


# --- curvature blocks ---------------------------------------------------------


def isotropic_fourth_order(alpha1, alpha2):
    """L4[i,j,k,l] of 2 a1 P_devsym + 2 a2 P_skw acting on 3x3 matrices."""
    L4 = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    symp = 0.5 * ((i == k) * (j == l) + (i == l) * (j == k)) - (
                        (i == j) * (k == l)
                    ) / 3.0
                    skwp = 0.5 * ((i == k) * (j == l) - (i == l) * (j == k))
                    L4[i, j, k, l] = 2.0 * alpha1 * symp + 2.0 * alpha2 * skwp
    return L4


def blocks_from_tensor(L4):
    """Row blocks L^i with (L^i)_jl = L4[i, j, i, l]."""
    return [np.array([[L4[i, j, i, l] for l in range(3)] for j in range(3)]) for i in range(3)]


def isotropic_blocks(alpha1, alpha2):
    """Closed form of the isotropic row blocks: diagonal matrices with
    4 a1 / 3 in slot (i, i) and a1 + a2 elsewhere."""
    blocks = []
    for i in range(3):
        d = np.full(3, alpha1 + alpha2)
        d[i] = 4.0 * alpha1 / 3.0
        blocks.append(np.diag(d))
    return blocks


def _axl_matrix():
    S = np.zeros((3, 9))
    S[0, 3 * 2 + 1] = 1.0
    S[1, 3 * 0 + 2] = 1.0
    S[2, 3 * 1 + 0] = 1.0
    return S


def _anti_matrix():
    S = np.zeros((9, 3))
    S[3 * 0 + 1, 2] = -1.0
    S[3 * 0 + 2, 1] = 1.0
    S[3 * 1 + 0, 2] = 1.0
    S[3 * 1 + 2, 0] = -1.0
    S[3 * 2 + 0, 1] = -1.0
    S[3 * 2 + 1, 0] = 1.0
    return S


def _skw_matrix():
    S = np.zeros((9, 9))
    for k in range(3):
        for l in range(3):
            S[3 * k + l, 3 * k + l] += 0.5
            S[3 * k + l, 3 * l + k] -= 0.5
    return S


def block_lift(blocks):
    """27x27 block-diagonal curvature form on strain gradients.

    Slice i acts as 2 anti . L^i . axl . skw, so that the quadratic form
    equals sum_i <L^i curl(strain row i), curl(strain row i)>.
    """
    Sa = _axl_matrix()
    Sn = _anti_matrix()
    Sk = _skw_matrix()
    B = np.zeros((27, 27))
    for i in range(3):
        Bi = 2.0 * Sk @ Sn @ blocks[i] @ Sa @ Sk
        B[9 * i : 9 * i + 9, 9 * i : 9 * i + 9] = Bi
    return B


def sixth_order_from_blocks(blocks):
    """C = P H^T B H P with H the half symmetrization and P the last-two
    symmetrizer; the quadratic form of C on second gradients reproduces
    the row-wise curvature pairing."""
    H = halfsym_matrix()
    P = last_two_symmetrizer()
    B = block_lift(blocks)
    return P @ H.T @ B @ H @ P


def sixth_order_isotropic(alpha1, alpha2):
    return sixth_order_from_blocks(isotropic_blocks(alpha1, alpha2))


# --- pairings -----------------------------------------------------------------


def _weighted_pairing(ps, qs, weights):
    """Poly3.zero() + p0*q0*w0 + p1*q1*w1 + ..., as that chain forms it."""
    acc = pf.Poly3.zero()
    return acc + pf.Poly3.dot(ps, qs, weights) if len(ps) else acc


def row_pairing(k, blocks):
    """sum_i <L^i k_i, k_i> as an exact polynomial, rows of k as vectors."""
    ps, qs, weights = [], [], []
    for i in range(3):
        Li = blocks[i]
        for j in range(3):
            for l in range(3):
                if Li[j, l]:
                    ps.append(k[i, j])
                    qs.append(k[i, l])
                    weights.append(float(Li[j, l]))
    return _weighted_pairing(ps, qs, weights)


def matrix_pairing(k, alpha1, alpha2):
    """Full-matrix contraction 2 a1 |dev sym k|^2 + 2 a2 |skw k|^2.

    Coincides with the row pairing on single-row curvatures but differs
    generically by cross-row terms; reported as a diagnostic, never
    asserted equal.
    """
    return tn.norm_sq(tn.devsym(k)) * (2.0 * alpha1) + tn.norm_sq(tn.skw(k)) * (
        2.0 * alpha2
    )


def second_gradient_pairing(u, C):
    """<C T, T> for T the flattened second gradient of u."""
    T = second_gradient_flat(u)
    rows, cols = np.nonzero(C)
    return _weighted_pairing(T[rows], T[cols], C[rows, cols].tolist())


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
