"""Linear combinations of fields formed in coefficient space.

`polyfield.linear_combinations` contracts weights with a dense coefficient
stack. The reference is the term-by-term Poly3 accumulation it replaced;
only the summation order differs, so every coefficient must agree within
1e-13 * sum_a |w_a| * max |coef|.
"""
import numpy as np
import pytest

from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress.solver import bubble_basis


def reference_combination(fields, w):
    """Term-by-term Poly3 accumulation of sum_a w[a] fields[a]."""
    out = np.empty(np.shape(fields[0]), dtype=object)
    for idx in np.ndindex(out.shape):
        acc = pf.Poly3.zero()
        for coeff, F in zip(w, fields):
            acc = acc + F[idx] * float(coeff)
        out[idx] = acc
    return out


def worst_gap(A, B):
    gap = 0.0
    for idx in np.ndindex(A.shape):
        a, b = A[idx].coef, B[idx].coef
        for key in set(a) | set(b):
            gap = max(gap, abs(a.get(key, 0.0) - b.get(key, 0.0)))
    return gap


def max_coef(fields):
    return max(p.max_abs_coeff() for F in fields for p in np.ravel(F))


@pytest.mark.parametrize("make", [pf.random_vec_field, pf.random_mat_field])
def test_matches_term_by_term_accumulation(make):
    rng = np.random.default_rng(3)
    fields = [make(rng, int(rng.integers(1, 5))) for _ in range(12)]
    W = rng.uniform(-10.0, 10.0, (12, 4))
    W[rng.uniform(size=W.shape) < 0.3] = 0.0
    combos = pf.linear_combinations(fields, W)
    assert len(combos) == 4
    scale = max_coef(fields)
    for r, F in enumerate(combos):
        assert F.shape == np.shape(fields[0])
        ref = reference_combination(fields, W[:, r])
        assert worst_gap(F, ref) <= 1e-13 * np.sum(np.abs(W[:, r])) * scale


def test_reuses_a_given_dense_stack_and_takes_the_largest_cap():
    rng = np.random.default_rng(4)
    fields = [pf.random_vec_field(rng, 2, cap=c) for c in (8, 20, 11)]
    X = pf.dense_stack([list(F) for F in fields])
    assert X.shape == (3, 3, 3, 3, 3)
    w = np.array([[0.5], [-2.0], [1.25]])
    (F,) = pf.linear_combinations(fields, w, X)
    (G,) = pf.linear_combinations(fields, w)
    assert worst_gap(F, G) == 0.0
    assert all(p.cap == 20 for p in F)
    ref = reference_combination(fields, w[:, 0])
    assert worst_gap(F, ref) <= 1e-13 * 3.75 * max_coef(fields)


def test_dense_roundtrip_keeps_exactly_the_nonzero_terms():
    p = pf.Poly3({(0, 0, 0): 1.5, (2, 0, 1): -3.0, (0, 3, 0): 1e-300}, cap=10)
    D = pf.dense_degree([p]) + 1
    assert D == 4
    q = pf.from_dense(pf.to_dense(p, D), cap=10)
    assert q.coef == p.coef
    assert q.cap == 10
    assert pf.from_dense(np.zeros((2, 2, 2))).coef == {}


def box_gram(fields):
    """L2 Gram of matrix fields on the unit box, from the monomial moments."""
    D = 1 + max(max(key) for F in fields for p in F.flat for key in p.coef)
    X = np.zeros((len(fields), 9, D, D, D))
    for a, F in enumerate(fields):
        for q, p in enumerate(F.flat):
            for key, v in p.coef.items():
                X[(a, q) + key] = v
    idx = np.arange(D)
    M = 1.0 / (idx[:, None] + idx[None, :] + 1.0)
    T = np.einsum("aqijk,il,jm,kn->aqlmn", X, M, M, M, optimize=True)
    return np.einsum("aqlmn,bqlmn->ab", T, X)


@pytest.mark.parametrize("model", ["cosserat", "microstrain", "micromorphic"])
def test_companion_basis_is_orthonormal_at_order_2(model):
    fields = mm.companion_basis(model, bubble_basis(2))
    assert len(fields) > 0
    gram = box_gram(fields)
    assert np.max(np.abs(gram - np.eye(len(fields)))) < 1e-9
