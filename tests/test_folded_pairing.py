"""Folded pairing of 3x3 fields in `polyfield.dense_gram` and `batch_gram`.

A stack of 3x3 fields paired with itself pairs each independent entry once:
an entry that is zero in every field is dropped, and entries (i, j) and
(j, i) that are equal, or exact negatives, in every coefficient pair once
with weight 2. Each Gram must stay within 1e-13 * max of the unfolded
einsum, stay symmetric bit for bit, and a pair with a NaN or an infinity in
one entry must not fold. The companion spans keep their kept ranks.
"""
import numpy as np
import pytest

from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import tensors as tn
from couplestress.solver import bubble_basis

D = 4
M = pf.Poly3.dense_moments(D)


def unfolded(X, Y=None):
    """The Gram of 3x3 fields by one einsum over all nine entries."""
    return np.einsum("aijxyz,xu,yv,zw,bijuvw->ab", X, M, M, M, X if Y is None else Y)


def random_fields(n, kind, seed=0):
    A = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3, 3, D, D, D))
    At = A.transpose(0, 2, 1, 3, 4, 5)
    return {"sym": A + At, "skew": A - At, "full": A}[kind]


def paired(X):
    """The entries (row-major indices) a Gram of X pairs, and their weights."""
    X = X.reshape(len(X), 9, D, D, D)
    q, w = pf._folded_entries(X, X.reshape(len(X), 9, -1).any(axis=(0, 2)))
    return q.tolist(), w.tolist()


def close(got, want):
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 31, 33, 65])
@pytest.mark.parametrize("kind, entries", [
    ("sym", ([0, 1, 2, 4, 5, 8], [1, 2, 2, 1, 2, 1])),
    ("skew", ([1, 2, 5], [2, 2, 2])),
    ("full", (list(range(9)), [1] * 9)),
])
def test_folded_grams_match_the_unfolded_einsum(n, kind, entries):
    X = random_fields(n, kind, seed=n)
    assert paired(X) == entries
    G = pf.dense_gram(X, M)
    assert G.shape == (n, n)
    assert close(G, unfolded(X))
    assert G.tobytes() == G.T.copy().tobytes()


@pytest.mark.parametrize("kind", ["sym", "skew"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_keeps_its_pair_unfolded(kind, bad):
    X = random_fields(5, kind, seed=7)
    X[2, 0, 1, 1, 0, 0] = bad
    q, _ = paired(X)
    assert 1 in q and 3 in q  # both (0, 1) and (1, 0)
    assert len(q) == {"sym": 7, "skew": 4}[kind]
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = pf.dense_gram(X, M), unfolded(X)
    assert (np.isfinite(got) == np.isfinite(want)).all()
    assert not np.isfinite(got[2]).any()
    keep = np.isfinite(want)
    assert np.max(np.abs(got[keep] - want[keep])) <= 1e-13 * np.max(np.abs(want[keep]))


def test_a_nan_at_the_same_coefficient_of_both_entries_does_not_fold():
    X = random_fields(4, "sym", seed=8)
    X[1, 0, 2, 0, 1, 0] = X[1, 2, 0, 0, 1, 0] = np.nan
    assert 2 in paired(X)[0] and 6 in paired(X)[0]


@pytest.mark.parametrize("kind", ["sym", "skew"])
def test_minus_zero_against_plus_zero_folds(kind):
    X = random_fields(6, kind, seed=9)
    X[:, 0, 1, :2] = 0.0
    X[:, 1, 0, :2] = -0.0
    assert np.signbit(X[:, 1, 0, :2]).all() and not np.signbit(X[:, 0, 1, :2]).any()
    assert len(paired(X)[0]) == {"sym": 6, "skew": 3}[kind]
    G = pf.dense_gram(X, M)
    assert close(G, unfolded(X))
    assert G.tobytes() == G.T.copy().tobytes()


def test_an_all_zero_diagonal_entry_is_dropped():
    X = random_fields(9, "sym", seed=10)
    X[:, 1, 1] = 0.0
    assert paired(X) == ([0, 1, 2, 5, 8], [1, 2, 2, 2, 1])
    X[:, 0, 1] = X[:, 1, 0] = 0.0
    assert paired(X) == ([0, 2, 5, 8], [1, 2, 2, 1])
    assert close(pf.dense_gram(X, M), unfolded(X))


def test_a_pair_with_one_zero_entry_keeps_the_other_alone():
    X = random_fields(5, "sym", seed=11)
    X[:, 2, 1] = 0.0
    assert paired(X) == ([0, 1, 2, 4, 5, 8], [1, 2, 2, 1, 1, 1])
    assert close(pf.dense_gram(X, M), unfolded(X))


def test_zero_fields_stay_exact_zeros_when_folded():
    X = random_fields(40, "skew", seed=12)
    X[1::3] = 0.0
    G = pf.dense_gram(X, M)
    assert close(G, unfolded(X))
    for block in (G[1::3], G[:, 1::3]):
        assert block.tobytes() == np.zeros_like(block).tobytes()


def test_a_gram_against_another_stack_does_not_fold():
    X, Y = random_fields(7, "sym", seed=13), random_fields(5, "sym", seed=14)
    assert close(pf.dense_gram(X, M, Y), unfolded(X, Y))


def batch(X):
    """The 3x3 fields X as a 3x3 object array of Poly3 batches."""
    out = np.empty((3, 3), dtype=object)
    for i, j in np.ndindex(3, 3):
        out[i, j] = pf.DenseBatch(X[:, i, j], pf.Poly3)
    return out


@pytest.mark.parametrize("part, count", [(tn.sym, 6), (tn.skw, 3), (tn.devsym, 6)])
def test_batch_gram_folds_a_3x3_image_and_not_a_list(part, count, monkeypatch):
    J = batch(random_fields(20, "full", seed=15))
    image = part(J)
    seen = []
    paired_gram = pf._paired_gram

    def recording(X, M, Y, w=None):
        seen.append(X.shape[1])
        return paired_gram(X, M, Y, w)

    monkeypatch.setattr(pf, "_paired_gram", recording)
    folded = pf.batch_gram(image)
    flat = pf.batch_gram(list(np.ravel(image)))
    assert seen == [count, 9]
    assert close(folded, flat)
    assert folded.tobytes() == folded.T.copy().tobytes()


def test_companion_spans_keep_their_kept_ranks():
    ranks = [len(mm.companion_basis(model, bubble_basis(order)))
             for order in (1, 2, 3) for model in ("cosserat", "microstrain", "relaxed")]
    assert ranks == [6, 9, 12, 48, 72, 96, 153, 240, 321]
