"""`polyfield.dense_gram` pairs every stack on one path.

One index gathers the fields that hold a coefficient (a NaN counts) and,
for a stack of 3x3 fields paired with itself, its independent entries; one
`_paired_gram` pairs them, and its block is written into a zero Gram. So
all-zero fields interleaved into a stack, wherever they sit, leave the
Gram of the held fields equal bit for bit to the Gram of the stack without
them, and `batch_gram` enters `dense_gram` once.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf

D = 4
M = pf.Poly3.dense_moments(D)


def held_stack(n, entries, seed):
    """n random fields with one NaN coefficient in field n // 2 (3x3 fields symmetric)."""
    H = np.random.default_rng(seed).uniform(-1.0, 1.0, (n,) + entries + (D, D, D))
    if entries == (3, 3):
        H = H + H.transpose(0, 2, 1, 3, 4, 5)
    H.reshape(n, -1)[n // 2, 7] = np.nan  # entry 0 of field n // 2
    return H


def zero_slots(n, where):
    """The indices of the all-zero fields of a stack of n fields."""
    return {"interleaved": list(range(1, n, 4)) + [n - 1],
            "leading": [0, 1, 2], "trailing": [n - 2, n - 1]}[where]


def with_zeros(H, zeros):
    """H with all-zero fields at the indices zeros of the result, and the held indices."""
    n = len(H) + len(zeros)
    held = np.setdiff1d(np.arange(n), zeros)
    X = np.zeros((n,) + H.shape[1:])
    X[held] = H
    return X, held


def assert_zero_outside(G, xs, ys):
    """The rows off xs and the columns off ys of G are +0.0, even in NaN rows or columns."""
    rows, cols = np.ones(len(G), bool), np.ones(G.shape[1], bool)
    rows[xs], cols[ys] = False, False
    for block in (G[rows], G[:, cols]):
        assert block.tobytes() == np.zeros_like(block).tobytes()


@pytest.mark.parametrize("n", [31, 33, 65])
@pytest.mark.parametrize("where", ["interleaved", "leading", "trailing"])
@pytest.mark.parametrize("entries", [(3,), (3, 3)])
def test_zero_fields_leave_the_gram_of_the_held_fields_bit_for_bit(n, where, entries):
    zeros = zero_slots(n, where)
    H = held_stack(n - len(zeros), entries, seed=n)
    X, xs = with_zeros(H, zeros)
    with np.errstate(invalid="ignore"):
        G, want = pf.dense_gram(X, M), pf.dense_gram(H, M)
    assert G.shape == (n, n)
    assert G[np.ix_(xs, xs)].tobytes() == want.tobytes()
    assert np.isnan(want[len(H) // 2]).all()
    assert_zero_outside(G, xs, xs)
    assert G.tobytes() == G.T.copy().tobytes()


@pytest.mark.parametrize("n", [31, 33, 65])
@pytest.mark.parametrize("entries", [(3,), (3, 3)])
def test_zero_fields_in_both_stacks_leave_the_gram_against_y_bit_for_bit(n, entries):
    Hx = held_stack(n - len(zero_slots(n, "interleaved")), entries, seed=n + 1)
    Hy = held_stack(n - 3, entries, seed=n + 2)
    X, xs = with_zeros(Hx, zero_slots(n, "interleaved"))
    Y, ys = with_zeros(Hy, zero_slots(n, "leading"))
    with np.errstate(invalid="ignore"):
        G, want = pf.dense_gram(X, M, Y), pf.dense_gram(Hx, M, Hy)
    assert G.shape == (n, n)
    assert G[np.ix_(xs, ys)].tobytes() == want.tobytes()
    assert_zero_outside(G, xs, ys)


def test_every_stack_takes_one_paired_gram(monkeypatch):
    seen = []
    paired_gram = pf._paired_gram

    def recording(X, M, Y, w=None):
        seen.append(X.shape[1])
        return paired_gram(X, M, Y, w)

    monkeypatch.setattr(pf, "_paired_gram", recording)
    X, _ = with_zeros(held_stack(30, (3, 3), seed=3), zero_slots(33, "interleaved")[:3])
    with np.errstate(invalid="ignore"):
        for Y in (None, X[::-1].copy()):
            pf.dense_gram(X, M, Y)
            pf.dense_gram(X[3:], M, Y if Y is None else Y[3:])
    assert seen == [6, 6, 9, 9]  # folded without Y


def batches(X):
    """The stack X (n, *entries, D, D, D) as an object array of Poly3 batches."""
    out = np.empty(X.shape[1:-3], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = pf.DenseBatch(X[(slice(None),) + idx], pf.Poly3)
    return out


@pytest.mark.parametrize("entries", [(3,), (3, 3)])
def test_batch_gram_enters_dense_gram_once_on_a_stack_with_a_zero_field(entries, monkeypatch):
    calls = []
    dense_gram = pf.dense_gram

    def counting(X, M, Y=None):
        calls.append(X.shape)
        return dense_gram(X, M, Y)

    monkeypatch.setattr(pf, "dense_gram", counting)
    X = np.random.default_rng(4).uniform(-1.0, 1.0, (12,) + entries + (D, D, D))
    X[5] = 0.0
    rows = batches(X)
    pf.batch_gram(rows)
    assert len(calls) == 1
    pf.batch_gram(list(np.ravel(rows)), list(np.ravel(rows)))
    assert len(calls) == 2
