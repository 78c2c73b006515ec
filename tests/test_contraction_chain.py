"""The contractions of `tensors` against the explicit left-to-right chain.

`inner`, `inner_vec`, `ten3_inner`, `matvec` and `matmul` form each
entry as x0*y0 + x1*y1 + ..., left to right, through the first entry's
own `dot` where its type has one (Poly3 fuses the chain once it holds
DOT_FUSED_PAIRS term pairs, bitwise the chain's result). Each result must
equal the chain written out here bit for bit: on floats, on Poly3 entries
below and above DOT_FUSED_PAIRS, on TrigPoly entries and on DenseBatch
entries.
"""
import ast
import inspect

import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import tensors as tn
from couplestress.trig import SIN, TrigPoly


def chain(xs, ys):
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def chain_inner(A, B):
    return chain(list(np.ravel(A)), list(np.ravel(B)))


def chain_matvec(A, v):
    return [chain([A[i, 0], A[i, 1], A[i, 2]], [v[0], v[1], v[2]]) for i in range(3)]


def chain_matmul(A, B):
    return [[chain([A[i, 0], A[i, 1], A[i, 2]], [B[0, j], B[1, j], B[2, j]])
             for j in range(3)] for i in range(3)]


def assert_same(a, b):
    assert type(a) is type(b)
    if isinstance(a, pf.DenseBatch):
        assert a.family is b.family and a.coef.dtype == b.coef.dtype
        assert a.coef.shape == b.coef.shape and a.coef.tobytes() == b.coef.tobytes()
    elif isinstance(a, pf.ScalarField):
        assert list(a.coef) == list(b.coef)
        assert (np.array(list(a.coef.values()), dtype=float).tobytes()
                == np.array(list(b.coef.values()), dtype=float).tobytes())
        if isinstance(a, pf.Poly3):
            assert a.cap == b.cap
    else:
        assert_same_numbers(np.asarray(a), np.asarray(b))


def assert_same_numbers(a, b):
    """Equal dtype and bits; a longdouble's padding bytes are not compared."""
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == np.longdouble and np.finfo(np.longdouble).bits > 64:
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    else:
        assert a.tobytes() == b.tobytes()


def assert_same_all(got, want):
    if got.dtype != object:
        assert_same_numbers(got, np.asarray(want))
        return
    want = np.asarray(want, dtype=object)
    assert got.shape == want.shape
    for a, b in zip(got.flat, want.flat):
        assert_same(a, b)


def check_all(vec_a, vec_b, mat_a, mat_b, ten_a, ten_b):
    assert_same(tn.inner(mat_a, mat_b), chain_inner(mat_a, mat_b))
    assert_same(tn.inner_vec(vec_a, vec_b), chain_inner(vec_a, vec_b))
    assert_same(tn.ten3_inner(ten_a, ten_b), chain_inner(ten_a, ten_b))
    assert_same_all(tn.matvec(mat_a, vec_b), chain_matvec(mat_a, vec_b))
    assert_same_all(tn.matmul(mat_a, mat_b), chain_matmul(mat_a, mat_b))


def test_float_entries():
    rng = np.random.default_rng(0)
    check_all(rng.standard_normal(3), rng.standard_normal(3),
              rng.standard_normal((3, 3)), rng.standard_normal((3, 3)),
              rng.standard_normal((3, 3, 3)), rng.standard_normal((3, 3, 3)))


def test_longdouble_and_mixed_float_entries():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)).astype(np.longdouble)
    b = rng.standard_normal((3, 3))
    assert_same(tn.inner(a, b), chain_inner(a, b))
    assert_same_all(tn.matmul(a, b), chain_matmul(a, b))
    assert_same_all(tn.matvec(a, b[0]), chain_matvec(a, b[0]))


def poly_arrays(degree, seed):
    rng = np.random.default_rng(seed)
    vec = [pf.random_vec_field(rng, degree) for _ in range(2)]
    mat = [pf.random_mat_field(rng, degree) for _ in range(2)]
    ten = [np.array([pf.random_mat_field(rng, degree) for _ in range(3)]) for _ in range(2)]
    return vec[0], vec[1], mat[0], mat[1], ten[0], ten[1]


def term_pairs(xs, ys):
    return sum(len(x.coef) * len(y.coef) for x, y in zip(xs, ys))


def test_poly3_entries_below_the_fused_size():
    a, b, A, B, S, T = poly_arrays(0, 2)  # one term each: at most 27 pairs
    assert term_pairs(S.ravel(), T.ravel()) < pf.DOT_FUSED_PAIRS
    check_all(a, b, A, B, S, T)


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_poly3_entries_above_the_fused_size(degree):
    a, b, A, B, S, T = poly_arrays(degree, degree)
    assert term_pairs(A[0], B[:, 0]) >= pf.DOT_FUSED_PAIRS  # matmul fuses too
    assert term_pairs(a, b) >= pf.DOT_FUSED_PAIRS
    check_all(a, b, A, B, S, T)


@pytest.mark.parametrize("contract", ["inner", "inner_vec", "ten3_inner", "matvec", "matmul"])
def test_poly3_entries_take_the_fused_dot(contract, monkeypatch):
    """Above DOT_FUSED_PAIRS every contraction reaches Poly3's own fused `dot`."""
    a, b, A, B, S, T = poly_arrays(3, 8)
    args = {"inner": (A, B), "inner_vec": (a, b), "ten3_inner": (S, T),
            "matvec": (A, b), "matmul": (A, B)}[contract]
    calls = []
    fused = pf._fused_dot

    def counted(*call):
        calls.append(1)
        return fused(*call)

    monkeypatch.setattr(pf, "_fused_dot", counted)
    getattr(tn, contract)(*args)
    assert len(calls) == {"matvec": 3, "matmul": 9}.get(contract, 1)


def test_poly3_entries_with_cancelling_keys_and_mixed_caps():
    x = pf.Poly3.variable(0)
    big = pf.random_poly(np.random.default_rng(3), 4, cap=9)
    a = pf.as_vec([big, big, x])
    b = pf.as_vec([big, -big, x * 2.0])  # the first two products cancel
    assert_same(tn.inner_vec(a, b), chain_inner(a, b))
    A = pf.as_mat([a, b, a])
    assert_same_all(tn.matmul(A, A), chain_matmul(A, A))


def test_poly3_entries_against_float_entries():
    rng = np.random.default_rng(4)
    A = pf.random_mat_field(rng, 3)
    n = rng.standard_normal(3)
    assert_same_all(tn.matvec(A, n), chain_matvec(A, n))
    F = rng.standard_normal((3, 3))
    assert_same(tn.inner(A, F), chain_inner(A, F))
    assert_same_all(tn.matmul(A, F), chain_matmul(A, F))


def random_trig(rng, terms=4, fmax=2):
    coef = {}
    for _ in range(terms):
        key = []
        for _ in range(3):
            kind = int(rng.integers(2))
            key.append((kind, int(rng.integers(1 if kind == SIN else 0, fmax + 1))))
        coef[tuple(key)] = rng.uniform(-1.0, 1.0)
    return TrigPoly(coef)


def test_trigpoly_entries():
    rng = np.random.default_rng(5)

    def draw(shape):
        out = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            out[idx] = random_trig(rng)
        return out

    check_all(draw(3), draw(3), draw((3, 3)), draw((3, 3)), draw((3, 3, 3)), draw((3, 3, 3)))


@pytest.mark.parametrize("n", [1, 3])
def test_dense_batch_entries(n):
    """Batches against floats, and against batches constant in space."""
    rng = np.random.default_rng(6)
    A = pf.batch_fields([pf.random_mat_field(rng, 3) for _ in range(n)])
    u = pf.batch_fields([pf.random_vec_field(rng, 3) for _ in range(n)])
    S = pf.batch_fields([np.array([pf.random_mat_field(rng, 2) for _ in range(3)])
                         for _ in range(n)])
    F = rng.standard_normal((3, 3))
    v = rng.standard_normal(3)
    T = rng.standard_normal((3, 3, 3))
    check_all(u, v, A, F, S, T)
    I = tn.identity_like(A)  # batches constant in space
    assert_same(tn.inner(A, I), chain_inner(A, I))
    assert_same_all(tn.matmul(A, I), chain_matmul(A, I))
    assert_same_all(tn.matvec(I, u), chain_matvec(I, u))


def test_tensors_does_not_import_polyfield():
    tree = ast.parse(inspect.getsource(tn))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [a.name for a in node.names]
    assert not any("polyfield" in name for name in imported)


def test_scalar_field_dot_is_the_weighted_chain():
    rng = np.random.default_rng(7)
    ps = [random_trig(rng) for _ in range(4)]
    qs = [random_trig(rng) for _ in range(4)]
    ws = rng.uniform(-2.0, 2.0, 4).tolist()
    want = ps[0] * qs[0] * ws[0]
    for p, q, w in zip(ps[1:], qs[1:], ws[1:]):
        want = want + p * q * w
    assert_same(TrigPoly.dot(ps, qs, ws), want)
    assert_same(TrigPoly.dot(ps, qs), chain(ps, qs))
