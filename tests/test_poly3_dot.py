"""`ScalarField.dot` forms the left-to-right chain of products bit for bit.

The reference is the chain written out here: p0*q0 + p1*q1 + ... (each
term p*q*w when weighted), every step through the dict loops and the
checking constructor of `test_poly3_kernel`. Poly3's fused sum must give
the same coefficients, bitwise, in the same key order, with the same cap,
on both sides of its size gate and wherever the chain drops an exact zero.
Float arrays, TrigPoly entries and DenseBatch entries keep the plain loops
in `tensors`.
"""
import math

import numpy as np
import pytest

from couplestress import lift as lf
from couplestress import polyfield as pf
from couplestress import tensors as tn
from couplestress.polyfield import Poly3, ScalarField
from couplestress.trig import TrigPoly
from test_poly3_kernel import assert_same, random_poly, ref_add, ref_mul, ref_scale

NAN = float("nan")


def ref_dot(ps, qs, weights=None, start=None):
    acc = start
    for m, (p, q) in enumerate(zip(ps, qs)):
        term = ref_mul(p, q)
        if weights is not None:
            term = ref_scale(term, weights[m])
        acc = term if acc is None else ref_add(acc, term)
    return acc


def _operands(seed, M, degrees, density=0.7):
    rng = np.random.default_rng(seed)
    ps = [random_poly(rng, int(rng.choice(degrees)), density=density) for _ in range(M)]
    qs = [random_poly(rng, int(rng.choice(degrees)), density=density) for _ in range(M)]
    weights = [float(rng.uniform(-2, 2) * 10.0 ** rng.integers(-3, 3)) for _ in range(M)]
    return ps, qs, weights


def _pairs(ps, qs):
    return sum(len(p.coef) * len(q.coef) for p, q in zip(ps, qs))


@pytest.fixture
def fused_calls(monkeypatch):
    """Every call of the fused kernel, with whether it returned coefficients."""
    calls = []
    real = pf._fused_dot

    def spy(*args):
        out = real(*args)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(pf, "_fused_dot", spy)
    return calls


@pytest.fixture
def fresh_dot_plans(monkeypatch):
    monkeypatch.setattr(pf, "_DOT_PLANS", pf._PlanCache())


@pytest.mark.parametrize("gate", ["chain", "fused"])
@pytest.mark.parametrize("degree", range(7))
def test_dot_matches_chain_by_degree(gate, degree, monkeypatch, fused_calls):
    monkeypatch.setattr(pf, "DOT_FUSED_PAIRS", 10**9 if gate == "chain" else 1)
    for seed, M in enumerate((1, 3, 9, 27)):
        degrees = (max(degree - 1, 0), degree)
        ps, qs, weights = _operands(100 * degree + seed, M, degrees)
        assert_same(Poly3.dot(ps, qs), ref_dot(ps, qs))
        assert_same(Poly3.dot(ps, qs, weights), ref_dot(ps, qs, weights))
    assert any(fused_calls) == (gate == "fused")


def test_default_gate_covers_both_sides(fused_calls):
    small = _operands(1, 3, (1,))
    large = _operands(2, 9, (3, 4))
    assert _pairs(*small[:2]) < pf.DOT_FUSED_PAIRS <= _pairs(*large[:2])
    for ps, qs, weights in (small, large):
        assert_same(Poly3.dot(ps, qs), ref_dot(ps, qs))
        assert_same(Poly3.dot(ps, qs, weights), ref_dot(ps, qs, weights))
    assert fused_calls == [True, True]


@pytest.mark.parametrize("chunk", [1, 50, 10**9])
def test_chunks_of_products_match_chain(chunk, monkeypatch, fresh_dot_plans, fused_calls):
    # a chunk of whole products, a product larger than a chunk, one chunk in all
    monkeypatch.setattr(pf, "DOT_FUSED_PAIRS", 1)
    monkeypatch.setattr(pf, "DOT_CHUNK_PAIRS", chunk)
    ps, qs, weights = _operands(20, 12, (0, 1, 2, 3))
    ps[5] = Poly3.zero()
    for w in (None, weights):
        assert_same(Poly3.dot(ps, qs, w), ref_dot(ps, qs, w))
    assert fused_calls == [True, True]


def test_dense_operands_and_shuffled_key_orders(monkeypatch):
    monkeypatch.setattr(pf, "DOT_FUSED_PAIRS", 1)
    rng = np.random.default_rng(8)
    dense = [pf.random_poly(rng, 3) for _ in range(6)]
    shuffled = [random_poly(rng, 3, density=1.0) for _ in range(6)]
    for ps, qs in ((dense, dense[::-1]), (dense, shuffled), (shuffled, shuffled)):
        assert_same(Poly3.dot(ps, qs), ref_dot(ps, qs))


def test_empty_operands(monkeypatch):
    monkeypatch.setattr(pf, "DOT_FUSED_PAIRS", 1)
    ps, qs, weights = _operands(3, 6, (2, 3))
    ps[0] = Poly3.zero(cap=11)
    qs[3] = Poly3.zero()
    assert_same(Poly3.dot(ps, qs), ref_dot(ps, qs))
    assert_same(Poly3.dot(ps, qs, weights), ref_dot(ps, qs, weights))
    zeros = [Poly3.zero(cap=c) for c in (2, 5, 3)]
    assert_same(Poly3.dot(zeros, zeros), ref_dot(zeros, zeros))
    assert Poly3.dot(zeros, zeros).cap == 10


def test_cancellation_mid_chain_moves_the_key_to_the_end(fused_calls):
    rng = np.random.default_rng(9)
    X = pf.random_poly(rng, 4)
    Y = Poly3({(k, 5, 0): 1.0 + k for k in range(4)})
    one, minus = Poly3.const(1.0), Poly3.const(-1.0)
    ps, qs = [X, X, Y, X], [one, minus, one, one]
    assert _pairs(ps, qs) >= pf.DOT_FUSED_PAIRS
    got = Poly3.dot(ps, qs)
    assert_same(got, ref_dot(ps, qs))
    assert list(got.coef) == list(Y.coef) + list(X.coef)
    assert fused_calls == [False]


def test_exactly_zero_product_coefficient(monkeypatch, fused_calls):
    monkeypatch.setattr(pf, "DOT_FUSED_PAIRS", 1)
    x, y = Poly3.variable(0), Poly3.variable(1)
    rng = np.random.default_rng(10)
    P = pf.random_poly(rng, 2)
    # (x + y)(x - y) has xy coefficient 0.0, which the chain drops. After P*P
    # has started the key it changes nothing, and the fused sum stands ...
    ps, qs = [P, x + y, P], [P, x - y, x * y]
    assert_same(Poly3.dot(ps, qs), ref_dot(ps, qs))
    # ... but first in the chain it would start the key, which P*P brings in
    # later at its own place, so the chain runs
    first = [x + y, P, P], [x - y, P, x * y]
    assert_same(Poly3.dot(*first), ref_dot(*first))
    # the chain drops the zero before weighting it, so 0.0 * inf never forms
    weights = [1.0, math.inf, 1.0]
    assert_same(Poly3.dot(ps, qs, weights), ref_dot(ps, qs, weights))
    assert fused_calls == [True, False, False]


def test_weight_that_underflows_to_zero(monkeypatch, fused_calls):
    monkeypatch.setattr(pf, "DOT_FUSED_PAIRS", 1)
    rng = np.random.default_rng(11)
    tiny = Poly3({(1, 0, 0): 1e-200, (0, 0, 0): 1.0})
    P, Q = pf.random_poly(rng, 2), pf.random_poly(rng, 3)
    ps, qs, weights = [tiny, P, Q], [tiny, P, Q], [1e-200, 0.5, 2.0]
    assert_same(Poly3.dot(ps, qs, weights), ref_dot(ps, qs, weights))
    assert fused_calls == [False]
    assert_same(Poly3.dot(ps, qs, [0.0, 0.5, 2.0]), ref_dot(ps, qs, [0.0, 0.5, 2.0]))


@pytest.mark.parametrize("gate", ["chain", "fused"])
def test_nonfinite_coefficients(gate, monkeypatch):
    # filterwarnings = error: no RuntimeWarning may escape either side
    monkeypatch.setattr(pf, "DOT_FUSED_PAIRS", 10**9 if gate == "chain" else 1)
    ps, qs, weights = _operands(12, 9, (2, 3), density=1.0)
    ps[1] = Poly3({**ps[1].coef, (1, 1, 0): NAN})
    ps[4] = Poly3({**ps[4].coef, (0, 1, 0): 1e300})
    qs[4] = Poly3({**qs[4].coef, (0, 0, 1): 1e300})
    qs[6] = Poly3({**qs[6].coef, (2, 0, 0): math.inf})
    ps[7] = Poly3({**ps[7].coef, (0, 0, 2): -math.inf})
    for w in (None, weights, [1e308] * 9):
        got = Poly3.dot(ps, qs, w)
        assert_same(got, ref_dot(ps, qs, w))
        assert math.isnan(got.max_abs_coeff())


def test_cap_is_the_largest_product_cap(monkeypatch):
    monkeypatch.setattr(pf, "DOT_FUSED_PAIRS", 1)
    ps = [Poly3(random_poly(np.random.default_rng(s), 2).coef, cap=c)
          for s, c in ((1, 2), (2, 9), (3, 4))]
    qs = [Poly3(p.coef, cap=c) for p, c in zip(ps, (3, 2, 12))]
    assert Poly3.dot(ps, qs).cap == 16
    assert_same(Poly3.dot(ps, qs), ref_dot(ps, qs))


# --- callers --------------------------------------------------------------------


def _chain_loop(xs, ys):
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def test_tensor_contractions_are_the_chain(fused_calls):
    rng = np.random.default_rng(13)
    A, B = pf.random_mat_field(rng, 3), pf.random_mat_field(rng, 4)
    a, b = pf.random_vec_field(rng, 4), pf.random_vec_field(rng, 3)
    E = np.array([pf.random_poly(rng, 2) for _ in range(27)], dtype=object).reshape(3, 3, 3)
    assert_same(tn.inner(A, B), ref_dot(A.ravel(), B.ravel()))
    assert_same(tn.inner(A, tn.transpose(B)), ref_dot(A.ravel(), B.T.ravel()))
    assert_same(tn.inner_vec(a, b), ref_dot(a, b))
    assert_same(tn.ten3_inner(E, E.transpose(2, 0, 1)),
                ref_dot(E.ravel(), E.transpose(2, 0, 1).ravel()))
    assert len(fused_calls) == 4 and all(fused_calls)


def test_mixed_entries_run_the_chain(fused_calls):
    rng = np.random.default_rng(14)
    a = pf.random_vec_field(rng, 4)
    n = np.array([0.0, -1.0, 0.5])
    got = tn.inner_vec(a, n)
    want = ref_add(ref_add(ref_scale(a[0], 0.0), ref_scale(a[1], -1.0)), ref_scale(a[2], 0.5))
    assert_same(got, want)
    assert fused_calls == []


@pytest.fixture
def no_fusing(monkeypatch):
    def refuse(*args):
        raise AssertionError("fused kernel called")

    monkeypatch.setattr(pf, "_fused_dot", refuse)


def test_float_arrays_keep_the_loops(no_fusing):
    rng = np.random.default_rng(15)
    A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    T, U = rng.normal(size=(3, 3, 3)), rng.normal(size=(3, 3, 3))
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert tn.inner(A, B) == _chain_loop(A.ravel(), B.ravel())
    assert tn.ten3_inner(T, U) == _chain_loop(T.ravel(), U.ravel())
    assert tn.inner_vec(a, b) == a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    assert tn.inner_vec([1.0, 2.0, 3.0], (4.0, 5.0, 6.0)) == 32.0


def test_trig_entries_keep_the_loops(no_fusing):
    modes = [TrigPoly.sine_mode((i % 3 + 1, i % 2 + 1, 1), 0.5 + i) + TrigPoly.const(0.25 * i)
             for i in range(9)]
    A = np.array(modes, dtype=object).reshape(3, 3)
    B = tn.transpose(A)
    got = tn.inner(A, B)
    want = _chain_loop(A.ravel(), B.ravel())
    assert list(got.coef) == list(want.coef)
    assert [v.hex() for v in got.coef.values()] == [v.hex() for v in want.coef.values()]
    assert TrigPoly.dot.__func__ is ScalarField.dot.__func__


def test_dense_batch_entries_keep_the_loops(no_fusing):
    rng = np.random.default_rng(16)
    D = 3
    A = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            A[i, j] = pf.DenseBatch(rng.normal(size=(2, D, D, D)), Poly3)
    W = rng.normal(size=(3, 3))
    got = tn.inner(A, W)
    want = _chain_loop(A.ravel(), W.ravel())
    assert isinstance(got, pf.DenseBatch)
    assert np.array_equal(got.coef, want.coef)
    got_vec = tn.inner_vec(A[0], W[1])
    assert np.array_equal(got_vec.coef, _chain_loop(A[0], W[1]).coef)


def test_lift_pairings_are_the_chain_from_zero(fused_calls):
    rng = np.random.default_rng(17)
    u = pf.random_vec_field(rng, 5)
    C = lf.sixth_order_isotropic(1.0, 0.3)
    T = lf.second_gradient_flat(u)
    rows, cols = np.nonzero(C)
    weights = [float(C[r, c]) for r, c in zip(rows, cols)]
    want = ref_dot(T[rows], T[cols], weights, start=Poly3.zero())
    assert_same(lf.second_gradient_pairing(u, C), want)
    assert fused_calls and all(fused_calls)

    # low caps: the zero the chain starts from sets the cap
    low = pf.as_vec([Poly3(p.coef, cap=3) for p in pf.random_vec_field(rng, 3)])
    T = lf.second_gradient_flat(low)
    want = ref_dot(T[rows], T[cols], weights, start=Poly3.zero())
    got = lf.second_gradient_pairing(low, C)
    assert got.cap == pf.DEFAULT_CAP
    assert_same(got, want)

    k = lf.strain_curl(u)
    blocks = lf.isotropic_blocks(1.0, 0.3)
    ps, qs, ws = [], [], []
    for i in range(3):
        for j in range(3):
            for l in range(3):
                if blocks[i][j, l]:
                    ps.append(k[i, j])
                    qs.append(k[i, l])
                    ws.append(float(blocks[i][j, l]))
    assert_same(lf.row_pairing(k, blocks), ref_dot(ps, qs, ws, start=Poly3.zero()))


def test_lift_pairing_of_a_zero_operator_is_zero():
    u = pf.random_vec_field(np.random.default_rng(18), 3)
    got = lf.second_gradient_pairing(u, np.zeros((27, 27)))
    assert got.coef == {} and got.cap == pf.DEFAULT_CAP
