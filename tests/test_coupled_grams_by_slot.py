"""Coupled Grams paired only where the fields hold coefficients.

`polyfield.dense_gram` pairs only the fields with a nonzero coefficient,
gives exact zeros in the rows and columns of the others, and mirrors the
upper blocks of a Gram of one stack. `micromorphic.coupled_operator_grams`
runs each term operator on the slot it is marked as reading: the elastic
parts on the u basis, the curvature on the companion span, and the
coupling, or an op that names no slot, on the product span. The Grams
must still equal the Grams over the zero-padded product span bit for bit,
and stay within 1e-10 * max of a long-double reference.
`polyfield.from_dense` checks its keys at once and must build the Poly3
that Poly3(dict) builds.
"""
import functools

import numpy as np
import pytest

from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress.solver import bubble_basis

SOLVABLE = [m for m in mm.MODEL_IDS if mm._model(m)[5] != "evaluator"]


def with_zero_rows(rng, n, m=3, D=4):
    """n random fields with every third one, across block boundaries, all zero."""
    X = rng.uniform(-1.0, 1.0, (n, m, D, D, D))
    X[1::3] = 0.0
    return X


@pytest.mark.parametrize("n", [31, 32, 33, 65])
def test_zero_rows_are_skipped_across_blocks(n):
    rng = np.random.default_rng(n)
    X = with_zero_rows(rng, n)
    Y = with_zero_rows(rng, 8)
    M = pf.Poly3.dense_moments(4)
    for other in (None, Y):
        ref_Y = X if other is None else other
        want = np.einsum("amxyz,xu,yv,zw,bmuvw->ab", X, M, M, M, ref_Y)
        got = pf.dense_gram(X, M, other)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        zero = np.zeros(n, bool)
        zero[1::3] = True
        zero_cols = zero if other is None else np.arange(len(Y)) % 3 == 1
        for block in (got[zero], got[:, zero_cols]):
            assert block.tobytes() == np.zeros_like(block).tobytes()  # +0.0, no -0.0


def test_a_nan_field_counts_as_nonzero():
    X = np.zeros((3, 1, 2, 2, 2))
    X[0, 0, 0, 0, 0], X[2, 0, 1, 0, 0] = 1.0, np.nan
    with np.errstate(invalid="ignore"):
        G = pf.dense_gram(X, pf.Poly3.dense_moments(2))
    assert np.isnan(G[2]).tolist() == [True, False, True]
    assert G[1].tolist() == [0.0, 0.0, 0.0] and G[0, 0] == 1.0


@pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
def test_the_gram_of_one_stack_is_symmetric_bit_for_bit(n):
    X = np.random.default_rng(n + 100).uniform(-1.0, 1.0, (n, 2, 3, 3, 3))
    G = pf.dense_gram(X, pf.Poly3.dense_moments(3))
    assert G.tobytes() == G.T.copy().tobytes()


def test_an_empty_stack_has_an_empty_gram():
    M = pf.Poly3.dense_moments(3)
    Y = np.ones((4, 2, 3, 3, 3))
    assert pf.dense_gram(np.zeros((0, 2, 3, 3, 3)), M, Y).shape == (0, 4)
    assert pf.dense_gram(np.zeros((0, 2, 3, 3, 3)), M).shape == (0, 0)
    assert pf.dense_gram(Y, M, np.zeros((0, 2, 3, 3, 3))).shape == (4, 0)


@pytest.mark.parametrize("shape", [(4, 3, 3, 3, 3), (4, 2, 4, 4, 4)])
def test_a_stack_of_another_shape_is_refused_by_both_shapes(shape):
    X = np.ones((5, 2, 3, 3, 3))
    with pytest.raises(ValueError) as err:
        pf.dense_gram(X, pf.Poly3.dense_moments(3), np.ones(shape))
    assert str(X.shape) in str(err.value) and str(shape) in str(err.value)


def batch_rows(F):
    """Row counts of the batches an operator was given (None for no slot)."""
    return None if F is None else {b.coef.shape[0] for b in np.ravel(F)}


def recording(seen, keep_marks):
    """A `_term_list` whose ops record the row counts they are given."""
    term_list = mm._term_list

    def terms(model, params):
        def wrap(op):
            def recorded(u, P):
                seen.append((batch_rows(u), batch_rows(P)))
                return op(u, P)
            return functools.wraps(op)(recorded) if keep_marks else recorded
        return [(w, wrap(op)) for w, op in term_list(model, params)]
    return terms


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("model", SOLVABLE)
def test_each_term_reads_its_slot_and_matches_the_product_span(model, order, monkeypatch):
    basis = bubble_basis(order)
    companion = pf.FieldStack.of(mm.companion_basis(model, basis))
    nu, nP = len(basis), len(companion)
    U, P = pf.product_batches(basis.fields, companion)
    terms = mm._term_list(model, mm.MicromorphicParams())
    want = [pf.batch_gram(op(U, P)) for _, op in terms]
    k = len(mm.ELASTIC_PARTS)
    assert [getattr(op, "reads", None) for _, op in terms] == \
        ["u"] * k + [None] + ["P"] * (len(terms) - k - 1)
    seen = []
    monkeypatch.setattr(mm, "_term_list", recording(seen, keep_marks=True))
    got = mm.coupled_operator_grams(model, basis, companion)
    assert seen == ([({nu}, None)] * k + [({nu + nP}, {nu + nP})]
                    + [(None, {nP})] * (len(want) - k - 1))
    assert [G.tobytes() for G in got] == [G.tobytes() for G in want]
    assert all(G.shape == (nu + nP,) * 2 for G in got)


@pytest.mark.parametrize("model", ["cosserat", "relaxed"])
def test_an_op_that_names_no_slot_runs_on_the_product_span(model, monkeypatch):
    basis = bubble_basis(1)
    companion = mm.companion_basis(model, basis)
    want = mm.coupled_operator_grams(model, basis, companion)
    seen = []
    monkeypatch.setattr(mm, "_term_list", recording(seen, keep_marks=False))
    got = mm.coupled_operator_grams(model, basis, companion)
    n = len(basis) + len(companion)
    assert seen == [({n}, {n})] * len(want)
    assert [G.tobytes() for G in got] == [G.tobytes() for G in want]


def longdouble_grams(model, basis, companion):
    """Every term Gram of the product span, the images and pairings in long double."""
    U, P = pf.product_batches(basis.fields, pf.FieldStack.of(companion))

    def wide(F):
        out = np.empty(F.shape, dtype=object)
        for idx in np.ndindex(F.shape):
            out[idx] = pf.DenseBatch(F[idx].coef.astype(np.longdouble), F[idx].family)
        return out

    U, P = wide(U), wide(P)
    D = U[0].coef.shape[-1]
    i = np.arange(D, dtype=np.longdouble)
    M = 1 / (i[:, None] + i[None, :] + 1)
    grams = []
    for _, op in mm._term_list(model, mm.MicromorphicParams()):
        X = np.stack([b.coef for b in np.ravel(op(U, P))], axis=1)
        T = np.einsum("amxyz,xu,yv,zw->amuvw", X, M, M, M)
        grams.append(np.tensordot(T, X, ([1, 2, 3, 4], [1, 2, 3, 4])))
    return grams


@pytest.mark.parametrize("model", ["cosserat", "microstrain"])
def test_order2_term_grams_are_near_a_longdouble_reference(model):
    basis = bubble_basis(2)
    companion = mm.companion_basis(model, basis)
    got = mm.coupled_operator_grams(model, basis, companion)
    want = longdouble_grams(model, basis, companion)
    for G, R in zip(got, want):
        assert float(np.max(np.abs(G - R))) <= 1e-10 * float(np.max(np.abs(R)))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_from_dense_builds_what_the_dict_builds(dtype):
    rng = np.random.default_rng(27)
    cube = np.where(rng.uniform(size=(4, 4, 4)) < 0.5, rng.normal(size=(4, 4, 4)), 0.0)
    cube[0, 1, 2], cube[2, 0, 0], cube[1, 1, 1] = np.nan, np.inf, -np.inf
    cube = cube.astype(dtype)
    idx = np.nonzero(cube)
    want = pf.Poly3(dict(zip(zip(*idx), cube[idx])), 9)
    got = pf.from_dense(cube, 9)
    assert list(got.coef) == list(want.coef)
    assert all(type(e) is int for key in got.coef for e in key)
    assert all(type(v) is float for v in got.coef.values())
    assert np.array(list(got.coef.values())).tobytes() == \
        np.array(list(want.coef.values())).tobytes()
    assert got.cap == want.cap == 9


def test_a_longdouble_entry_that_rounds_to_zero_is_dropped():
    cube = np.zeros((2, 2, 2), dtype=np.longdouble)
    cube[0, 0, 1], cube[1, 0, 0] = np.longdouble("1e-4000"), 2.0
    assert pf.from_dense(cube).coef == pf.Poly3({(0, 0, 1): cube[0, 0, 1], (1, 0, 0): 2.0}).coef
    assert pf.from_dense(cube).coef == {(1, 0, 0): 2.0}


def test_from_dense_names_the_first_key_past_the_cap():
    cube = np.zeros((4, 4, 4))
    cube[0, 3, 3], cube[3, 3, 0], cube[1, 0, 0] = 1.0, 2.0, 3.0
    with pytest.raises(pf.DegreeCapError) as got:
        pf.from_dense(cube, 5)
    with pytest.raises(pf.DegreeCapError) as want:
        pf.Poly3(dict(zip(zip(*(i.tolist() for i in np.nonzero(cube))),
                          cube[np.nonzero(cube)].tolist())), 5)
    assert str(got.value) == str(want.value) == "monomial (0, 3, 3) exceeds degree cap 5"
