"""The companion span held as one stack of coefficient cubes.

`polyfield.FieldStack` keeps n fields as one cube array and builds a Poly3
field only when an item is read. The companion span lives in one such
stack from candidate to rung: the Grams and the solves read its cubes,
and Poly3 arithmetic is built only for the returned u_h and P_h.
"""
import numpy as np
import pytest

from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress.solver import bubble_basis


def test_stack_length_items_iteration_and_cap():
    rng = np.random.default_rng(8)
    fields = [pf.random_mat_field(rng, 2, cap=c) for c in (9, 12)]
    S = pf.FieldStack.of(fields)
    assert len(S) == 2
    assert S.cubes.shape == (2, 3, 3, 3, 3, 3)
    assert S.cap == 12
    for F, G in zip(S, fields):
        assert F.shape == (3, 3)
        assert all(p.coef == q.coef and p.cap == 12 for p, q in zip(F.flat, G.flat))
    assert all(p.coef == q.coef for p, q in zip(S[-1].flat, fields[-1].flat))
    with pytest.raises(IndexError):
        S[2]
    assert len(list(S)) == 2
    first, second = S
    assert first[0, 0].coef == fields[0][0, 0].coef


def test_linear_combinations_return_a_stack_and_take_one():
    rng = np.random.default_rng(9)
    fields = [pf.random_vec_field(rng, 2) for _ in range(4)]
    W = rng.uniform(-1.0, 1.0, (4, 2))
    combos = pf.linear_combinations(fields, W)
    assert isinstance(combos, pf.FieldStack)
    assert len(combos) == 2 and combos[1].shape == (3,)
    again = pf.linear_combinations(combos, np.array([[1.0], [0.0]]))
    assert isinstance(again, pf.FieldStack)
    assert np.array_equal(again.cubes[0], combos.cubes[0])


def test_batch_and_product_span():
    rng = np.random.default_rng(10)
    u = pf.FieldStack.of([pf.random_vec_field(rng, 1) for _ in range(2)])
    P = pf.FieldStack.of([pf.random_mat_field(rng, 2) for _ in range(3)])
    B = P.batch()
    assert B.shape == (3, 3)
    assert all(np.array_equal(B[i, j].coef, P.cubes[:, i, j]) for i in range(3) for j in range(3))
    U, Q = pf.product_batches(u, P)
    assert U.shape == (3,) and Q.shape == (3, 3)
    assert U[0].coef.shape == Q[0, 0].coef.shape == (5, 3, 3, 3)
    assert np.array_equal(U[1].coef[:2, :2, :2, :2], u.cubes[:, 1])
    assert not np.any(U[1].coef[2:]) and not np.any(Q[1, 2].coef[:2])
    assert np.array_equal(Q[1, 2].coef[2:], P.cubes[:, 1, 2])


def test_the_ladder_builds_no_companion_field_as_poly3(monkeypatch):
    basis = bubble_basis(2)
    model = "cosserat"
    companion = mm.companion_basis(model, basis)
    x = [pf.Poly3.variable(ax) for ax in range(3)]
    f = pf.as_vec([x[1] + 1.0, x[2] - 2.0, x[0]])
    allowed = {id(p) for u in [*basis.fields, f] for p in u}
    stacked, built = [], []
    to_dense, from_dense = pf.to_dense, pf.from_dense

    def counting_to_dense(p, D):
        stacked.append(p)
        return to_dense(p, D)

    def counting_from_dense(cube, cap=pf.DEFAULT_CAP):
        built.append(cube.shape)
        return from_dense(cube, cap)

    monkeypatch.setattr(pf, "to_dense", counting_to_dense)
    monkeypatch.setattr(pf, "from_dense", counting_from_dense)
    grams = mm.coupled_operator_grams(model, basis, companion)
    for pen in (1.0, 1e2, 1e4, 1e6):
        mm.coupled_solve(model, mm.MicromorphicParams(penalty=pen), basis, f,
                         companion_fields=companion, grams=grams)
    # only the u basis and the load are stacked; only u_h and P_h are built
    assert stacked and all(id(p) in allowed for p in stacked)
    assert len(built) == 4 * (3 + 9)
