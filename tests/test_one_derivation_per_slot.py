"""One derivation per slot in `micromorphic.coupled_operator_grams`.

The call registers the u stack and the companion stack in one call scope
(`energies._derived_fields`): the elastic ops share one Jacobian of the u
stack and the curvature ops one curvature measure of the companion stack,
and a stack's state is dropped once the last op of its slot has run. The
Grams must equal, bit for bit, the `_term_list` ops run without a scope
through the same `polyfield.batch_gram`.
"""
import numpy as np
import pytest

from couplestress import energies as en
from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress.solver import bubble_basis

SOLVABLE = [m for m in mm.MODEL_IDS if mm._model(m)[5] != "evaluator"]


def counting_diffs(monkeypatch):
    calls = []
    diff = pf.DenseBatch.diff

    def counted(self, axis):
        calls.append(axis)
        return diff(self, axis)

    monkeypatch.setattr(pf.DenseBatch, "diff", counted)
    return calls


def unscoped_grams(model, basis, companion):
    """Each term op run on its slot outside any scope, paired by `batch_gram`."""
    u_stack, P_stack = basis.fields, pf.FieldStack.of(companion)
    nu, n = len(u_stack), len(u_stack) + len(P_stack)
    U, P = pf.stack_batches(u_stack, P_stack)
    span = {"u": (U, None, slice(nu)), "P": (None, P, slice(nu, n)),
            None: (*pf.product_batches(u_stack, P_stack), slice(n))}
    grams = []
    for _, op in mm._term_list(model, mm.MicromorphicParams()):
        u, Q, block = span[getattr(op, "reads", None)]
        G = np.zeros((n, n))
        G[block, block] = pf.batch_gram(op(u, Q))
        grams.append(G)
    return grams


@pytest.mark.parametrize("model, diffs, parent", [("cosserat", 27, 54),
                                                   ("microstrain", 36, 63)])
def test_an_order3_call_derives_each_slot_once(model, diffs, parent, monkeypatch):
    # cosserat: jac u (9), jac of the coupling's product span (9), grad axl P (9),
    # against 2 + 1 + 3 of them before; microstrain: 9 + 9 and Curl P (18) once,
    # against 2 + 1 + 2 (Curl P twice)
    basis = bubble_basis(3)
    companion = mm.companion_basis(model, basis)
    calls = counting_diffs(monkeypatch)
    got = mm.coupled_operator_grams(model, basis, companion)
    assert len(calls) == diffs < parent
    monkeypatch.undo()
    want = unscoped_grams(model, basis, companion)
    assert [G.tobytes() for G in got] == [G.tobytes() for G in want]


@pytest.mark.parametrize("model", SOLVABLE)
def test_grams_equal_the_unscoped_ops_bit_for_bit(model):
    basis = bubble_basis(2)
    companion = mm.companion_basis(model, basis)
    got = mm.coupled_operator_grams(model, basis, companion)
    want = unscoped_grams(model, basis, companion)
    assert [G.tobytes() for G in got] == [G.tobytes() for G in want]


def test_a_slot_state_is_dropped_after_its_last_op(monkeypatch):
    seen = []
    term_list = mm._term_list

    def terms(model, params):
        def wrap(op):
            def recorded(u, P):
                states = en._FIELD_STATES.get()
                seen.append((op.__dict__.get("reads"), id(u), id(P), dict(states)))
                return op(u, P)
            recorded.__dict__.update(op.__dict__)
            return recorded
        return [(w, wrap(op)) for w, op in term_list(model, params)]

    monkeypatch.setattr(mm, "_term_list", terms)
    basis = bubble_basis(1)
    mm.coupled_operator_grams("cosserat", basis, mm.companion_basis("cosserat", basis))
    assert [reads for reads, *_ in seen] == ["u", "u", None, "P", "P", "P"]
    u_id = seen[0][1]
    P_id = seen[-1][2]
    for reads, _, _, states in seen:
        assert (u_id in states) == (reads == "u")
        assert P_id in states
    assert en._FIELD_STATES.get() is None


def test_the_energy_density_forms_one_jacobian_of_u(monkeypatch):
    rng = np.random.default_rng(3)
    u, P = pf.random_vec_field(rng, 3), pf.random_skw_mat_field(rng, 3)
    params = mm.MicromorphicParams(alpha3=0.2)
    want = mm.micromorphic_energy(u, P, "cosserat", params)
    calls = []
    jac = pf.jac

    def counted(F):
        calls.append(F)
        return jac(F)

    monkeypatch.setattr(pf, "jac", counted)
    got = mm.micromorphic_energy(u, P, "cosserat", params)
    assert [c is u for c in calls].count(True) == 1 and len(calls) == 2  # J and grad axl P
    assert list(got.coef) == list(want.coef)
    assert np.array(list(got.coef.values())).tobytes() == \
        np.array(list(want.coef.values())).tobytes()
