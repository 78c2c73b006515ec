"""Batched coupled Galerkin layer against a per-element restatement.

`micromorphic.coupled_operator_grams` runs each term operator once on the
product basis stacked as one batch. The reference runs every element
(u, 0) and (0, P) through the term operators with Poly3 arithmetic and
pairs the rows by `polyfield.box_gram`. Tolerance: 1e-13 * max|G|.
"""
import numpy as np
import pytest

from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress.solver import bubble_basis


def per_element_grams(model, basis, companion):
    zero_u, zero_P = pf.zero_vec(), pf.zero_mat()
    elements = [(u, zero_P) for u in basis.fields] + [(zero_u, P) for P in companion]
    return [
        pf.box_gram([list(np.ravel(op(u, P))) for u, P in elements])
        for _, op in mm._term_list(model, mm.MicromorphicParams())
    ]


@pytest.mark.parametrize("model", mm.MODEL_IDS)
def test_batched_grams_match_per_element_restatement(model):
    basis = bubble_basis(2)
    companion = mm.companion_basis(model, basis)
    got = mm.coupled_operator_grams(model, basis, companion)
    want = per_element_grams(model, basis, companion)
    assert len(got) == len(want)
    for G, R in zip(got, want):
        assert G.shape == R.shape == (len(basis) + len(companion),) * 2
        assert np.max(np.abs(G - R)) <= 1e-13 * np.max(np.abs(R))


def test_each_term_operator_runs_once(monkeypatch):
    calls = []
    term_list = mm._term_list

    def counting(model, params):
        def wrap(k, op):
            def counted(u, P):
                calls.append(k)
                return op(u, P)
            return counted
        return [(w, wrap(k, op)) for k, (w, op) in enumerate(term_list(model, params))]

    monkeypatch.setattr(mm, "_term_list", counting)
    basis = bubble_basis(1)
    grams = mm.coupled_operator_grams("relaxed", basis, mm.companion_basis("relaxed", basis))
    assert sorted(calls) == list(range(len(grams)))


@pytest.mark.parametrize("model", ["cosserat", "microstrain"])
def test_violation_matches_per_field_pairing(model):
    basis = bubble_basis(2)
    x = [pf.Poly3.variable(ax) for ax in range(3)]
    f = pf.as_vec([x[1] + 1.0, x[2] - 2.0, x[0]])
    state, rep = mm.coupled_solve(model, mm.MicromorphicParams(penalty=1e2), basis, f)
    coupling = mm._coupling_op(model)(state.u, state.P)
    want = float(np.sqrt(pf.box_gram([list(np.ravel(coupling))])[0, 0]))
    assert abs(rep["violation"] - want) <= 1e-13 * want
