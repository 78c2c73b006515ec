"""The coupled Grams end each slot's state with a lexical block, never by hand.

`micromorphic.coupled_operator_grams` registers the companion stack in one
call scope around all of its term ops, and the u stack in a nested one around
the elastic ops only. No state is dropped early (`energies._Scope.drop` is
never called), and the registry is empty once the call returns.
"""
import pytest

from couplestress import energies as en
from couplestress import micromorphic as mm
from couplestress.solver import bubble_basis

SOLVABLE = [m for m in mm.MODEL_IDS if mm._model(m)[5] != "evaluator"]


@pytest.mark.parametrize("model", SOLVABLE)
def test_the_grams_drop_no_state(model, monkeypatch):
    basis = bubble_basis(1)
    companion = mm.companion_basis(model, basis)

    def refused(self, F):
        raise AssertionError("a state was dropped by hand")

    monkeypatch.setattr(en._Scope, "drop", refused)
    grams = mm.coupled_operator_grams(model, basis, companion)
    assert len(grams) == len(mm._term_list(model, mm.MicromorphicParams()))
    assert en._FIELD_STATES.get() is None
