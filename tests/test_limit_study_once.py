"""A penalty ladder forms the u load once and solves each rung as coupled_solve does.

Only the penalty changes from rung to rung, so the load vector of the u
basis is formed once for the ladder (and once more by the constrained
reference), not once per rung, and each row still equals a separate
`coupled_solve` on the same assembly, bit for bit.
"""
import pytest

from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress.solver import bubble_basis

LADDER = (1.0, 1e2, 1e4, 1e6)


def _load():
    x = [pf.Poly3.variable(ax) for ax in range(3)]
    return pf.as_vec([x[1] + 1.0, x[2] - 2.0, x[0]])


@pytest.mark.parametrize("model", ["cosserat", "microstrain"])
def test_ladder_forms_the_load_once_and_matches_coupled_solve(model, monkeypatch):
    basis, f, params = bubble_basis(2), _load(), mm.MicromorphicParams()
    calls = []
    real = mm.load_vector

    def counted(u_basis, load):
        calls.append(load)
        return real(u_basis, load)

    monkeypatch.setattr(mm, "load_vector", counted)
    study = mm.penalty_limit_study(model, params, basis, f, LADDER)
    assert len(calls) == 2  # the constrained reference and the ladder
    monkeypatch.undo()

    companion = mm.companion_basis(model, basis)
    grams = mm.coupled_operator_grams(model, basis, companion)
    for row, pen in zip(study["rows"], LADDER):
        _, rep = mm.coupled_solve(model, params.with_penalty(pen), basis, f,
                                  companion_fields=companion, grams=grams)
        for key in ("violation", "energy", "residual"):
            assert row[key] == rep[key], (pen, key)


def test_ladder_refuses_unsolvable_models_like_coupled_solve():
    basis, f = bubble_basis(1), _load()
    with pytest.raises(ValueError, match="evaluator only"):
        mm.penalty_limit_study("degenerate-cosserat", mm.MicromorphicParams(), basis, f)
    with pytest.raises(mm.ExperimentalModelError):
        mm.penalty_limit_study("sym-curl-p", mm.MicromorphicParams(), basis, f)
