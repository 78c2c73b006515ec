"""Inputs of the wrong kind end in a ValueError that names them, not a bare exception.

A model name that is no str (a list cannot even be looked up), a penalty
ladder that is no sequence, an integer penalty past the float range in a
ladder, and such a penalty given to `MicromorphicParams.with_penalty` used
to raise TypeError or OverflowError. The messages for an unknown model name
and a bad ladder stay as they were.
"""
import numpy as np
import pytest

from couplestress import energies as en
from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import solver as sv

BIG = 10**400  # an int past the float range


def _load():
    x = [pf.Poly3.variable(ax) for ax in range(3)]
    return pf.as_vec([x[1] + 1.0, x[2] - 2.0, x[0]])


def study(ladder):
    return mm.penalty_limit_study("cosserat", mm.MicromorphicParams(), sv.bubble_basis(1),
                                  _load(), ladder)


@pytest.mark.parametrize("name", [["x"], ("indeterminate",), {"grioli": 1}, None, 3, b"lam"],
                         ids=repr)
def test_a_model_name_that_is_no_str_is_refused_by_name(name):
    u = pf.random_vec_field(np.random.default_rng(0), 1)
    with pytest.raises(ValueError, match="unknown model") as err:
        en.evaluate_model(name, u, en.Material())
    assert repr(name) in str(err.value)
    for known in en.MODEL_REGISTRY:
        assert known in str(err.value)


@pytest.mark.parametrize("ladder", [1.0, 3, None, (p for p in (1.0, 2.0)), (1.0, BIG), (BIG,),
                                    [1.0, 1e2, -BIG]],
                         ids=["float", "int", "None", "generator", "big-last", "big-only",
                              "minus-big"])
def test_a_ladder_that_is_no_sequence_or_past_the_float_range_is_refused(ladder):
    with pytest.raises(ValueError, match="penalty ladder must be non-empty") as err:
        study(ladder)
    assert repr(ladder) in str(err.value)


def test_a_penalty_past_the_float_range_is_refused_by_with_penalty():
    with pytest.raises(ValueError, match="penalty must be a real number") as err:
        mm.MicromorphicParams().with_penalty(BIG)
    assert repr(BIG) in str(err.value)
    with pytest.raises(ValueError, match="penalty must be a real number"):
        mm.MicromorphicParams().with_penalty(None)


def test_good_inputs_still_pass():
    u = pf.random_vec_field(np.random.default_rng(0), 1)
    dens, total = en.evaluate_model("indeterminate", u, en.Material())
    assert total == dens.integrate()
    assert mm.MicromorphicParams().with_penalty(10**3).penalty == 1000.0
    assert mm.MicromorphicParams().with_penalty("25").penalty == 25.0  # float() reads it
    rows = study((1, 10**2))["rows"]
    assert [row["penalty"] for row in rows] == [1, 100]
    with pytest.raises(ValueError, match="strictly increasing"):
        study((1e2, 1.0))
