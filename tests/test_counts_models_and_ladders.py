"""Library inputs that are refused with a ValueError naming them.

A degree, basis order or trial count is an integer (np.integer too) of at
least its floor, never a bool: True equals 1 and would pass as one, and a
float used to end in a bare TypeError from `range`. An unknown model name,
and a penalty ladder that is empty, not positive, not finite or holds a
bool, are refused the same way, before any work is done.
"""
import math

import numpy as np
import pytest

from couplestress import energies as en
from couplestress import gridoracle as go
from couplestress import identities as idn
from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import solver as sv

NOT_INTEGERS = [True, False, np.bool_(True), 1.5, 2.0, "2", None]


# --- degrees, basis orders and trial counts --------------------------------------------


@pytest.mark.parametrize("degree", NOT_INTEGERS + [-1, -3], ids=repr)
def test_simplex_keys_and_random_poly_refuse_a_bad_degree(degree):
    pf.simplex_keys(1), pf.simplex_keys(0)  # cached first: True == 1 and False == 0
    with pytest.raises(ValueError, match="degree") as err:
        pf.simplex_keys(degree)
    assert repr(degree) in str(err.value)
    with pytest.raises(ValueError, match="degree") as err:
        pf.random_poly(np.random.default_rng(0), degree)
    assert repr(degree) in str(err.value)


def test_a_numpy_integer_degree_is_the_same_degree():
    assert pf.simplex_keys(np.int64(3)) == pf.simplex_keys(3)
    a = pf.random_poly(np.random.default_rng(5), np.int32(2))
    b = pf.random_poly(np.random.default_rng(5), 2)
    assert list(a.coef.items()) == list(b.coef.items()) and a.cap == b.cap


@pytest.mark.parametrize("make", [sv.bubble_basis, sv.sine_basis])
@pytest.mark.parametrize("order", NOT_INTEGERS + [0, -1], ids=repr)
def test_a_basis_refuses_a_bad_order(make, order):
    with pytest.raises(ValueError, match="basis order") as err:
        make(order)
    assert repr(order) in str(err.value)


@pytest.mark.parametrize("make", [sv.bubble_basis, sv.sine_basis])
def test_a_numpy_integer_order_builds_the_same_basis(make):
    a, b = make(np.int64(2)), make(2)
    assert a.factors.tobytes() == b.factors.tobytes() and a.factors.shape == b.factors.shape


@pytest.mark.parametrize("kwargs", [
    {"trials": True, "degree": 2}, {"trials": 1, "degree": 2.5}, {"trials": 1.0, "degree": 2},
    {"trials": 1, "degree": True}, {"trials": np.bool_(True), "degree": 2}])
def test_the_identity_suite_refuses_counts_that_are_not_integers(kwargs):
    with pytest.raises(ValueError, match="must be an integer"):
        idn.run_suite(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"trials": True, "degree": True}, {"trials": 1.5}, {"trials": 1, "degree": 2.5},
    {"trials": 1, "degree": False}])
def test_the_grid_oracle_suite_refuses_counts_that_are_not_integers(kwargs):
    with pytest.raises(ValueError, match="must be an integer"):
        go.run_suite(**kwargs)


def test_both_suites_keep_their_floors():
    for suite in (idn.run_suite, go.run_suite):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            suite(trials=0)
        with pytest.raises(ValueError, match="degree must be at least 0"):
            suite(trials=1, degree=-1)


def test_both_suites_take_numpy_integers():
    want = [r.as_dict() for r in idn.run_suite(seed=1, trials=2, degree=2)]
    got = [r.as_dict() for r in idn.run_suite(seed=1, trials=np.int64(2), degree=np.int8(2))]
    assert got == want
    want = [r.as_dict() for r in go.run_suite(seed=1, trials=1, degree=2)]
    assert [r.as_dict() for r in go.run_suite(seed=1, trials=np.int64(1), degree=2)] == want


# --- model names -------------------------------------------------------------------------


def test_an_unknown_model_names_itself_and_the_known_ones():
    u = pf.random_vec_field(np.random.default_rng(0), 1)
    with pytest.raises(ValueError, match="unknown model 'nope'") as err:
        en.evaluate_model("nope", u, en.Material())
    for name in en.MODEL_REGISTRY:
        assert name in str(err.value)


# --- penalty ladders ------------------------------------------------------------------------


def _load():
    x = [pf.Poly3.variable(ax) for ax in range(3)]
    return pf.as_vec([x[1] + 1.0, x[2] - 2.0, x[0]])


@pytest.mark.parametrize("ladder", [(), [], (0.0, 1.0), (-1.0,), (1.0, 2.0, -1.0),
                                    (1.0, math.nan), (math.inf,), (1.0, 1e2, math.inf),
                                    np.array([0.0, 1.0]), (True, 2.0), (1.0, np.bool_(True)),
                                    ("1",), (1.0, None)],
                         ids=repr)
def test_a_penalty_ladder_must_be_nonempty_finite_positive_numbers(ladder):
    with pytest.raises(ValueError, match="penalty ladder must be non-empty") as err:
        mm.penalty_limit_study("cosserat", mm.MicromorphicParams(), sv.bubble_basis(1), _load(),
                               ladder)
    assert repr(ladder) in str(err.value)


@pytest.mark.parametrize("ladder", [(1.0, 1.0), (1e2, 1.0), (1.0, 1e4, 1e2)])
def test_a_penalty_ladder_must_still_strictly_increase(ladder):
    with pytest.raises(ValueError, match="strictly increasing") as err:
        mm.penalty_limit_study("cosserat", mm.MicromorphicParams(), sv.bubble_basis(1), _load(),
                               ladder)
    assert repr(ladder) in str(err.value)
