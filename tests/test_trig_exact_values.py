"""Sine and cosine factors evaluated exactly at multiples of 1/2, in the dtype of the points.

`TrigPoly.dense_values` reduces f t modulo 2 and folds it to a small
argument before taking sin and cos of pi times it, with pi held in the
dtype of the points. Face traces at x = 1 of a sine field are therefore
exactly zero, and np.longdouble points evaluate in extended precision.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress.trig import TrigPoly


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("value", [0.0, 1.0])
def test_sine_traces_vanish_exactly(axis, value):
    assert TrigPoly.sine_mode((1, 2, 3)).restrict(axis, value).coef == {}


def test_cosine_traces_are_exact_signs():
    p = TrigPoly.sine_mode((1, 2, 3)).diff(0)  # 1 pi cos(pi x) sin(2 pi y) sin(3 pi z)
    at0, at1 = p.restrict(0, 0.0), p.restrict(0, 1.0)
    assert at0.coef == {(0, 3, 5): np.pi}
    assert at1.coef == {(0, 3, 5): -np.pi}


def test_longdouble_evaluation_is_extended_precision():
    pts = np.array([1.0, 0.5, 0.5], dtype=np.longdouble)
    got = pf.eval_fields(TrigPoly.sine_mode((1, 1, 1)), pts)
    assert got.dtype == np.longdouble
    assert abs(got) < 1e-18
    # off the half-integers: sin(0.3 pi) to longdouble precision
    third = np.longdouble(3) / np.longdouble(10)
    pts = np.array([third, 0.5, 0.5], dtype=np.longdouble)
    got = pf.eval_fields(TrigPoly.sine_mode((1, 1, 1)), pts)
    pi = 4 * np.arctan(np.longdouble(1))
    assert abs(got - np.sin(pi * third)) < 1e-18


def test_factor_values_match_numpy_away_from_the_folds():
    t = np.linspace(-3.0, 3.0, 601)
    V = TrigPoly.dense_values(9, t)
    for f in range(1, 5):
        assert np.max(np.abs(V[:, 2 * f - 1] - np.sin(f * np.pi * t))) <= 1e-14
        assert np.max(np.abs(V[:, 2 * f] - np.cos(f * np.pi * t))) <= 1e-14
    assert np.array_equal(V[:, 0], np.ones_like(t))
