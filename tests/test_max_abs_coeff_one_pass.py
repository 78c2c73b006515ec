"""`polyfield.max_abs_coeff` reads every coefficient of a field array in one pass.

All coefficients of all entries go through one np.fromiter and one maximum of
their magnitudes, so the result must be the largest of the per-entry maxima
(`ScalarField.max_abs_coeff`, which the fold no longer calls), NaN wherever a
coefficient is NaN, whatever its position, and 0.0 for an array with no entry
(where numpy's maximum of no values raised a ValueError) as for one with no
coefficient.
"""
import math

import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress.polyfield import Poly3
from couplestress.trig import TrigPoly

NAN = float("nan")


def per_entry(F):
    """The largest of the per-entry maxima, as the fold first read it."""
    return float(np.max([p.max_abs_coeff() for p in np.ravel(F)]))


def trig_field(rng, shape):
    F = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        cube = rng.uniform(-3, 3, (5, 5, 5)) * 10.0 ** rng.integers(-6, 6, (5, 5, 5))
        cube[rng.uniform(size=cube.shape) < 0.5] = 0.0
        F[idx] = TrigPoly.from_cube(cube)
    return F


@pytest.fixture
def one_pass(monkeypatch):
    """The fold may not fall back on the per-entry maxima."""
    def per_scalar(self):
        raise AssertionError("max_abs_coeff of a field read an entry on its own")

    monkeypatch.setattr(pf.ScalarField, "max_abs_coeff", per_scalar)


@pytest.mark.parametrize("shape", [(3,), (3, 3), (3, 3, 3)])
def test_poly3_and_trig_arrays_give_the_largest_entry_maximum(shape):
    rng = np.random.default_rng(len(shape))
    for F in (trig_field(rng, shape), pf.random_mat_field(rng, 4) if shape == (3, 3) else
              np.array([pf.random_poly(rng, 5) for _ in range(math.prod(shape))],
                       dtype=object).reshape(shape)):
        want = per_entry(F)
        assert pf.max_abs_coeff(F) == want and type(pf.max_abs_coeff(F)) is float


def test_the_fold_reads_no_entry_on_its_own(one_pass):
    rng = np.random.default_rng(1)
    F = trig_field(rng, (3, 3))
    assert pf.max_abs_coeff(F) > 0.0
    assert pf.max_abs_coeff_vec(pf.random_vec_field(rng, 3)) > 0.0


def test_lists_and_a_lone_scalar():
    rng = np.random.default_rng(2)
    ps = [pf.random_poly(rng, 3) for _ in range(4)]
    assert pf.max_abs_coeff(ps) == per_entry(ps)
    assert pf.max_abs_coeff(ps[0]) == ps[0].max_abs_coeff()
    t = trig_field(rng, (1,))[0]
    assert pf.max_abs_coeff(t) == t.max_abs_coeff()
    assert pf.max_abs_coeff([Poly3({(0, 0, 0): -7.5}), Poly3()]) == 7.5


@pytest.mark.parametrize("value, want", [(math.inf, math.inf), (-math.inf, math.inf),
                                         (-1e308, 1e308)])
def test_extreme_magnitudes(value, want):
    F = pf.random_mat_field(np.random.default_rng(3), 2)
    F[1, 2] = F[1, 2] + Poly3({(1, 1, 0): value})
    assert pf.max_abs_coeff(F) == want


def test_a_lone_subnormal_is_read():
    F = pf.zero_mat()
    F[2, 0] = Poly3({(0, 3, 1): -5e-324})
    assert pf.max_abs_coeff(F) == 5e-324


@pytest.mark.parametrize("position", range(27))
def test_nan_at_every_position_of_a_27_entry_field_wins(position):
    rng = np.random.default_rng(4)
    T = np.array([pf.random_poly(rng, 3) for _ in range(27)], dtype=object).reshape(3, 3, 3)
    idx = np.unravel_index(position, T.shape)
    keys = list(T[idx].coef)
    coef = dict(T[idx].coef)
    coef[keys[position % len(keys)]] = NAN
    T[idx] = Poly3(coef)
    assert math.isnan(pf.max_abs_coeff(T))
    assert math.isnan(pf.max_abs_coeff_ten3(T))
    T[(idx[0] + 1) % 3, idx[1], idx[2]] = Poly3({(0, 0, 0): math.inf})
    assert math.isnan(pf.max_abs_coeff(T))  # beside an inf too


def test_no_entry_and_no_coefficient_read_zero():
    for F in (np.empty(0, dtype=object), [], np.empty((3, 0), dtype=object)):
        assert pf.max_abs_coeff(F) == 0.0
    assert pf.max_abs_coeff(pf.zero_mat()) == 0.0 == Poly3().max_abs_coeff()
    assert pf.max_abs_coeff(Poly3()) == 0.0
