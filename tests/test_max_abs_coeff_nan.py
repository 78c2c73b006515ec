"""The largest coefficient magnitude keeps a NaN coefficient.

A contract value built on `max_abs_coeff` must not read finite when a
coefficient is NaN, whichever position the NaN takes in the fold.
"""
import math

import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress.polyfield import Poly3

NAN = float("nan")


@pytest.mark.parametrize("coef", [
    {(0, 0, 0): 1.0, (1, 0, 0): NAN},
    {(1, 0, 0): NAN, (0, 0, 0): 1.0},
    {(0, 0, 0): NAN},
])
def test_scalar_keeps_nan_in_either_key_order(coef):
    assert math.isnan(Poly3(coef).max_abs_coeff())


def test_scalar_values_unchanged():
    assert Poly3().max_abs_coeff() == 0.0
    assert Poly3({(0, 0, 0): -3.0, (0, 1, 0): 2.0}).max_abs_coeff() == 3.0
    assert isinstance(Poly3({(0, 0, 0): 1.0}).max_abs_coeff(), float)


def _field(values, shape):
    F = np.empty(shape, dtype=object)
    for idx, v in zip(np.ndindex(shape), values):
        F[idx] = Poly3.const(v)
    return F


@pytest.mark.parametrize("fold, shape", [
    (pf.max_abs_coeff_vec, (3,)),
    (pf.max_abs_coeff_mat, (3, 3)),
    (pf.max_abs_coeff_ten3, (3, 3, 3)),
])
def test_tensor_folds_keep_nan_at_every_position(fold, shape):
    n = int(np.prod(shape))
    for at in range(n):
        values = [1.0] * n
        values[at] = NAN
        assert math.isnan(fold(_field(values, shape))), (shape, at)
    values = -np.arange(n, dtype=float)
    assert fold(_field(values, shape)) == n - 1
