"""`micromorphic.coupled_solve` refuses Grams built on another u basis.

Every Gram pairs the product span of the u basis and the companion, so one of
another size would end in numpy's bare broadcast error where the load is
placed; it is refused with a ValueError that names the Gram shape, the u
basis and companion sizes and the shape they need. Grams of the same basis
give the solve as before.
"""
import numpy as np
import pytest

from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress.solver import bubble_basis

F = pf.const_vec([1.0, -2.0, 0.5])
PARAMS = mm.MicromorphicParams(penalty=1e2)


@pytest.fixture(scope="module")
def order1():
    basis = bubble_basis(1)
    companion = mm.companion_basis("cosserat", basis)
    return basis, companion, mm.coupled_operator_grams("cosserat", basis, companion)


def test_grams_of_another_basis_are_refused_with_the_sizes(order1):
    _, companion1, grams = order1
    basis = bubble_basis(2)
    companion = mm.companion_basis("cosserat", basis)
    n1, nu, nc = grams[0].shape[0], len(basis.fields), len(companion)
    want = (rf"cosserat Grams of shape \({n1}, {n1}\) do not fit a u basis of {nu} fields "
            rf"and a companion of {nc} fields, which need \({nu + nc}, {nu + nc}\)")
    with pytest.raises(ValueError, match=want):
        mm.coupled_solve("cosserat", PARAMS, basis, F, grams=grams)
    with pytest.raises(ValueError, match="do not fit a u basis of"):
        mm.coupled_solve("cosserat", PARAMS, basis, F, companion_fields=companion1, grams=grams)


def test_one_gram_of_another_size_is_refused(order1):
    basis, companion, grams = order1
    bad = list(grams)
    bad[3] = np.zeros((len(grams[3]) + 1,) * 2)
    with pytest.raises(ValueError, match=r"Grams of shape \(\d+, \d+\) do not fit"):
        mm.coupled_solve("cosserat", PARAMS, basis, F, companion_fields=companion, grams=bad)


def test_grams_of_the_same_basis_solve_as_before(order1):
    basis, companion, grams = order1
    given = mm.coupled_solve("cosserat", PARAMS, basis, F, companion_fields=companion,
                             grams=grams)[1]
    formed = mm.coupled_solve("cosserat", PARAMS, basis, F, companion_fields=companion)[1]
    assert given == formed
