"""`micromorphic.coupled_stiffness` takes one Gram per coupled term.

A Gram list of another length would pair the terms with the wrong Grams or
drop the last ones; it is refused with a ValueError that names the model,
the term count and the Gram count, and a full list gives K as before.
"""
import numpy as np
import pytest

from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress.solver import bubble_basis


@pytest.fixture(scope="module")
def cosserat():
    basis = bubble_basis(1)
    companion = mm.companion_basis("cosserat", basis)
    return basis, companion, mm.coupled_operator_grams("cosserat", basis, companion)


@pytest.mark.parametrize("short", [1, 6])
def test_a_short_gram_list_is_refused_by_both_counts(cosserat, short):
    _, _, grams = cosserat
    assert len(grams) == 6
    with pytest.raises(ValueError, match=f"cosserat has 6 coupled terms, got {6 - short} Grams"):
        mm.coupled_stiffness("cosserat", mm.MicromorphicParams(), grams[:6 - short])


def test_a_long_gram_list_is_refused(cosserat):
    _, _, grams = cosserat
    with pytest.raises(ValueError, match="got 7 Grams"):
        mm.coupled_stiffness("cosserat", mm.MicromorphicParams(), grams + grams[:1])


def test_coupled_solve_refuses_a_short_gram_list(cosserat):
    basis, companion, grams = cosserat
    f = pf.const_vec([1.0, -2.0, 0.5])
    with pytest.raises(ValueError, match="6 coupled terms, got 5 Grams"):
        mm.coupled_solve("cosserat", mm.MicromorphicParams(penalty=1e2), basis, f,
                         companion_fields=companion, grams=grams[:-1])


def test_a_full_gram_list_gives_the_weighted_sum_bit_for_bit(cosserat):
    _, _, grams = cosserat
    params = mm.MicromorphicParams(penalty=1e2)
    K = sum(2.0 * w * G for (w, _), G in zip(mm._term_list("cosserat", params), grams))
    assert mm.coupled_stiffness("cosserat", params, grams).tobytes() == (0.5 * (K + K.T)).tobytes()
