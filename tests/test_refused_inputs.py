"""Inputs that used to be taken silently and are now refused by name.

* A Poly3 key with a non-integer exponent was truncated, and a TrigPoly key
  with a non-integer frequency or a factor kind other than cos (0) and sin
  (1) was truncated or read as cos 0. Both constructors raise ValueError
  naming the key; exponents and frequencies of any integer type still work.
* `tractions.edge_force` and `edge_conormal` took a face's normal axis, or
  a value between 0 and 1, as an "edge" (a mid-plane with a made-up
  conormal, or an IndexError past axis 2).
* `conformal.classify_density` called a density with a NaN coefficient
  "constant"; it is now "non-finite", which no classification accepts.
"""
import math

import numpy as np
import pytest

from couplestress import conformal as cf
from couplestress import polyfield as pf
from couplestress import stresses as st
from couplestress import tractions as tr
from couplestress.energies import Material
from couplestress.trig import TrigPoly


@pytest.mark.parametrize("key", [(1.5, 0, 0), (1.0, 0, 0), (0, 0, "2"), (1, 0), (1, 0, 0, 0),
                                 (None, 0, 0)])
def test_poly3_refuses_a_key_that_is_not_three_integer_exponents(key):
    with pytest.raises(ValueError, match=r"monomial key .* is not three integer exponents"):
        pf.Poly3({key: 1.0})


@pytest.mark.parametrize("key", [((1, 1.5), (1, 1), (1, 1)), ((2, 1), (1, 1), (1, 1)),
                                 ((-1, 1), (1, 1), (1, 1)), ((1, 1), (1, 1)),
                                 ((1, 1), (1, 1), (1, 1), (1, 1)), ((1.0, 1), (1, 1), (0, 0))])
def test_trigpoly_refuses_a_key_that_is_not_three_factors(key):
    with pytest.raises(ValueError, match=r"term key .* is not three factors"):
        TrigPoly({key: 1.0})


def test_integer_keys_of_any_integer_type_still_work():
    p = pf.Poly3({(np.int64(1), np.int32(0), 2): 3.0})
    assert p.coef == {(1, 0, 2): 3.0} and all(type(e) is int for e in next(iter(p.coef)))
    q = TrigPoly({((np.int64(1), np.int8(2)), (1, -1), (0, 0)): 2.0})
    assert q.coef == TrigPoly({((1, 2), (1, -1), (0, 0)): 2.0}).coef == {(3, 1, 0): -2.0}
    cube = np.zeros((3, 3, 3))
    cube[2, 0, 1] = 4.0
    assert pf.from_dense(cube).coef == {(2, 0, 1): 4.0}


STATE = st.assemble(pf.random_vec_field(np.random.default_rng(4), 3), Material())
FACE = tr.Face(0, 1.0)


@pytest.mark.parametrize("edge_axis, edge_value", [(0, 1.0), (0, 0.0), (5, 1.0), (-1, 0.0),
                                                   (1, 0.5), (2, 2.0), (1, math.nan)])
def test_edge_force_and_conormal_refuse_what_is_not_an_edge(edge_axis, edge_value):
    with pytest.raises(ValueError, match="no edge of"):
        tr.edge_conormal(FACE, edge_axis, edge_value)
    with pytest.raises(ValueError, match="no edge of"):
        tr.edge_force(STATE, FACE, edge_axis, edge_value)


def test_every_edge_of_every_face_is_still_taken():
    for face in tr.ALL_FACES:
        for edge_axis in face.tangential_axes:
            for edge_value in (0.0, 1.0):
                nu = tr.edge_conormal(face, edge_axis, edge_value)
                assert nu[edge_axis] == (1.0 if edge_value == 1.0 else -1.0)
                assert len(tr.edge_force(STATE, face, edge_axis, edge_value)) == 3


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_density_is_not_classified(value):
    assert cf.classify_density(pf.Poly3({(1, 0, 0): value})) == "non-finite"
    assert cf.classify_density(pf.Poly3({(0, 0, 0): 2.0, (0, 1, 1): value})) == "non-finite"


def test_finite_densities_keep_their_labels():
    assert cf.classify_density(pf.Poly3.zero()) == "invariant"
    assert cf.classify_density(pf.Poly3({(0, 0, 0): 1e-13})) == "invariant"
    assert cf.classify_density(pf.Poly3({(0, 0, 0): 2.0, (1, 0, 0): 1e-14})) == "constant"
    assert cf.classify_density(pf.Poly3({(0, 1, 0): 2.0})) == "sensitive"
