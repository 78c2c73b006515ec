"""`lift.roundtrip_gap` applies A H to the coefficient stack of the second gradient.

The round trip takes T from the state of u, stacks it once and applies A H
row by row, one vectorized step per term rank, each row's terms in ascending
column: the float operations of `apply_flat` on the Poly3 fields, in the same
order. So it forms no Poly3 field (no `apply_flat`, no Poly3 sum or product),
and its gap is the one `apply_flat` gives, bit for bit, on finite and
non-finite fields, of both sign conventions, at every degree.
"""
import numpy as np
import pytest

from couplestress import energies as en
from couplestress import lift as lf
from couplestress import polyfield as pf
from test_array_expressions_bitwise import SPECIALS, same, spiked


def poly3_gap(u, signs):
    """The round trip on Poly3 fields: `apply_flat` of A H, then the field differences."""
    T = lf.second_gradient_flat(u)
    back = lf.apply_flat(lf.reconstruction_matrix(signs) @ lf.halfsym_matrix(), T)
    return pf.max_abs_coeff(back - T)


@pytest.fixture(autouse=True)
def quiet():
    # inf - inf in the Poly3 restatement sets the invalid flag; its NaN is compared
    with np.errstate(invalid="ignore", over="ignore"):
        yield


def test_the_round_trip_forms_no_poly3_field(monkeypatch):
    u = pf.random_vec_field(np.random.default_rng(0), 4)
    want = {signs: poly3_gap(u, signs) for signs in ("corrected", "printed")}
    with en._derived_fields(u):
        en._state(u).second_gradient  # derived before the Poly3 arithmetic is refused

        def refused(*args):
            raise AssertionError("the round trip formed a Poly3 field")

        monkeypatch.setattr(lf, "apply_flat", refused)
        for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
            monkeypatch.setattr(pf.Poly3, name, refused)
        for signs, gap in want.items():
            same(lf.roundtrip_gap(u, signs), gap)


@pytest.mark.parametrize("signs", ["corrected", "printed"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6])
def test_the_gap_is_the_poly3_gap_at_every_degree(signs, degree):
    for seed in range(3):
        u = pf.random_vec_field(np.random.default_rng(seed), degree)
        same(lf.roundtrip_gap(u, signs), poly3_gap(u, signs))


@pytest.mark.parametrize("special", sorted(SPECIALS))
@pytest.mark.parametrize("signs", ["corrected", "printed"])
def test_non_finite_and_tiny_coefficients_give_the_poly3_gap(signs, special):
    rng = np.random.default_rng(5)
    for key in [(2, 0, 0), (1, 1, 1), (0, 3, 1)]:
        u = pf.random_vec_field(rng, 4)
        u[key[0]] = spiked(u[key[0]], key, SPECIALS[special])
        u[2] = u[2] + pf.Poly3({(0, 2, 2): 1e-310, (3, 0, 0): 1e300})  # subnormal and huge
        same(lf.roundtrip_gap(u, signs), poly3_gap(u, signs))


def test_each_row_sums_its_terms_in_ascending_column():
    for signs in ("corrected", "printed"):
        M = lf.reconstruction_matrix(signs) @ lf.halfsym_matrix()
        terms = lf._roundtrip_terms(signs)
        seen = {}
        for rank, (rows, cols, vals) in enumerate(terms):
            for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
                assert len(seen.setdefault(r, [])) == rank
                seen[r].append((c, v))
        for r in range(27):
            nz = np.flatnonzero(M[r])
            assert seen.get(r, []) == [(c, M[r, c]) for c in nz.tolist()]
        assert sum(len(rows) for rows, _, _ in terms) == np.count_nonzero(M) == 69


def test_an_unknown_sign_convention_is_refused_before_deriving(monkeypatch):
    def refused(u):
        raise AssertionError("derived before the sign convention was checked")

    monkeypatch.setattr(pf, "second_gradient", refused)
    u = pf.random_vec_field(np.random.default_rng(1), 3)
    for signs in ("mixed", ["corrected"], None):
        with pytest.raises(ValueError, match="sign convention"):
            lf.roundtrip_gap(u, signs)
