"""random_poly draws its coefficients with one generator call.

The one vector draw must give every seeded field of the scalar loop it
replaced: the same keys in the same order, the same values and cap, and the
generator left in the same state, so every seeded report stays as it was.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf


def scalar_loop_poly(rng, degree, scale):
    """random_poly as one scalar draw per coefficient, i slowest and k fastest."""
    coef = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            for k in range(degree + 1 - i - j):
                coef[(i, j, k)] = rng.uniform(-scale, scale)
    return pf.Poly3(coef, max(pf.DEFAULT_CAP, degree))


@pytest.mark.parametrize("scale", [1.0, 0.25, 3e5])
@pytest.mark.parametrize("degree", range(9))
def test_one_draw_equals_the_scalar_loop(degree, scale):
    got_rng, ref_rng = np.random.default_rng(degree), np.random.default_rng(degree)
    for _ in range(3):
        got = pf.random_poly(got_rng, degree, scale=scale)
        ref = scalar_loop_poly(ref_rng, degree, scale)
        assert list(got.coef) == list(ref.coef)
        assert all(type(i) is int for key in got.coef for i in key)
        assert [np.float64(v).tobytes() for v in got.coef.values()] == \
               [np.float64(v).tobytes() for v in ref.coef.values()]
        assert all(type(v) is float for v in got.coef.values())
        assert got.cap == ref.cap
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_the_field_helpers_keep_their_stream():
    got_rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    u = pf.random_vec_field(got_rng, 4)
    P = pf.random_mat_field(got_rng, 3, cap=12, scale=2.0)
    ref_u = [scalar_loop_poly(ref_rng, 4, 1.0) for _ in range(3)]
    ref_P = [scalar_loop_poly(ref_rng, 3, 2.0) for _ in range(9)]
    for p, q in zip(list(u) + list(P.ravel()), ref_u + ref_P):
        assert list(p.coef.items()) == list(q.coef.items())
    assert [p.cap for p in P.ravel()] == [12] * 9
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_simplex_keys_is_the_draw_order():
    assert pf.simplex_keys(0) == ((0, 0, 0),)
    assert pf.simplex_keys(1) == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    for degree in range(9):
        keys = pf.simplex_keys(degree)
        assert len(keys) == (degree + 1) * (degree + 2) * (degree + 3) // 6
        assert len(set(keys)) == len(keys) and max(map(sum, keys)) == degree
