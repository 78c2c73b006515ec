"""The recovery error on coefficient stacks.

`solver.recovery_error` forms u_h - u_star as one cube stack, the basis
combination minus the stack of u_star, and takes its norm through the
batch path of `functional_norm`, building no field of u_h. It must equal
`functional_norm(displacement(basis, c) - u_star)` restated, bit for bit.
"""
import math
import struct
import warnings

import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress.trig import TrigPoly

BASES = [("bubble", 1), ("bubble", 2), ("bubble", 3), ("bubble", 4), ("sine", 2), ("sine", 3)]


def basis_of(kind, order):
    return (sv.bubble_basis if kind == "bubble" else sv.sine_basis)(order)


def restated(basis, c, u_star):
    with np.errstate(over="ignore", invalid="ignore"):
        return sv.functional_norm(sv.displacement(basis, c) - u_star)


def bits(x):
    return struct.pack("<d", x)


def coefficient_sets(rng, c_star):
    """Near recovery, exact on a random half of the entries, a sparse c and a far c."""
    n = len(c_star)
    return [c_star + rng.normal(0.0, 1e-6, n),
            np.where(rng.uniform(size=n) < 0.5, c_star, c_star + 1e-9),
            c_star * (rng.uniform(size=n) < 0.3),
            rng.uniform(-1.0, 1.0, n)]


@pytest.mark.parametrize("kind,order", BASES)
def test_recovery_error_equals_the_field_difference_bit_for_bit(kind, order):
    basis = basis_of(kind, order)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        c_star = rng.uniform(-1.0, 1.0, len(basis))
        u_star = sv.displacement(basis, c_star)
        for c in coefficient_sets(rng, c_star):
            assert bits(sv.recovery_error(basis, c, u_star)) == bits(restated(basis, c, u_star))


@pytest.mark.parametrize("order", [1, 2, 4])
def test_a_u_star_on_another_layout_gives_the_same_bits(order):
    """u_star of degree 5, on a layout at least as large as the basis's, and u_star
    equal to u_h up to one low term, so that the difference needs a smaller layout."""
    basis = sv.bubble_basis(order)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-1.0, 1.0, len(basis))
        near = sv.displacement(basis, c)
        near[1] = near[1] + pf.Poly3({(1, 0, 1): 0.25}, near[1].cap)
        for u_star in (pf.random_vec_field(rng, 5), near):
            assert bits(sv.recovery_error(basis, c, u_star)) == bits(restated(basis, c, u_star))


@pytest.mark.parametrize("kind,order", BASES)
def test_the_norm_reads_the_stack_of_the_field_difference(kind, order, monkeypatch):
    """The stack the norm reads is `FieldStack.of` of the field difference: the same
    layout and the same bytes, no -0.0 among them."""
    basis = basis_of(kind, order)
    rng = np.random.default_rng(order)
    c_star = rng.uniform(-1.0, 1.0, len(basis))
    u_star = sv.displacement(basis, c_star)
    read = []
    norm = sv._stack_norm
    monkeypatch.setattr(sv, "_stack_norm", lambda U: read.append(U) or norm(U))
    for c in coefficient_sets(rng, c_star) + [c_star, np.zeros(len(basis))]:
        sv.recovery_error(basis, c, u_star)
        ref = pf.FieldStack.of([sv.displacement(basis, c) - u_star])
        got = read.pop()
        assert got.family is ref.family and got.cubes.shape == ref.cubes.shape
        assert np.ascontiguousarray(got.cubes).tobytes() == ref.cubes.tobytes()


@pytest.mark.parametrize("kind,order", BASES)
def test_exact_recovery_reads_positive_zero(kind, order):
    basis = basis_of(kind, order)
    c_star = np.random.default_rng(order).uniform(-1.0, 1.0, len(basis))
    err = sv.recovery_error(basis, c_star, sv.displacement(basis, c_star))
    assert bits(err) == bits(0.0)


def test_no_field_of_u_h_is_built(monkeypatch):
    def refused(*args):
        raise AssertionError("a field was built from a cube")

    monkeypatch.setattr(pf, "from_dense", refused)
    monkeypatch.setattr(TrigPoly, "from_cube", staticmethod(refused))
    monkeypatch.setattr(pf.FieldStack, "__getitem__", refused)
    rng = np.random.default_rng(0)
    for basis, u_star in ((sv.bubble_basis(2), pf.as_vec([pf.Poly3({(1, 1, 1): 1.0})] * 3)),
                          (sv.sine_basis(2), pf.as_vec([TrigPoly.sine_mode((1, 1, 1))] * 3))):
        assert sv.recovery_error(basis, rng.uniform(-1.0, 1.0, len(basis)), u_star) > 0.0


def test_an_infinite_u_star_gives_a_non_finite_error_without_a_warning():
    basis = sv.bubble_basis(2)
    c = np.random.default_rng(1).uniform(-1.0, 1.0, len(basis))
    u_star = sv.displacement(basis, c)
    u_star[2] = u_star[2] + pf.Poly3({(1, 2, 1): float("inf")})
    for shift in (0.0, 1e-3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = sv.recovery_error(basis, c + shift, u_star)
        ref = restated(basis, c + shift, u_star)
        assert not math.isfinite(err) and math.isnan(err) == math.isnan(ref)
        assert math.isnan(err) or err == ref
