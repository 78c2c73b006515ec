"""The Galerkin path forms its fixed tables once per process.

Three tables depend only on a curvature route, a factor set or a layout:
each route's stacked symbol products (`solver._term_products`), the factor
moments (`polyfield.factor_moments`) and the moment and face rows of the
load pairing (`solver._load_pairing`). Each is held after its first call,
read-only, under a key of values (the family, the dtype, shape and bytes of
the factors, then the layout D and the face), so a later call reads it. The
references below form every table afresh with the formulas the cached path
replaced, and every K, G and load must equal them bit for bit, before and
after a cache fills past its bound and starts over.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress import tractions as tr
from couplestress.energies import (Material, curvature_weights, elastic_weights,
                                   rotation_gradient, strain_curl)
from couplestress.trig import TrigPoly

MATERIALS = [Material(1.0, 1.0, 1.0, 0.0, 1.0), Material(1.0, 0.7, 1.3, 0.4, 0.9)]
BASES = [("bubble", o) for o in (1, 2, 3, 4)] + [("sine", o) for o in (2, 3)]
ROUTES = {"curl": strain_curl, "axl": rotation_gradient}


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def make_basis(kind, order):
    return (sv.bubble_basis if kind == "bubble" else sv.sine_basis)(order)


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty table caches for the test, and the route products formed anew."""
    monkeypatch.setattr(pf, "_FACTOR_MOMENTS", pf._PlanCache(pf._TABLE_ENTRIES))
    monkeypatch.setattr(sv, "_PAIRING_ROWS", pf._PlanCache(pf._TABLE_ENTRIES))
    sv._term_products.cache_clear()
    yield
    sv._term_products.cache_clear()


# --- references: every table formed afresh ----------------------------------------


def fresh_moments(rows, family):
    D = rows.shape[-1]
    Rt = family.dense_diff(D).T
    derivs = [rows]
    for _ in range(pf.SYMBOL_SIZE - 1):
        derivs.append(derivs[-1] @ Rt)
    P = np.stack(derivs)
    return np.tensordot(P @ family.dense_moments(D), P, (2, 2)).transpose(0, 2, 1, 3)


def fresh_assembly(basis, mat, formulation):
    stiffness = [*elastic_weights(mat)[1], *curvature_weights(mat)]
    weights = [stiffness + [0.0, 0.0], [0.0] * len(stiffness) + [1.0, 1.0]]
    K, G = pf.symbol_grams(sv._term_symbols(ROUTES[formulation]), weights,
                           fresh_moments(basis.factors, basis.family))
    return 0.5 * (K + K.T), 0.5 * (G + G.T)


def fresh_pairing(basis, family, F, faces=()):
    D = max([basis.factors.shape[-1], F.shape[-1]] + [G.shape[-1] for _, G in faces])
    Phi = np.zeros((basis.order, D))
    Phi[:, :basis.factors.shape[-1]] = basis.factors
    A = Phi @ family.dense_moments(D)

    def pair(X, rows):
        d = X.shape[-1]
        A0, A1, A2 = (r[:, :d] for r in rows)
        T = A0 @ (A1 @ (X @ A2.T)).reshape(3, d, -1)
        return T.reshape(3, -1).T.ravel()

    b = pair(F, [A] * 3)
    for face, G in faces:
        V = family.dense_values(D, face.value)
        rows = [A] * 3
        rows[face.axis] = np.outer(face.normal[face.axis] * (Phi @ family.dense_diff(D).T @ V), V)
        b += pair(G, rows)
    return b


@pytest.fixture
def pairings(monkeypatch):
    """Each `_load_pairing` call's arguments, result and fresh pairing."""
    calls = []
    load_pairing = sv._load_pairing

    def recorded(basis, family, F, faces=()):
        b = load_pairing(basis, family, F, faces)
        calls.append((b, fresh_pairing(basis, family, F, faces), F.shape[-1], faces))
        return b

    monkeypatch.setattr(sv, "_load_pairing", recorded)
    return calls


# --- inputs -------------------------------------------------------------------------


def poly_load(seed, degree):
    return pf.random_vec_field(np.random.default_rng(seed), degree)


def trig_load(seed, size):
    cube = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, size, size, size))
    return pf.as_vec([TrigPoly.from_cube(c) for c in cube])


def load_of(kind, seed, layout):
    """A load of the basis family on the given layout."""
    return poly_load(seed, layout - 1) if kind == "bubble" else trig_load(seed, layout)


LAYOUTS = {"bubble": (4, 7), "sine": (5, 9)}  # the order-2 layout, then a larger one


# --- the stiffness ---------------------------------------------------------------------


@pytest.mark.parametrize("mat", MATERIALS, ids=["default", "coupled"])
@pytest.mark.parametrize("formulation", list(ROUTES))
@pytest.mark.parametrize("kind,order", BASES, ids=[f"{k}-o{o}" for k, o in BASES])
def test_stiffness_and_norm_gram_equal_an_uncached_assembly(kind, order, formulation, mat,
                                                            fresh_tables):
    basis = make_basis(kind, order)
    want_K, want_G = fresh_assembly(basis, mat, formulation)
    for _ in range(2):  # forming the tables, then reading them
        asm = sv.assemble(basis, mat, formulation)
        assert same(asm.K, want_K) and same(asm.G, want_G)


@pytest.mark.parametrize("formulation", list(ROUTES))
def test_a_second_assembly_of_a_route_stacks_no_symbols(formulation, fresh_tables, monkeypatch):
    calls, routes = [], []
    stacks, term_symbols = pf._stacks, sv._term_symbols
    monkeypatch.setattr(pf, "_stacks", lambda *fields: calls.append(len(fields)) or stacks(*fields))
    monkeypatch.setattr(sv, "_term_symbols", lambda c: routes.append(c) or term_symbols(c))
    sv.assemble(sv.bubble_basis(2), MATERIALS[1], formulation)
    assert len(calls) == 1 and routes == [ROUTES[formulation]]  # the route's own terms
    sv.assemble(sv.bubble_basis(3), MATERIALS[0], formulation)
    sv.assemble(sv.sine_basis(2), MATERIALS[1], formulation)
    assert len(calls) == 1


def test_symbol_grams_take_the_products_for_the_terms():
    basis = sv.bubble_basis(2)
    terms = sv._term_symbols(strain_curl)
    weights = [list(np.linspace(0.25, 3.0, len(terms))), [1.0] * len(terms)]
    M = fresh_moments(basis.factors, basis.family)
    C = pf._symbol_products(terms)
    assert not C.flags.writeable and C.shape == (len(terms), 3, 27, 3, 27)
    assert same(pf.symbol_grams(C, weights, M), pf.symbol_grams(terms, weights, M))


@pytest.mark.parametrize("kind,order", BASES, ids=[f"{k}-o{o}" for k, o in BASES])
def test_factor_moments_are_held_read_only(kind, order, fresh_tables):
    basis = make_basis(kind, order)
    M = pf.factor_moments(basis.factors, basis.family)
    assert not M.flags.writeable
    with pytest.raises(ValueError):
        M[0, 0, 0, 0] = 1.0
    assert same(M, fresh_moments(basis.factors, basis.family))
    assert pf.factor_moments(basis.factors.copy(), basis.family) is M  # keyed by value


# --- the loads ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["bubble", "sine"])
def test_load_vector_equals_a_fresh_pairing_at_two_layouts(kind, fresh_tables, pairings):
    basis = make_basis(kind, 2)
    for seed, layout in enumerate(LAYOUTS[kind] * 2):  # each layout formed, then read
        b = sv.load_vector(basis, load_of(kind, seed, layout))
        got, want, D, _ = pairings[-1]
        assert D == layout and b is got and same(got, want)
    assert len(sv._PAIRING_ROWS.plans) == 2  # the moment rows of each layout


@pytest.mark.parametrize("kind", ["bubble", "sine"])
def test_manufactured_load_equals_a_fresh_pairing_on_every_face(kind, fresh_tables, pairings):
    basis = make_basis(kind, 2)
    inside = sv.displacement(basis, np.random.default_rng(5).uniform(-1.0, 1.0, len(basis)))
    wider = poly_load(6, 5) if kind == "bubble" else trig_load(6, 7)
    layouts = set()
    for u_star in (inside, wider, inside, wider):
        _, b = sv.manufactured_load(basis, u_star, MATERIALS[1])
        got, want, D, faces = pairings[-1]
        assert [face for face, _ in faces] == list(tr.ALL_FACES)
        assert same(b, got) and same(got, want)
        layouts.add(max([D] + [G.shape[-1] for _, G in faces]))
    assert len(layouts) == 2
    assert len(sv._PAIRING_ROWS.plans) == 2 * 7  # per layout: the moment rows and six faces


def test_bubble_and_sine_factors_of_one_order_share_no_rows(fresh_tables, pairings):
    bubble, sine = sv.bubble_basis(3), sv.sine_basis(3)
    for basis, f in [(bubble, poly_load(1, 6)), (sine, trig_load(2, 7))] * 2:
        sv.load_vector(basis, f)
        got, want, D, _ = pairings[-1]
        assert D == 7 and same(got, want)
    assert len(sv._PAIRING_ROWS.plans) == 2
    assert pf.factor_moments(bubble.factors, pf.Poly3) is not pf.factor_moments(
        sine.factors, TrigPoly)


def test_one_factor_set_in_two_families_shares_no_table(fresh_tables, pairings):
    rows = sv.sine_basis(2).factors
    as_poly = sv.Basis(pf.Poly3, rows.copy(), "bubble")
    as_trig = sv.Basis(TrigPoly, rows.copy(), "sine")
    for basis, f in [(as_poly, poly_load(3, 4)), (as_trig, trig_load(4, 5))] * 2:
        sv.load_vector(basis, f)
        got, want, D, _ = pairings[-1]
        assert D == 5 and same(got, want)
        assert same(pf.factor_moments(basis.factors, basis.family),
                    fresh_moments(basis.factors, basis.family))
    assert len(sv._PAIRING_ROWS.plans) == 2 and len(pf._FACTOR_MOMENTS.plans) == 2


def test_factor_sets_of_equal_bytes_and_other_shapes_share_no_table(fresh_tables, pairings):
    values = np.linspace(-1.0, 1.0, 12)
    for shape in [(2, 6), (3, 4), (2, 6), (3, 4)]:
        basis = sv.Basis(pf.Poly3, values.reshape(shape).copy(), "bubble")
        assert same(pf.factor_moments(basis.factors, pf.Poly3),
                    fresh_moments(basis.factors, pf.Poly3))
        sv.load_vector(basis, poly_load(7, 5))
        got, want, D, _ = pairings[-1]
        assert D == 6 and same(got, want)
    assert len(sv._PAIRING_ROWS.plans) == 2 and len(pf._FACTOR_MOMENTS.plans) == 2


# --- the bound ----------------------------------------------------------------------


def test_a_cache_filled_past_its_bound_starts_over_and_keeps_every_result(monkeypatch,
                                                                         pairings):
    moments, rows = pf._PlanCache(100), pf._PlanCache(40)
    monkeypatch.setattr(pf, "_FACTOR_MOMENTS", moments)
    monkeypatch.setattr(sv, "_PAIRING_ROWS", rows)
    held = {"moments": [], "rows": []}
    for kind, order in BASES * 2:
        basis = make_basis(kind, order)
        asm = sv.assemble(basis, MATERIALS[1], "axl")
        want_K, want_G = fresh_assembly(basis, MATERIALS[1], "axl")
        assert same(asm.K, want_K) and same(asm.G, want_G)
        u_star = sv.displacement(basis, np.random.default_rng(order).uniform(-1, 1, len(basis)))
        sv.manufactured_load(basis, u_star, MATERIALS[0])
        got, want, _, _ = pairings[-1]
        assert same(got, want)
        held["moments"].append(moments.pairs)
        held["rows"].append(rows.pairs)
        assert moments.pairs <= moments.bound and rows.pairs <= rows.bound
    for units in held.values():
        assert any(b < a for a, b in zip(units, units[1:]))  # a restart
