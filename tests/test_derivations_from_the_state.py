"""The lift, `identities.div_anti_gap` and the solver derive through the field's state.

`lift.second_gradient_flat` and `strain_gradient_flat` read the second and
strain gradients of u, `div_anti_gap` the curl of v, and
`solver.sym_curl_bound_ratio` J and Curl sym J of its batch, from
`energies._state`; `solver._term_symbols` reads J and the route's curvature
of the unit symbols from one state of them, in one call scope, so each route
forms one Jacobian of the unit symbols. Every result equals, bit for bit, the
formula each function states, run on `polyfield`'s operators directly, both
inside a scope that registers the input and outside one.
"""
import contextlib
from functools import cached_property

import numpy as np
import pytest

from couplestress import energies as en
from couplestress import identities as idn
from couplestress import lift as lf
from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress import tensors as tn


def field(seed, degree=4):
    return pf.random_vec_field(np.random.default_rng(seed), degree)


def recording(monkeypatch, *names):
    """Each read of these `_FieldState` fields, logged by name; each is formed by its
    own formula and kept as before."""
    seen = []
    for name in names:
        attr = vars(en._FieldState)[name]
        cached = isinstance(attr, cached_property)

        def read(self, name=name, get=attr.func if cached else attr.fget):
            seen.append(name)
            return get(self)

        wrapped = cached_property(read) if cached else property(read)
        if cached:
            wrapped.__set_name__(en._FieldState, name)
        monkeypatch.setattr(en._FieldState, name, wrapped)
    return seen


def same_entries(F, G):
    """Two fields of the same shape whose entries have the same keys, cap and bytes."""
    assert np.shape(F) == np.shape(G)
    for a, b in zip(np.ravel(F), np.ravel(G)):
        assert type(a) is type(b)
        if isinstance(a, pf.DenseBatch):
            assert a.coef.shape == b.coef.shape and a.coef.tobytes() == b.coef.tobytes()
        else:
            assert list(a.coef) == list(b.coef) and a.cap == b.cap
            assert np.array(list(a.coef.values())).tobytes() == \
                np.array(list(b.coef.values())).tobytes()


def scope(scoped, *fields):
    return en._derived_fields(*fields) if scoped else contextlib.nullcontext()


@pytest.mark.parametrize("scoped", [False, True])
def test_the_lift_reads_second_and_strain_gradients_from_the_state(scoped, monkeypatch):
    u = field(1)
    want_T = lf.flatten_field(pf.second_gradient(u))
    want_E = lf.flatten_field(pf.strain_gradient(u))
    seen = recording(monkeypatch, "second_gradient", "strain_gradient")
    with scope(scoped, u):
        T, E = lf.second_gradient_flat(u), lf.strain_gradient_flat(u)
        again = lf.second_gradient_flat(u)
    assert seen == ["second_gradient", "strain_gradient"] + ["second_gradient"] * (not scoped)
    assert all(a is b for a, b in zip(T, again)) == scoped  # a scope shares one state
    same_entries(T, want_T)
    same_entries(E, want_E)


@pytest.mark.parametrize("scoped", [False, True])
def test_div_anti_gap_reads_the_curl_from_the_state(scoped, monkeypatch):
    v = field(2)
    want = pf.mat_div(tn.anti(v)) + pf.curl(v)
    seen = recording(monkeypatch, "curl")
    with scope(scoped, v):
        got = idn.div_anti_gap(v)
    assert seen == ["curl"]
    same_entries(got, want)


def stated_bound_ratio(seed=0, trials=20, degree=4):
    """`solver.sym_curl_bound_ratio` as a formula on `polyfield`'s operators."""
    rng = np.random.default_rng(seed)
    U = pf.batch_fields([pf.random_vec_field(rng, degree) for _ in range(trials)])
    e = tn.sym(pf.jac(U))
    k = pf.mat_curl(e)
    e2, sk2, k2 = (np.diag(pf.batch_gram(M)) for M in (e, tn.sym(k), k))
    ratios = (e2 + sk2) / (e2 + k2)
    return {"min_ratio": float(ratios.min()), "max_ratio": float(ratios.max()),
            "trials": trials}


@pytest.mark.parametrize("scoped", [False, True])
def test_the_bound_ratio_reads_j_and_curl_sym_j_from_the_state(scoped, monkeypatch):
    want = [stated_bound_ratio(), stated_bound_ratio(3, 7, 3)]
    seen = recording(monkeypatch, "jacobian", "k_curl")
    with scope(scoped, field(0)):  # an open scope changes nothing
        got = [sv.sym_curl_bound_ratio(), sv.sym_curl_bound_ratio(3, 7, 3)]
    assert seen == ["jacobian", "k_curl"] * 2
    assert [{k: np.float64(v).tobytes() for k, v in r.items()} for r in got] == \
        [{k: np.float64(v).tobytes() for k, v in r.items()} for r in want]


def stated_term_symbols(curvature):
    """The terms of `solver.assemble` on the unit symbols, each field formed afresh."""
    U = pf.unit_symbols()
    J = pf.jac(U)
    k = curvature(U)
    return (*(part(J) for _, part in en.ELASTIC_PARTS),
            *(part(k) for _, part in en.CURVATURE_PARTS),
            J, en.curvature_from_jacobian(J, "curl"))


@pytest.fixture
def cleared_term_symbols():
    sv._term_symbols.cache_clear()
    yield
    sv._term_symbols.cache_clear()


@pytest.mark.parametrize("curvature", [en.strain_curl, en.rotation_gradient])
def test_each_route_forms_one_jacobian_of_the_unit_symbols(curvature, monkeypatch,
                                                          cleared_term_symbols):
    want = stated_term_symbols(curvature)
    batches, calls = [], []
    unit_symbols, jac = pf.unit_symbols, pf.jac

    def symbols():
        batches.append(unit_symbols())
        return batches[-1]

    def counted(F):
        calls.append(F)
        return jac(F)

    monkeypatch.setattr(pf, "unit_symbols", symbols)
    monkeypatch.setattr(pf, "jac", counted)
    got = sv._term_symbols(curvature)
    assert len(batches) == 1 and [F is batches[0] for F in calls].count(True) == 1
    assert len(got) == len(want)
    for a, b in zip(got, want):
        same_entries(a, b)
    assert en._FIELD_STATES.get() is None
