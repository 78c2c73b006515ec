"""Product plans: bounded, reused, and silent on non-finite coefficients.

A plan holds the structure of a product (or of a fused sum of products)
that depends only on the operands' key orders. The caches are bounded by
`PLAN_PAIRS` term pairs and start over when full; a sweep item forms few plans for the
products it runs. The numpy steps of the kernel give inf and NaN silently,
as the dict loop does, and bitwise the same.
"""
import math
import warnings

import numpy as np
import pytest

from couplestress import conformal as cf
from couplestress import energies as en
from couplestress import gridoracle as go
from couplestress import identities as idn
from couplestress import lift as lf
from couplestress import polyfield as pf
from couplestress import stresses as st
from couplestress import tractions as tr
from couplestress.polyfield import Poly3
from test_poly3_kernel import assert_same, random_poly, ref_mul
from test_poly3_dot import ref_dot

NAN = float("nan")


@pytest.fixture
def fresh_plans(monkeypatch):
    """Empty plan caches for the test, the module's own restored after it."""
    monkeypatch.setattr(pf, "_PLANS", pf._PlanCache())
    monkeypatch.setattr(pf, "_DOT_PLANS", pf._PlanCache())


def _big_pair(seed):
    """Two 35-term operands (every monomial of degree 4), shuffled."""
    rng = np.random.default_rng(seed)
    return random_poly(rng, 4), random_poly(rng, 4)


def _with(p, key, value):
    """p with one coefficient set in place (a 0.0 too, which no constructor keeps)."""
    out = Poly3(p.coef, p.cap)
    out.coef[key] = value
    return out


# --- non-finite coefficients ----------------------------------------------------


@pytest.mark.parametrize("path", ["loop", "plan"])
def test_nonfinite_products_are_silent_and_match_the_loop(path, monkeypatch):
    monkeypatch.setattr(pf, "MUL_BINCOUNT_PAIRS", 10**9 if path == "loop" else 1)
    p, q = _big_pair(1)
    assert len(p.coef) * len(q.coef) == 35 * 35
    k1, k2 = list(p.coef)[3], list(q.coef)[7]
    cases = [
        (_with(p, k1, 1e300), _with(q, k2, 1e10), math.isinf),  # overflow
        (_with(p, k1, math.inf), _with(q, k2, 0.0), math.isnan),  # inf * 0
        (_with(p, k1, math.inf), _with(q, k2, -math.inf), lambda v: not math.isfinite(v)),
        (_with(p, k1, NAN), q, math.isnan),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b, shows in cases:
            got = a * b
            assert_same(got, ref_mul(a, b))
            assert any(map(shows, got.coef.values()))


def test_nonfinite_dot_is_silent(fresh_plans, monkeypatch):
    monkeypatch.setattr(pf, "DOT_FUSED_PAIRS", 1)
    p, q = _big_pair(2)
    ps = [p, _with(p, list(p.coef)[0], 1e300), q]
    qs = [q, _with(q, list(q.coef)[5], -1e300), _with(q, list(q.coef)[1], math.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weights in (None, [1.0, 2.0, 0.5], [1e300, 1e300, 1e-300]):
            assert_same(Poly3.dot(ps, qs, weights), ref_dot(ps, qs, weights))


# --- the caches -----------------------------------------------------------------


def _held():
    """Term pairs of the product plans and of the fused-dot plans held, from their keys."""
    products = sum(len(pk) * len(qk) for pk, qk in pf._PLANS.plans)
    dots = sum(len(pk) * len(qk) for key in pf._DOT_PLANS.plans for pk, qk in key)
    assert (products, dots) == (pf._PLANS.pairs, pf._DOT_PLANS.pairs)
    return products, dots


def test_plan_caches_stay_bounded_and_results_do_not_change(fresh_plans, monkeypatch):
    monkeypatch.setattr(pf, "PLAN_PAIRS", 1500)
    monkeypatch.setattr(pf, "DOT_FUSED_PAIRS", 1)
    rng = np.random.default_rng(3)
    operands = [(random_poly(rng, d), random_poly(rng, d + 1)) for d in (2, 3, 4) for _ in range(3)]
    for rounds in range(2):
        for p, q in operands:
            assert_same(p * q, ref_mul(p, q))
            assert max(_held()) <= pf.PLAN_PAIRS
        for m in range(len(operands) - 1):
            ps = [operands[m][0], operands[m + 1][0]]
            qs = [operands[m][1], operands[m + 1][1]]
            assert_same(Poly3.dot(ps, qs, [0.5, -2.0]), ref_dot(ps, qs, [0.5, -2.0]))
            assert max(_held()) <= pf.PLAN_PAIRS
    assert len(pf._PLANS.plans) >= 1 and len(pf._DOT_PLANS.plans) >= 1


def test_a_plan_larger_than_the_cache_is_not_kept(fresh_plans, monkeypatch):
    monkeypatch.setattr(pf, "PLAN_PAIRS", 100)
    p, q = _big_pair(6)
    assert_same(p * q, ref_mul(p, q))
    assert pf._PLANS.plans == {} and pf._PLANS.pairs == 0


def test_a_plan_is_formed_once_per_key_order_pair(fresh_plans, monkeypatch):
    formed = []
    real = pf._form_plan
    monkeypatch.setattr(pf, "_form_plan", lambda pk, qk: formed.append(1) or real(pk, qk))
    rng = np.random.default_rng(4)
    p = pf.random_poly(rng, 3)
    for _ in range(5):
        q = pf.random_poly(rng, 3)  # same key order, new values
        assert_same(p * q, ref_mul(p, q))
    assert len(formed) == 1


def _sweep_item(u, degree, seed, face, mat, C):
    """Every call one calculus-sweep field runs, checks included."""
    for name in sorted(en.MODEL_REGISTRY):
        en.evaluate_model(name, u, mat)
    en.equivalence_report(u, mat)
    (en.grioli_density(u, mat, alpha1=0.7, eta_prime=0.3)
     - en.indeterminate_density(u, mat.with_alphas(*en.grioli_to_indeterminate(0.7, 0.3)))
     ).max_abs_coeff()
    state = st.assemble(u, mat)
    st.structure_report(state)
    idn.run_suite(seed=seed, trials=1, degree=degree)
    phi, params = cf.random_conformal(np.random.default_rng(seed))
    cf.relations_report(phi, params)
    cf.invariance_report(phi, params, mat)
    tr.compare_double_forces(state, face)
    tr.face_work_comparison(state, face, tr.face_bump(face, direction=1))
    lf.roundtrip_gap(u, "corrected")
    lf.roundtrip_gap(u, "printed")
    lf.verify_energy_equality(u, 1.0, 0.0, C)
    for name in go.operator_names():
        go.check_operator(name, u)


def test_a_cold_sweep_item_reuses_its_plans(fresh_plans, monkeypatch):
    counts = {"formed": 0, "products": 0}
    for name in ("_form_plan", "_form_dot_plan"):
        real = getattr(pf, name)

        def forming(*args, real=real):
            counts["formed"] += 1
            return real(*args)

        monkeypatch.setattr(pf, name, forming)
    real_product, real_fused = Poly3._product, pf._fused_dot

    def product(self, other):
        counts["products"] += 1
        return real_product(self, other)

    def fused(ps, qs, *args):
        out = real_fused(ps, qs, *args)
        if out is not None:
            counts["products"] += len(ps)
        return out

    monkeypatch.setattr(Poly3, "_product", product)
    monkeypatch.setattr(pf, "_fused_dot", fused)
    rng = np.random.default_rng(5)
    u = pf.random_vec_field(rng, 5)
    _sweep_item(u, 5, 12345, tr.ALL_FACES[2], en.Material(), lf.sixth_order_isotropic(1.0, 0.0))
    assert counts["products"] > 500
    assert counts["formed"] < 0.05 * counts["products"], counts
