"""Every density of `energies` against its earlier writing, bit for bit.

`energies` states each density as invariants under weights, summed left to
right by one rule, and the five classical writings of the curvature energy
as one table. The functions below restate the earlier bodies, each weighted
sum written out by hand, and every result must equal them exactly: the same
keys in the same order, the same cap and the same bits of every coefficient
(`tobytes`). Where mu ell^2 enters matters in the last bit, so the materials
include non-unit scales, and a field with an infinite coefficient turns
any part that meets it into NaN, which tells sym from dev sym apart.
"""
import operator
from functools import reduce

import numpy as np
import pytest

from couplestress import energies as en
from couplestress import polyfield as pf
from couplestress import tensors as tn
from couplestress.energies import CURVATURE_PARTS, ELASTIC_PARTS, Material
from couplestress.trig import SIN, TrigPoly

# --- the earlier bodies ---------------------------------------------------------


def old_quadratic(X, weights, parts):
    vals = [part(X) for _, part in parts]
    return reduce(operator.add, [(tn.norm_sq(v) if isinstance(v, np.ndarray) else v * v) * w
                                 for v, w in zip(vals, weights)])


def old_conjugate(X, weights, parts):
    vals = [part(X) for _, part in parts]
    return reduce(operator.add, [(v if isinstance(v, np.ndarray) else tn.identity_like(X) * v) * w
                                 for v, w in zip(vals, weights)])


def old_linear_elastic_density(u, mat):
    return old_quadratic(pf.jac(u), en.elastic_weights(mat)[0], ELASTIC_PARTS)


def old_linear_elastic_density_volumetric(u, mat):
    J = pf.jac(u)
    t = tn.trace(J)
    return tn.norm_sq(tn.devsym(J)) * mat.mu + t * t * (mat.kappa / 2.0)


def old_curvature_quadratic(k, mat):
    return (old_quadratic(k, en.constants(mat, CURVATURE_PARTS), CURVATURE_PARTS)
            * mat.curvature_scale)


def old_indeterminate_density(u, mat):
    return old_curvature_quadratic(en.strain_curl(u), mat)


def old_five_form_densities(u, mat):
    s = mat.curvature_scale
    a1, a2 = mat.alpha1, mat.alpha2
    gc = pf.jac(pf.curl(u))
    J = pf.jac(u)
    kt = en.curvature_from_jacobian(J, "axl")
    kh = en.curvature_from_jacobian(J, "curl")
    return {
        "gradcurl-sym": (
            tn.norm_sq(tn.sym(gc)) * (a1 / 4.0) + tn.norm_sq(tn.skw(gc)) * (a2 / 4.0)) * s,
        "rotation-gradient": (tn.norm_sq(tn.sym(kt)) * a1 + tn.norm_sq(tn.skw(kt)) * a2) * s,
        "gradcurl-dev": (
            tn.norm_sq(tn.devsym(gc)) * (a1 / 4.0) + tn.norm_sq(tn.skw(gc)) * (a2 / 4.0)) * s,
        "strain-curl": (tn.norm_sq(tn.sym(kh)) * a1 + tn.norm_sq(tn.skw(kh)) * a2) * s,
        "strain-curl-dev": (tn.norm_sq(tn.devsym(kh)) * a1 + tn.norm_sq(tn.skw(kh)) * a2) * s,
    }


def old_modified_conformal_density(u, mat):
    kh = en.strain_curl(u)
    return tn.norm_sq(tn.devsym(kh)) * (mat.alpha1 * mat.curvature_scale)


def old_hadjesfandiari_dargush_density(u, mat):
    kh = en.strain_curl(u)
    return tn.norm_sq(tn.skw(kh)) * (mat.alpha2 * mat.curvature_scale)


def old_grioli_density(u, mat, alpha1=None, eta_prime=0.0):
    if alpha1 is None:
        alpha1 = mat.alpha1
    gc = pf.jac(pf.curl(u))
    sq = tn.trace(tn.matmul(gc, gc))
    dens = tn.norm_sq(gc) * (alpha1 / 4.0) + sq * (eta_prime / 4.0)
    return dens * mat.curvature_scale


def old_mindlin_i_density(u, mat, a=(1.0, 1.0, 1.0, 1.0, 1.0)):
    a1, a2, a3, a4, a5 = a
    eta = en._eta(u)
    v_kii = np.trace(eta, axis1=1, axis2=2)
    v_iik = np.trace(eta, axis1=0, axis2=1)
    t1 = tn.inner_vec(v_kii, v_kii)
    t2 = tn.ten3_inner(eta, eta)
    t3 = tn.ten3_inner(eta, eta.transpose(2, 0, 1))
    t4 = tn.inner_vec(v_iik, v_iik)
    t5 = tn.inner_vec(v_iik, v_kii)
    dens = t1 * a1 + t2 * a2 + t3 * a3 + t4 * a4 + t5 * a5
    return dens * mat.curvature_scale


def old_mindlin_ii_density(u, mat, a=(1.0, 1.0, 1.0, 1.0, 1.0)):
    a1, a2, a3, a4, a5 = a
    et = en._eta_tilde(u)
    v_iik = np.trace(et, axis1=0, axis2=1)
    v_kjj = np.trace(et, axis1=1, axis2=2)
    t1 = tn.inner_vec(v_iik, v_kjj)
    t2 = tn.inner_vec(v_kjj, v_kjj)
    t3 = tn.inner_vec(v_iik, v_iik)
    t4 = tn.ten3_inner(et, et)
    t5 = tn.ten3_inner(et, et.transpose(2, 1, 0))
    dens = t1 * a1 + t2 * a2 + t3 * a3 + t4 * a4 + t5 * a5
    return dens * mat.curvature_scale


def old_mindlin_iii_density(u, mat, a=(1.0, 1.0, 1.0, 1.0, 1.0)):
    a1, a2, a3, a4, a5 = a
    T = pf.second_gradient(u)
    kc = en._mindlin_iii_curvature_of(T)
    es = en._eta_sym_of(T)
    v_iij = np.trace(es, axis1=0, axis2=1)
    v_kll = np.trace(es, axis1=1, axis2=2)
    t1 = tn.norm_sq(kc)
    t2 = tn.inner(kc, tn.transpose(kc))
    t3 = tn.inner_vec(v_iij, v_iij)
    t4 = tn.ten3_inner(es, es)
    t5 = tn.inner(kc, tn.eps_dot(v_kll))
    dens = t1 * a1 + t2 * a2 + t3 * a3 + t4 * a4 + t5 * a5
    return dens * mat.curvature_scale


def old_lam_density(u, mat, a=(1.0, 1.0, 1.0)):
    a0, a1, a2 = a
    gd = pf.grad(pf.div(u))
    es = en._eta_sym(u)
    dv = np.multiply.outer(np.trace(es, axis1=0, axis2=1), np.eye(3))
    hat = es - (dv.transpose(1, 2, 0) + dv + dv.transpose(2, 0, 1)) / 5.0
    sgc = tn.sym(pf.jac(pf.curl(u)))
    dens = tn.norm_sq_vec(gd) * a0 + tn.ten3_inner(hat, hat) * a1 + tn.norm_sq(sgc) * a2
    return dens * mat.curvature_scale


def old_aifantis_lazar_density(u, mat, a=(1.0, 1.0)):
    a0, a1 = a
    gd = pf.grad(pf.div(u))
    E = pf.strain_gradient(u)
    dens = tn.norm_sq_vec(gd) * a0 + tn.ten3_inner(E, E) * a1
    return dens * mat.curvature_scale


def old_sharma_kleinert_density(u, mat, a=(1.0, 1.0)):
    a0, a1 = a
    gd = pf.grad(pf.div(u))
    gc = pf.jac(pf.curl(u))
    dens = tn.norm_sq_vec(gd) * a0 + tn.norm_sq(gc) * a1
    return dens * mat.curvature_scale


OLD_REGISTRY = {
    "linear-elastic": old_linear_elastic_density,
    "indeterminate": old_indeterminate_density,
    "modified-conformal": old_modified_conformal_density,
    "hadjesfandiari-dargush": old_hadjesfandiari_dargush_density,
    "grioli": old_grioli_density,
    "mindlin-i": old_mindlin_i_density,
    "mindlin-ii": old_mindlin_ii_density,
    "mindlin-iii": old_mindlin_iii_density,
    "lam": old_lam_density,
    "aifantis-lazar": old_aifantis_lazar_density,
    "sharma-kleinert": old_sharma_kleinert_density,
}

# zoo name -> (density, earlier body, non-default weights)
ZOO = {
    "mindlin-i": (en.mindlin_i_density, old_mindlin_i_density, (0.3, -1.7, 2.5, 0.9, -0.6)),
    "mindlin-ii": (en.mindlin_ii_density, old_mindlin_ii_density, (1.1, 0.35, -2.2, 0.7, 1.9)),
    "mindlin-iii": (en.mindlin_iii_density, old_mindlin_iii_density,
                    (0.6, 1.3, -0.45, 2.1, -1.05)),
    "lam": (en.lam_density, old_lam_density, (0.7, -1.3, 0.55)),
    "aifantis-lazar": (en.aifantis_lazar_density, old_aifantis_lazar_density, (1.7, -0.35)),
    "sharma-kleinert": (en.sharma_kleinert_density, old_sharma_kleinert_density, (-0.9, 2.3)),
}

# --- inputs ------------------------------------------------------------------------

MATERIALS = [
    Material(),
    Material(alpha2=0.0),
    Material(lam=-0.5),
    Material(ell=1e-150),
    Material(ell=1e150),
    Material(mu=1.3, lam=0.7, alpha1=0.9, alpha2=0.4, ell=0.8),
]
MATERIAL_IDS = ["default", "alpha2-0", "lam-neg", "ell-tiny", "ell-huge", "mixed"]


def random_trig(rng, terms=4, fmax=2):
    coef = {}
    for _ in range(terms):
        key = []
        for _ in range(3):
            kind = int(rng.integers(2))
            key.append((kind, int(rng.integers(1 if kind == SIN else 0, fmax + 1))))
        coef[tuple(key)] = rng.uniform(-1.0, 1.0)
    return TrigPoly(coef)


def inf_field():
    return pf.as_vec([pf.Poly3({(0, 0, 0): 2.0, (1, 1, 0): 0.5}), pf.Poly3({(0, 2, 1): -1.25}),
                      pf.Poly3({(2, 1, 0): float("inf"), (0, 1, 3): -0.5})])


def make_field(name):
    if name == "inf":
        return inf_field()
    if name.startswith("trig"):
        rng = np.random.default_rng(100 + int(name[4:]))
        return pf.as_vec([random_trig(rng) for _ in range(3)])
    degree = int(name[4:])
    return pf.random_vec_field(np.random.default_rng(10 + degree), degree)


FIELDS = ["poly1", "poly2", "poly3", "poly4", "poly5", "trig0", "trig1", "inf"]

# --- bitwise equality ----------------------------------------------------------------


def assert_same_entry(a, b):
    assert type(a) is type(b)
    assert list(a.coef) == list(b.coef)  # the key order
    assert (np.array(list(a.coef.values()), dtype=float).tobytes()
            == np.array(list(b.coef.values()), dtype=float).tobytes())
    if isinstance(a, pf.Poly3):
        assert a.cap == b.cap


def assert_same_field(A, B):
    A, B = np.asarray(A, dtype=object), np.asarray(B, dtype=object)
    assert A.shape == B.shape
    for a, b in zip(A.flat, B.flat):
        assert_same_entry(a, b)


# --- the densities -------------------------------------------------------------------


def test_the_registry_is_restated_in_its_order():
    assert list(OLD_REGISTRY) == list(en.MODEL_REGISTRY)


@pytest.mark.parametrize("mat", MATERIALS, ids=MATERIAL_IDS)
@pytest.mark.parametrize("name", FIELDS)
def test_every_density_matches_its_earlier_body(name, mat):
    u = make_field(name)
    with np.errstate(all="ignore"):
        for model, old in OLD_REGISTRY.items():
            dens, total = en.evaluate_model(model, u, mat)
            assert_same_entry(dens, old(u, mat))
            assert np.float64(total).tobytes() == np.float64(dens.integrate()).tobytes()
        forms, old_forms = en.five_form_densities(u, mat), old_five_form_densities(u, mat)
        assert list(forms) == list(old_forms)
        for key in old_forms:
            assert_same_entry(forms[key], old_forms[key])
        assert_same_entry(en.linear_elastic_density_volumetric(u, mat),
                          old_linear_elastic_density_volumetric(u, mat))


@pytest.mark.parametrize("mat", MATERIALS, ids=MATERIAL_IDS)
@pytest.mark.parametrize("name", ["poly3", "poly5", "trig1", "inf"])
def test_zoo_and_grioli_weights_off_their_defaults(name, mat):
    u = make_field(name)
    with np.errstate(all="ignore"):
        for new, old, a in ZOO.values():
            assert_same_entry(new(u, mat, a=a), old(u, mat, a=a))
            assert_same_entry(new(u, mat, a=np.array(a)), old(u, mat, a=np.array(a)))
        for alpha1, eta_prime in [(0.7, -0.3), (2.0, 1.5), (1e-200, 3.0)]:
            assert_same_entry(en.grioli_density(u, mat, alpha1=alpha1, eta_prime=eta_prime),
                              old_grioli_density(u, mat, alpha1=alpha1, eta_prime=eta_prime))


@pytest.mark.parametrize("mat", MATERIALS, ids=MATERIAL_IDS)
def test_curvature_quadratic_matches_on_any_matrix_field(mat):
    rng = np.random.default_rng(7)
    fields = [pf.random_mat_field(rng, degree) for degree in range(1, 5)]
    fields.append(pf.as_mat([[random_trig(rng) for _ in range(3)] for _ in range(3)]))
    fields.append(en.strain_curl(inf_field()))
    with np.errstate(all="ignore"):
        for k in fields:
            assert_same_entry(en.curvature_quadratic(k, mat), old_curvature_quadratic(k, mat))


# parts tuples the package passes to the two rules, one to three parts long
PARTS = [ELASTIC_PARTS, CURVATURE_PARTS, CURVATURE_PARTS[:1], CURVATURE_PARTS[1:],
         CURVATURE_PARTS + (("alpha3", tn.trace),), (("lam", tn.trace),)]


@pytest.mark.parametrize("parts", PARTS, ids=lambda p: "+".join(key for key, _ in p))
def test_quadratic_and_conjugate_match_their_earlier_bodies(parts):
    rng = np.random.default_rng(len(parts))
    fields = [pf.random_mat_field(rng, degree) for degree in range(1, 4)]
    fields.append(pf.as_mat([[random_trig(rng) for _ in range(3)] for _ in range(3)]))
    fields.append(pf.jac(inf_field()))
    fields.append(rng.uniform(-1.0, 1.0, (3, 3)))  # a float matrix, as the lift passes
    for X in fields:
        for weights in (rng.uniform(-2.0, 2.0, len(parts)).tolist(), [1e-160] * len(parts)):
            with np.errstate(all="ignore"):
                got_q, want_q = en.quadratic(X, weights, parts), old_quadratic(X, weights, parts)
                got_c, want_c = en.conjugate(X, weights, parts), old_conjugate(X, weights, parts)
            if isinstance(X[0, 0], float):
                assert np.float64(got_q).tobytes() == np.float64(want_q).tobytes()
                assert got_c.astype(float).tobytes() == want_c.astype(float).tobytes()
            else:
                assert_same_entry(got_q, want_q)
                assert_same_field(got_c, want_c)


# --- one rule, and its length check --------------------------------------------------


@pytest.mark.parametrize("model", sorted(ZOO))
def test_a_zoo_weight_tuple_of_the_wrong_length_is_refused(model):
    density, _, a = ZOO[model]
    u = make_field("poly2")
    for wrong in (a[:-1], a + (1.0,), ()):
        with pytest.raises(ValueError):
            density(u, Material(), a=wrong)


def test_the_rules_refuse_weights_of_the_wrong_length():
    X = pf.random_mat_field(np.random.default_rng(3), 2)
    for rule in (en.quadratic, en.conjugate):
        with pytest.raises(ValueError):
            rule(X, [1.0], CURVATURE_PARTS)
        with pytest.raises(ValueError):
            rule(X, [1.0, 2.0, 3.0], CURVATURE_PARTS)


def test_every_density_sums_once_through_the_one_rule(monkeypatch):
    u = make_field("poly3")
    calls = []
    real = en._weighted_sum

    def counted(terms, weights):
        calls.append(len(terms))
        return real(terms, weights)

    monkeypatch.setattr(en, "_weighted_sum", counted)
    expected = {"linear-elastic": 2, "indeterminate": 2, "modified-conformal": 1,
                "hadjesfandiari-dargush": 1, "grioli": 2, "mindlin-i": 5, "mindlin-ii": 5,
                "mindlin-iii": 5, "lam": 3, "aifantis-lazar": 2, "sharma-kleinert": 2}
    assert list(expected) == list(en.MODEL_REGISTRY)
    for model, density in en.MODEL_REGISTRY.items():
        calls.clear()
        density(u, Material())
        assert calls == [expected[model]], model
    calls.clear()
    en.five_form_densities(u, Material())
    assert calls == [2] * 5
    calls.clear()
    en.linear_elastic_density_volumetric(u, Material())
    assert calls == [2]


def test_the_five_writings_are_one_table_in_key_order():
    u = make_field("poly2")
    assert [row[0] for row in en._FIVE_FORMS] == list(en.five_form_densities(u, Material()))
    assert {row[1] for row in en._FIVE_FORMS} == {"gradcurl", "axl", "curl"}
