"""Each call derives a field once, and no derived field outlives the call.

`energies._FieldState` holds the derived fields of one field, and the
call-scoped registry (`energies._derived_fields`) gives every function of
one call the same state of a registered field. The identity suite opens a
scope per block, the conformal reports and the CLI's per-field loops one
per field. Every result here is compared bitwise (key order, coefficient
bytes, cap) with the same functions run where every call derives afresh:
in an empty `contextvars.Context`, or with a registry that registers
nothing. Two consecutive calls each form their own Jacobian, and the
registry is empty after a return and after a raise.
"""
import contextlib
import contextvars

import numpy as np
import pytest

from couplestress import cli
from couplestress import conformal as cf
from couplestress import energies as en
from couplestress import identities as idn
from couplestress import polyfield as pf
from couplestress import tensors as tn

MAT = en.Material(1.3, 0.7, 0.9, 0.4, 0.8)


def field(seed, degree=3):
    return pf.random_vec_field(np.random.default_rng(seed), degree)


def fresh(fn, *args):
    """fn(*args) in an empty context, where no field is registered."""
    return contextvars.Context().run(fn, *args)


@contextlib.contextmanager
def unregistered(*fields):
    """A stand-in for `energies._derived_fields` that registers nothing."""
    yield en._Scope({})


def counting(monkeypatch, name):
    """pf.<name> wrapped to log the argument of each call."""
    calls = []
    real = getattr(pf, name)

    def run(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(pf, name, run)
    return calls


def same_poly(p, q):
    assert type(p) is type(q)
    assert list(p.coef) == list(q.coef) and p.cap == q.cap
    assert [np.float64(v).tobytes() for v in p.coef.values()] == \
           [np.float64(v).tobytes() for v in q.coef.values()]


def same_entries(F, G):
    """Two results of one check: the same shape and, entry by entry, the same bytes."""
    assert np.shape(F) == np.shape(G)
    for a, b in zip(np.ravel(F), np.ravel(G)):
        if isinstance(a, pf.DenseBatch):
            assert a.coef.shape == b.coef.shape and a.coef.tobytes() == b.coef.tobytes()
        else:
            same_poly(a, b)


def same_value(a, b):
    assert np.float64(a).tobytes() == np.float64(b).tobytes()


# --- the identity suite --------------------------------------------------------------


def compared(checks, seen):
    """The checks wrapped to compare each result with a fresh one of the same input."""
    def wrap(fn):
        def run(F):
            got = fn(F)
            same_entries(got, fresh(fn, F))
            seen.append(1)
            return got
        return run
    return [(name, arg, wrap(fn)) for name, arg, fn in checks]


@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("trials", [1, idn.BLOCK, idn.BLOCK + 1])
def test_every_check_in_a_block_equals_a_fresh_derivation(monkeypatch, trials, degree):
    seen = []
    monkeypatch.setattr(idn, "_IDENTITY_CHECKS", compared(idn._IDENTITY_CHECKS, seen))
    monkeypatch.setattr(idn, "_WITNESS_CHECKS", compared(idn._WITNESS_CHECKS, seen))
    idn.run_suite(seed=degree, trials=trials, degree=degree)
    assert len(seen) == 16 * -(-trials // idn.BLOCK)


@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("trials", [1, idn.BLOCK, idn.BLOCK + 1])
def test_the_suite_reports_equal_the_suite_without_a_registry(monkeypatch, trials, degree):
    got = idn.run_suite(seed=3, trials=trials, degree=degree)
    monkeypatch.setattr(en, "_derived_fields", unregistered)
    ref = idn.run_suite(seed=3, trials=trials, degree=degree)
    assert [r.as_dict() for r in got] == [r.as_dict() for r in ref]
    for g, r in zip(got, ref):
        same_value(g.magnitude, r.magnitude)


def test_each_check_sees_only_its_own_input_registered(monkeypatch):
    """An input's state lives from the first check of its list that reads it to the last."""
    log = []

    def watching(checks):
        def wrap(name, fn):
            def run(F):
                log.append((name, [F2 is F for F2, _ in en._FIELD_STATES.get().values()]))
                return fn(F)
            return run
        return [(name, arg, wrap(name, fn)) for name, arg, fn in checks]

    monkeypatch.setattr(idn, "_IDENTITY_CHECKS", watching(idn._IDENTITY_CHECKS))
    monkeypatch.setattr(idn, "_WITNESS_CHECKS", watching(idn._WITNESS_CHECKS))
    idn.run_suite(seed=0, trials=2, degree=2)
    assert len(log) == 16 and all(seen == [True] for _, seen in log)


def restated_checks():
    """The sixteen checks as first written, each derivation formed on its own."""
    def inc1(p):
        return tn.transpose(pf.mat_curl(tn.sym(p))) - pf.jac(tn.axl(tn.skw(p)))

    def inc2(e):
        return pf.mat_curl(tn.transpose(pf.mat_curl(e)))

    def nye(A):
        G = pf.jac(tn.axl(A))
        return pf.mat_curl(A) + tn.transpose(G) - tn.identity_like(G) * tn.trace(G)

    def nye_inverse(A):
        C = pf.mat_curl(A)
        return pf.jac(tn.axl(A)) + tn.transpose(C) - tn.identity_like(C) * (tn.trace(C) * 0.5)

    return {
        "master": lambda u: (pf.jac(tn.axl(tn.skw(pf.jac(u))))
                             - tn.transpose(pf.mat_curl(tn.sym(pf.jac(u))))),
        "rotation-vector": lambda u: tn.axl(tn.skw(pf.jac(u))) * 2.0 - pf.curl(u),
        "sym-grad-curl": lambda u: (tn.sym(pf.jac(pf.curl(u)))
                                    - tn.sym(pf.mat_curl(tn.sym(pf.jac(u)))) * 2.0),
        "skw-grad-curl": lambda u: (tn.skw(pf.jac(pf.curl(u)))
                                    + tn.skw(pf.mat_curl(tn.sym(pf.jac(u)))) * 2.0),
        "curl-transpose": lambda u: (tn.transpose(pf.jac(pf.curl(u)))
                                     - pf.mat_curl(tn.transpose(pf.jac(u)))),
        "gradient-inc": lambda u: inc1(pf.jac(u)),
        "strain-compatibility": lambda u: inc2(tn.sym(pf.jac(u))),
        "strain-curl-trace": lambda p: tn.trace(pf.mat_curl(tn.sym(p))),
        "curl-trace": lambda p: (tn.trace(pf.mat_curl(p))
                                 - pf.div(tn.axl(tn.skw(p))) * 2.0),
        "axl-skw-curl": lambda P: (tn.axl(tn.skw(pf.mat_curl(P)))
                                   - (pf.mat_div(tn.transpose(P)) - pf.grad(tn.trace(P))) * 0.5),
        "curl-of-inc": lambda p: pf.mat_curl(inc1(p)) - inc2(tn.sym(p)),
        "div-anti": lambda v: pf.mat_div(tn.anti(v)) + pf.curl(v),
        "nye": nye,
        "nye-inverse": nye_inverse,
        "inc-witness": inc1,
        "curl-witness": pf.mat_curl,
    }


def test_every_check_in_a_block_equals_its_first_writing(monkeypatch):
    ref = restated_checks()
    seen = []

    def against(checks):
        def wrap(name, fn):
            def run(F):
                got = fn(F)
                same_entries(got, fresh(ref[name], F))
                seen.append(name)
                return got
            return run
        return [(name, arg, wrap(name, fn)) for name, arg, fn in checks]

    monkeypatch.setattr(idn, "_IDENTITY_CHECKS", against(idn._IDENTITY_CHECKS))
    monkeypatch.setattr(idn, "_WITNESS_CHECKS", against(idn._WITNESS_CHECKS))
    for degree in (1, 3, 4):
        idn.run_suite(seed=degree, trials=3, degree=degree)
    assert seen == list(ref) * 3


def test_a_block_takes_each_jacobian_and_row_curl_at_most_once(monkeypatch):
    # curl u is a one-step form, formed on each read (rotation-vector, grad curl u)
    for name in ("jac", "mat_curl"):
        calls = counting(monkeypatch, name)
        idn.run_suite(seed=0, trials=3, degree=3)
        assert calls and len({id(c) for c in calls}) == len(calls), name
    jacs = counting(monkeypatch, "jac")
    monkeypatch.setattr(en, "_derived_fields", unregistered)
    idn.run_suite(seed=0, trials=3, degree=3)
    assert len({id(c) for c in jacs}) < len(jacs)  # without states, J of u is formed again


def test_each_check_outside_a_scope_is_a_plain_function_of_its_input():
    u, p = field(4), pf.random_mat_field(np.random.default_rng(5), 3)
    for name, arg, fn in idn._IDENTITY_CHECKS + idn._WITNESS_CHECKS:
        F = p if arg in ("p", "A") else u
        if arg == "A":
            F = tn.skw(p)
        same_entries(fn(F), fresh(fn, F))


# --- the densities and the conformal reports ------------------------------------------


def test_every_density_in_a_scope_equals_a_cold_call():
    u = field(6, 4)
    cold = {name: density(u, MAT) for name, density in en.MODEL_REGISTRY.items()}
    cold_forms = en.five_form_densities(u, MAT)
    with en._derived_fields(u):
        for name, density in en.MODEL_REGISTRY.items():
            same_poly(density(u, MAT), cold[name])
        forms = en.five_form_densities(u, MAT)
        same_poly(en.linear_elastic_density_volumetric(u, MAT),
                  en.linear_elastic_density_volumetric(pf.as_vec(list(u)), MAT))
    assert list(forms) == list(cold_forms)
    for name in forms:
        same_poly(forms[name], cold_forms[name])


def restated_relations(phi, params):
    """`conformal.relations_report` with every field derived on its own."""
    W, w, p = params.W, params.w, params.p
    J = pf.jac(phi)
    X = [pf.Poly3.variable(ax) for ax in range(3)]
    wdotx_p = X[0] * w[0] + X[1] * w[1] + X[2] * w[2] + p
    expected = np.empty((3, 3), dtype=object)
    Wx = [X[0] * W[i, 0] + X[1] * W[i, 1] + X[2] * W[i, 2] for i in range(3)]
    spin = tn.anti(pf.as_vec(Wx))
    for i in range(3):
        for j in range(3):
            e = spin[i, j] + float(params.A[i, j])
            expected[i, j] = e + wdotx_p if i == j else e
    gc = pf.jac(pf.curl(phi))
    kh = pf.mat_curl(tn.sym(pf.jac(phi)))
    gd = pf.grad(pf.div(phi))
    return {
        "grad-closed-form": pf.max_abs_coeff_mat(np.array(
            [[J[i, j] - expected[i, j] for j in range(3)] for i in range(3)], dtype=object)),
        "div-closed-form": (pf.div(phi) - wdotx_p * 3.0).max_abs_coeff(),
        "devsym-grad-zero": pf.max_abs_coeff_mat(tn.devsym(J)),
        "grad-curl-constant": float(np.max(
            [(gc[i, j] - 2.0 * W[i, j]).max_abs_coeff() for i in range(3) for j in range(3)])),
        "sym-grad-curl-zero": pf.max_abs_coeff_mat(tn.sym(gc)),
        "skw-curvature-density-constant": (
            tn.norm_sq(tn.skw(kh)) - float(np.sum(W * W))).max_abs_coeff(),
        "dilatation-gradient-density": (
            tn.norm_sq_vec(gd) - 9.0 * float(w @ w)).max_abs_coeff(),
    }


@pytest.mark.parametrize("seed", range(5))
def test_the_conformal_reports_equal_cold_derivations(seed):
    phi, params = cf.random_conformal(np.random.default_rng(seed), scale=0.7)
    got = cf.relations_report(phi, params)
    ref = restated_relations(phi, params)
    assert list(got) == list(ref)
    for key in ref:
        same_value(got[key], ref[key])
    with en._derived_fields(phi):  # the state of an outer scope serves the report too
        again = cf.relations_report(phi, params)
    assert again == got
    rows = cf.invariance_report(phi, params, MAT)
    assert [r["model"] for r in rows] == sorted(en.MODEL_REGISTRY)
    for row in rows:
        dens, total = en.evaluate_model(row["model"], phi, MAT)
        assert row["classification"] == cf.classify_density(dens)
        assert row["density_degree"] == dens.degree()
        same_value(row["box_energy"], total)
    gap = cf.elastic_density_identity_gap(phi, MAT)
    J = pf.jac(phi)
    t = tn.trace(J)
    same_value(gap, (en.linear_elastic_density(phi, MAT)
                     - t * t * (MAT.kappa / 2.0)).max_abs_coeff())


def test_a_scope_shares_one_jacobian_among_the_invariance_rows(monkeypatch):
    phi, params = cf.random_conformal(np.random.default_rng(1))
    calls = counting(monkeypatch, "jac")
    for name in en.MODEL_REGISTRY:
        en.evaluate_model(name, phi, MAT)
    cold = sum(c is phi for c in calls)
    calls.clear()
    cf.invariance_report(phi, params, MAT)
    one = sum(c is phi for c in calls)
    assert 1 <= one < cold


def test_no_state_is_shared_between_its_readers_arrays():
    u = field(7, 3)
    with en._derived_fields(u):
        s = en._state(u)
        kept = {name: getattr(s, name) for name in
                ("jacobian", "k_curl", "grad_curl", "grad_div", "second_gradient",
                 "strain_gradient", "curl_J")}
        before = {name: [(id(e), dict(e.coef)) for e in np.ravel(F)] for name, F in kept.items()}
        for density in en.MODEL_REGISTRY.values():
            density(u, MAT)
        en.five_form_densities(u, MAT)
        assert all(getattr(s, name) is F for name, F in kept.items())
    for name, F in kept.items():
        assert [(id(e), dict(e.coef)) for e in np.ravel(F)] == before[name], name


# --- the CLI per-field loops ------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["energy-table", "--seed", "2"],
    ["energy-table", "--seed", "5"],
    ["conformal-report", "--seed", "1", "--trials", "6"],
])
def test_the_cli_payloads_equal_the_payloads_without_a_registry(monkeypatch, capsys, argv):
    rc = cli.main(argv)
    got = capsys.readouterr().out
    monkeypatch.setattr(en, "_derived_fields", unregistered)
    assert cli.main(argv) == rc
    assert capsys.readouterr().out == got


# --- no state past a call -----------------------------------------------------------------


def test_two_calls_each_form_their_own_jacobian(monkeypatch):
    u = field(8)
    phi, params = cf.random_conformal(np.random.default_rng(8))
    calls = counting(monkeypatch, "jac")
    for run in (lambda: en.evaluate_model("linear-elastic", u, MAT),
                lambda: en.five_form_densities(u, MAT),
                lambda: cf.relations_report(phi, params),
                lambda: cf.invariance_report(phi, params, MAT)):
        calls.clear()
        run()
        once = sum(c is u or c is phi for c in calls)
        calls.clear()
        run()
        run()
        assert once >= 1 and sum(c is u or c is phi for c in calls) == 2 * once


def test_the_registry_is_empty_after_a_return():
    u = field(9)
    phi, params = cf.random_conformal(np.random.default_rng(9))
    idn.run_suite(seed=0, trials=2, degree=2)
    cf.relations_report(phi, params)
    cf.invariance_report(phi, params, MAT)
    cf.elastic_density_identity_gap(phi, MAT)
    en.evaluate_model("indeterminate", u, MAT)
    assert en._FIELD_STATES.get() is None


def test_the_registry_is_empty_after_a_raise(monkeypatch):
    seen = []

    def failing(F):
        seen.append(id(F) in en._FIELD_STATES.get())
        raise RuntimeError("check failed")

    monkeypatch.setattr(idn, "_IDENTITY_CHECKS", [("master", "u", failing)])
    with pytest.raises(RuntimeError, match="check failed"):
        idn.run_suite(seed=0, trials=2, degree=2)
    assert seen == [True] and en._FIELD_STATES.get() is None

    def refused(name, u, mat):
        assert en._FIELD_STATES.get()
        raise RuntimeError("density failed")

    monkeypatch.setattr(cf, "evaluate_model", refused)
    phi, params = cf.random_conformal(np.random.default_rng(0))
    with pytest.raises(RuntimeError, match="density failed"):
        cf.invariance_report(phi, params, MAT)
    assert en._FIELD_STATES.get() is None


def test_an_inner_scope_keeps_the_outer_states():
    u, v = field(10), field(11)
    with en._derived_fields(u) as outer:
        s = en._state(u)
        with en._derived_fields(u, v) as inner:
            assert en._state(u) is s and en._state(v) is not en._state(u)
            inner.drop(u)
            assert en._state(u) is not s  # dropped from the inner scope only
        assert en._state(u) is s and en._state(v) is not en._state(v)
        outer.drop(u)
        assert en._state(u) is not en._state(u)
    assert en._FIELD_STATES.get() is None
