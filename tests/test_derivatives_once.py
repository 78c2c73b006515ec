"""Each repeated derivative of one call is formed once, with the same bits.

`energies.mindlin_iii_density` takes one second gradient for its curvature
and its symmetric part, `energies.five_form_densities` one Jacobian for
both curvature routes, and `gridoracle.check_operator` one strain for the
exact and the finite-difference side of `mat_curl` and `mat_div`. The
results are compared with the two-derivative forms, restated here; nothing
is cached across calls.
"""
import numpy as np
import pytest

from couplestress import energies as en
from couplestress import gridoracle as go
from couplestress import polyfield as pf
from couplestress import tensors as tn

MAT = en.Material(1.0, 0.7, 1.3, 0.4, 0.9)


def field(seed, degree=4):
    return pf.random_vec_field(np.random.default_rng(seed), degree)


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
    assert list(p.coef) == list(q.coef) and p.cap == q.cap
    assert [np.float64(v).tobytes() for v in p.coef.values()] == \
           [np.float64(v).tobytes() for v in q.coef.values()]


def test_mindlin_iii_forms_one_second_gradient(monkeypatch):
    u = field(1)
    ref = en.mindlin_iii_density(u, MAT, a=(1.0, 0.5, 2.0, 0.25, 3.0))
    calls = counting(monkeypatch, "second_gradient")
    got = en.mindlin_iii_density(u, MAT, a=(1.0, 0.5, 2.0, 0.25, 3.0))
    assert [c is u for c in calls] == [True]
    same_poly(got, ref)
    # the helpers still take u, one second gradient each
    calls.clear()
    en._eta_sym(u), en._mindlin_iii_curvature(u)
    assert len(calls) == 2
    en.mindlin_iii_density(u, MAT)
    assert len(calls) == 3  # no cache across calls


def restated_five_forms(u, mat):
    """The five writings with each curvature route on its own Jacobian."""
    s, a1, a2 = mat.curvature_scale, mat.alpha1, mat.alpha2
    gc = pf.jac(pf.curl(u))
    kt, kh = en.rotation_gradient(u), en.strain_curl(u)
    return {
        "gradcurl-sym": (tn.norm_sq(tn.sym(gc)) * (a1 / 4.0)
                         + tn.norm_sq(tn.skw(gc)) * (a2 / 4.0)) * s,
        "rotation-gradient": (tn.norm_sq(tn.sym(kt)) * a1 + tn.norm_sq(tn.skw(kt)) * a2) * s,
        "gradcurl-dev": (tn.norm_sq(tn.devsym(gc)) * (a1 / 4.0)
                         + tn.norm_sq(tn.skw(gc)) * (a2 / 4.0)) * s,
        "strain-curl": (tn.norm_sq(tn.sym(kh)) * a1 + tn.norm_sq(tn.skw(kh)) * a2) * s,
        "strain-curl-dev": (tn.norm_sq(tn.devsym(kh)) * a1
                            + tn.norm_sq(tn.skw(kh)) * a2) * s,
    }


@pytest.mark.parametrize("seed", [0, 1])
def test_five_forms_take_one_jacobian_of_u(monkeypatch, seed):
    u = field(seed)
    ref = restated_five_forms(u, MAT)
    calls = counting(monkeypatch, "jac")
    got = en.five_form_densities(u, MAT)
    assert sum(c is u for c in calls) == 1
    assert list(got) == list(ref)
    for name in ref:
        same_poly(got[name], ref[name])


@pytest.mark.parametrize("name", ["mat_curl", "mat_div"])
def test_the_oracle_forms_one_strain_for_both_sides(monkeypatch, name):
    u = field(2, 3)
    exact_op = getattr(pf, name)
    fd_op = {"mat_curl": go.fd_mat_curl, "mat_div": go.fd_mat_div}[name]
    exact = pf.eval_fields(exact_op(tn.sym(pf.jac(u))), go.BASE_LATTICE)
    approx = fd_op(tn.sym(pf.jac(u)), go.BASE_LATTICE, list(go.DEFAULT_H))
    ref = [float(np.max(np.abs(a - exact))) for a in approx]
    calls = counting(monkeypatch, "jac")
    rep = go.check_operator(name, u)
    assert [c is u for c in calls] == [True]
    assert rep.errors == ref and rep.passed
