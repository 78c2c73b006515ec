"""The strain-gradient zoo against its index-loop writing, bit for bit.

The reference functions below spell every contraction out as explicit
loops over indices, each sum started from a zero polynomial. The package
writes the same contractions as transposes, traces over slot pairs and
tensor inner products. Both must give the same coefficients in the same
key order: a wrong index permutation can agree to 1e-13 and still be wrong,
so no tolerance is allowed here.
"""
import numpy as np
import pytest

from couplestress import energies as en
from couplestress import polyfield as pf
from couplestress import tensors as tn
from couplestress.energies import Material


def _eta(u):
    T = pf.second_gradient(u)
    out = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i, j, k] = T[k, i, j]
    return out


def _eta_tilde(u):
    E = pf.strain_gradient(u)
    out = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i, j, k] = E[j, k, i]
    return out


def _eta_sym(u):
    T = pf.second_gradient(u)
    out = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i, j, k] = (T[k, i, j] + T[i, j, k] + T[j, k, i]) / 3.0
    return out


def _mindlin_iii_curvature(u):
    T = pf.second_gradient(u)
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            acc = pf.Poly3.zero()
            for l in range(3):
                for k in range(3):
                    e = tn.EPS[j, l, k]
                    if e:
                        acc = acc + T[k, l, i] * (0.5 * e)
            out[i, j] = acc
    return out


def mindlin_i(u, mat, a):
    a1, a2, a3, a4, a5 = a
    eta = _eta(u)
    t2 = pf.Poly3.zero()
    t3 = pf.Poly3.zero()
    v_kii = pf.as_vec([sum((eta[k, i, i] for i in range(3)), pf.Poly3.zero()) for k in range(3)])
    v_jji = pf.as_vec([sum((eta[j, j, i] for j in range(3)), pf.Poly3.zero()) for i in range(3)])
    v_iik = v_jji
    t1 = tn.inner_vec(v_kii, v_kii)
    t4 = tn.inner_vec(v_jji, v_jji)
    t5 = tn.inner_vec(v_iik, v_kii)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t2 = t2 + eta[i, j, k] * eta[i, j, k]
                t3 = t3 + eta[i, j, k] * eta[j, k, i]
    dens = t1 * a1 + t2 * a2 + t3 * a3 + t4 * a4 + t5 * a5
    return dens * mat.curvature_scale


def mindlin_ii(u, mat, a):
    a1, a2, a3, a4, a5 = a
    et = _eta_tilde(u)
    v_iik = pf.as_vec([sum((et[i, i, k] for i in range(3)), pf.Poly3.zero()) for k in range(3)])
    v_kjj = pf.as_vec([sum((et[k, j, j] for j in range(3)), pf.Poly3.zero()) for k in range(3)])
    t1 = tn.inner_vec(v_iik, v_kjj)
    t2 = tn.inner_vec(v_kjj, v_kjj)
    t3 = tn.inner_vec(v_iik, v_iik)
    t4 = pf.Poly3.zero()
    t5 = pf.Poly3.zero()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t4 = t4 + et[i, j, k] * et[i, j, k]
                t5 = t5 + et[i, j, k] * et[k, j, i]
    dens = t1 * a1 + t2 * a2 + t3 * a3 + t4 * a4 + t5 * a5
    return dens * mat.curvature_scale


def mindlin_iii(u, mat, a):
    a1, a2, a3, a4, a5 = a
    kc = _mindlin_iii_curvature(u)
    es = _eta_sym(u)
    t1 = tn.norm_sq(kc)
    t2 = tn.inner(kc, tn.transpose(kc))
    v = pf.as_vec([sum((es[i, i, j] for i in range(3)), pf.Poly3.zero()) for j in range(3)])
    t3 = tn.inner_vec(v, v)
    t4 = pf.Poly3.zero()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t4 = t4 + es[i, j, k] * es[i, j, k]
    v_kll = pf.as_vec([sum((es[k, l, l] for l in range(3)), pf.Poly3.zero()) for k in range(3)])
    t5 = pf.Poly3.zero()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                e = tn.EPS[i, j, k]
                if e:
                    t5 = t5 + kc[i, j] * v_kll[k] * e
    dens = t1 * a1 + t2 * a2 + t3 * a3 + t4 * a4 + t5 * a5
    return dens * mat.curvature_scale


def lam(u, mat, a):
    a0, a1, a2 = a
    gd = pf.grad(pf.div(u))
    es = _eta_sym(u)
    v = pf.as_vec([sum((es[m, m, k] for m in range(3)), pf.Poly3.zero()) for k in range(3)])
    hat = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                corr = pf.Poly3.zero()
                if i == j:
                    corr = corr + v[k]
                if j == k:
                    corr = corr + v[i]
                if k == i:
                    corr = corr + v[j]
                hat[i, j, k] = es[i, j, k] - corr / 5.0
    t1 = pf.Poly3.zero()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t1 = t1 + hat[i, j, k] * hat[i, j, k]
    sgc = tn.sym(pf.jac(pf.curl(u)))
    dens = tn.norm_sq_vec(gd) * a0 + t1 * a1 + tn.norm_sq(sgc) * a2
    return dens * mat.curvature_scale


def aifantis_lazar(u, mat, a):
    a0, a1 = a
    gd = pf.grad(pf.div(u))
    E = pf.strain_gradient(u)
    t1 = pf.Poly3.zero()
    for i in range(3):
        for k in range(3):
            for l in range(3):
                t1 = t1 + E[i, k, l] * E[i, k, l]
    dens = tn.norm_sq_vec(gd) * a0 + t1 * a1
    return dens * mat.curvature_scale


def _bits(p):
    """Keys and coefficient bits of a polynomial, in its key order."""
    return [(key, val.hex()) for key, val in p.coef.items()]


def _bits_all(F):
    return [_bits(p) for p in np.ravel(F)]


MATERIALS = (Material(), Material(1.3, 0.4, 1.7, 0.6, 0.8))
DENSITIES = (
    (en.mindlin_i_density, mindlin_i, 5),
    (en.mindlin_ii_density, mindlin_ii, 5),
    (en.mindlin_iii_density, mindlin_iii, 5),
    (en.lam_density, lam, 3),
    (en.aifantis_lazar_density, aifantis_lazar, 2),
)


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_zoo_tensors_match_loops_bitwise(degree):
    u = pf.random_vec_field(np.random.default_rng(100 + degree), degree)
    for mine, ref in ((en._eta, _eta), (en._eta_tilde, _eta_tilde),
                      (en._eta_sym, _eta_sym),
                      (en._mindlin_iii_curvature, _mindlin_iii_curvature)):
        assert _bits_all(mine(u)) == _bits_all(ref(u)), mine.__name__


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_zoo_densities_match_loops_bitwise(degree):
    rng = np.random.default_rng(200 + degree)
    u = pf.random_vec_field(rng, degree)
    for mat in MATERIALS:
        for mine, ref, n in DENSITIES:
            a = tuple(rng.uniform(-1.0, 2.0, n))
            got, want = mine(u, mat, a=a), ref(u, mat, a)
            assert got.coef, mine.__name__
            assert _bits(got) == _bits(want), mine.__name__
