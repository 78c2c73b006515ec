"""The hyperstress of every relaxation against its curvature energy.

The curvature energy is quadratic in the curvature measure k, so Euler's
identity gives <h, k> = 2 (energy at ell - energy at ell = 0) pointwise.
The measures are restated here from the model list, independently of the
module's table. Tolerance: 1e-13 * max|W|.
"""
from dataclasses import replace

import numpy as np
import pytest

from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import tensors as tn

MEASURES = {
    "cosserat": lambda P: pf.jac(tn.axl(P)),
    "degenerate-cosserat": lambda P: pf.jac(tn.axl(P)),
    "microstrain": pf.mat_curl,
    "micromorphic": lambda P: pf.mat_curl(tn.sym(P)),
    "relaxed": pf.mat_curl,
    "further-relaxed": pf.mat_curl,
    "sym-curl-p": pf.mat_curl,
}


def random_companion(model, rng, degree=3):
    cls = mm.companion_class(model)
    if cls == "skew":
        return pf.random_skw_mat_field(rng, degree)
    if cls == "sym":
        return pf.random_sym_mat_field(rng, degree)
    return pf.random_mat_field(rng, degree)


def test_every_model_has_a_measure():
    assert set(MEASURES) == set(mm.MODEL_IDS)


@pytest.mark.parametrize("model", mm.MODEL_IDS)
def test_hyperstress_is_the_derivative_of_the_curvature_energy(model):
    rng = np.random.default_rng(23)
    u = pf.random_vec_field(rng, 3)
    P = random_companion(model, rng)
    params = mm.MicromorphicParams(mu=1.3, lam=0.8, ell=0.7, penalty=2.0,
                                   alpha1=1.1, alpha2=0.6, alpha3=0.9)
    h = mm.hyperstress(u, P, model, params)
    hk = tn.inner(h, MEASURES[model](P))
    W = mm.micromorphic_energy(u, P, model, params)
    W0 = mm.micromorphic_energy(u, P, model, replace(params, ell=0.0))
    curvature = W - W0
    assert curvature.max_abs_coeff() > 1e-3
    gap = (hk - curvature * 2.0).max_abs_coeff()
    assert gap <= 1e-13 * W.max_abs_coeff()
