"""Each relaxation tends to the model its coupling column names.

An "image" row (cosserat, microstrain, micromorphic) ties the companion to
the constraint image of grad u, so its ladder closes on the constrained
couple stress energy. A "strain" row (relaxed, further-relaxed) ties only
sym P to sym grad u, which P = grad u satisfies with no curvature: over the
companion span, which holds grad u of every basis field, its energy is the
linear elastic (ell = 0) energy at every rung, up to roundoff through K's
penalty-sized entries, and stays away from the couple stress energy.
"""
from dataclasses import replace

import numpy as np
import pytest

from couplestress import cli
from couplestress import micromorphic as mm
from couplestress import solver as sv

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def setting():
    params, basis, f = mm.MicromorphicParams(), sv.bubble_basis(2), cli._generic_load()
    elastic = replace(params, ell=0.0).constrained_material()
    energy = sv.solve(sv.assemble(basis, elastic), sv.load_vector(basis, f)).energy
    return params, basis, f, energy


@pytest.mark.parametrize("model", ["relaxed", "further-relaxed"])
def test_strain_rows_give_the_linear_elastic_energy_at_every_rung(model, setting):
    params, basis, f, elastic = setting
    study = mm.penalty_limit_study(model, params, basis, f)
    assert [r["penalty"] for r in study["rows"]] == [1.0, 1e2, 1e4, 1e6]
    for row in study["rows"]:
        gap = abs(row["energy"] - elastic) / abs(elastic)
        assert gap <= 1e3 * max(1.0, row["penalty"]) * EPS, (row["penalty"], gap)
    # the couple stress reference is not their limit
    assert study["rows"][-1]["energy_gap"] > 1e-2


@pytest.mark.parametrize("model", ["cosserat", "microstrain", "micromorphic"])
def test_image_rows_close_on_the_couple_stress_energy(model, setting):
    params, basis, f, _ = setting
    study = mm.penalty_limit_study(model, params, basis, f)
    assert 0.0 <= study["rows"][-1]["energy_gap"] <= 1e-6
