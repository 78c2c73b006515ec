"""Every reader of the relaxation table refuses a model it does not hold.

An unknown name is a ValueError that names it, from each public function
of `micromorphic` that takes a model, before any work on the fields.
"""
import numpy as np
import pytest

from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress.solver import bubble_basis

RNG = np.random.default_rng(0)
U = pf.random_vec_field(RNG, 2)
P = pf.random_mat_field(RNG, 2)
PARAMS = mm.MicromorphicParams()
BASIS = bubble_basis(1)
F = pf.as_vec([pf.Poly3.const(1.0)] * 3)

READERS = {
    "companion_class": lambda m: mm.companion_class(m),
    "invariance_shift_kind": lambda m: mm.invariance_shift_kind(m),
    "constrained_companion": lambda m: mm.constrained_companion(m, U),
    "micromorphic_energy": lambda m: mm.micromorphic_energy(U, P, m, PARAMS),
    "force_stress": lambda m: mm.force_stress(U, P, m, PARAMS),
    "hyperstress": lambda m: mm.hyperstress(U, P, m, PARAMS),
    "invariance_gap": lambda m: mm.invariance_gap(U, P, m, PARAMS, np.random.default_rng(1)),
    "companion_basis": lambda m: mm.companion_basis(m, BASIS),
    "coupled_operator_grams": lambda m: mm.coupled_operator_grams(m, BASIS, [P]),
    "coupled_stiffness": lambda m: mm.coupled_stiffness(m, PARAMS, []),
    "coupled_solve": lambda m: mm.coupled_solve(m, PARAMS, BASIS, F),
    "penalty_limit_study": lambda m: mm.penalty_limit_study(m, PARAMS, BASIS, F),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("model", ["cauchy", "Cosserat", ""])
def test_an_unknown_model_is_refused_by_name(reader, model):
    with pytest.raises(ValueError, match=f"unknown model {model!r}"):
        READERS[reader](model)


def test_every_known_model_is_read():
    for model in mm.MODEL_IDS:
        assert mm.companion_class(model) in ("skew", "sym", "full")
        assert mm.invariance_shift_kind(model) in ("same", "none", "independent")
