"""Two leftovers of the law's weights and the warning policy.

`lift.isotropic_blocks` builds its blocks in float, so integer weights give
the blocks of the equal float weights (4 a1 / 3 was written as 1 for
`isotropic_blocks(1, 0)`), and both are the same-row blocks of the law's
fourth-order tensor to the rounding of its dev sym part.

Every density of `energies.MODEL_REGISTRY`, called directly on a field with
an infinite coefficient, runs under the library's `np.errstate` policy: in a
fresh `-W error` interpreter each returns a non-finite density instead of
raising a RuntimeWarning (`mindlin_iii_density` and `lam_density` raised),
and numpy's own setting is left as it was.
"""
import os
import subprocess
import sys

import numpy as np
import pytest

from couplestress import energies as en
from couplestress import lift as lf

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.mark.parametrize("weights", [(1, 0), (2, 1), (3, 5), (0, 1)])
def test_integer_weights_give_the_float_blocks(weights):
    a1, a2 = weights
    ints = lf.isotropic_blocks(a1, a2)
    floats = lf.isotropic_blocks(float(a1), float(a2))
    for got, want in zip(ints, floats):
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    tensor = lf.blocks_from_tensor(lf.isotropic_fourth_order(a1, a2))
    np.testing.assert_allclose(ints, tensor, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_integer_weights_give_the_float_lift():
    assert lf.sixth_order_isotropic(1, 0).tobytes() == lf.sixth_order_isotropic(1.0, 0.0).tobytes()
    assert lf.isotropic_blocks(1, 0)[0][0, 0] == 4.0 / 3.0


REPRO = """
import math
import numpy as np
from couplestress import energies as en, polyfield as pf

u = pf.random_vec_field(np.random.default_rng(0), 3)
u[1] = u[1] + pf.Poly3({(2, 1, 0): float("inf")})
mat = en.Material()
for name, density in en.MODEL_REGISTRY.items():
    print(name, math.isfinite(density(u, mat).max_abs_coeff()))
print(np.geterr()["invalid"], np.geterr()["over"])
"""


def test_every_registry_density_called_directly_is_non_finite_without_a_warning():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    run = subprocess.run([sys.executable, "-W", "error", "-c", REPRO], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    want = [f"{name} False" for name in en.MODEL_REGISTRY]
    assert run.stdout.splitlines() == want + ["warn warn"]
