"""Balance residuals, the rotation gradient and edge forces of a field with an
infinite coefficient, under warnings as errors.

`stresses.equilibrium_residual`, `body_force_for` and `divergence_sum`,
`energies.rotation_gradient`, and `tractions.edge_force` and
`erroneous_mindlin_tiersten` add or subtract coefficients in numpy steps that
set the invalid flag on inf - inf. Each runs under the library's
`np.errstate(over="ignore", invalid="ignore")`, so in a fresh `-W error`
interpreter each returns instead of raising a RuntimeWarning, and numpy's own
setting is left as it was. Where an inf - inf reaches the result it is
non-finite; the field has degree 3, so Div(tau_curl + tau_axl) differentiates
the constant stress terms that hold the NaN away and is finite.
"""
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

REPRO = """
import math
import numpy as np
from couplestress import energies as en, polyfield as pf, stresses as st, tractions as tr

u = pf.random_vec_field(np.random.default_rng(0), 3)
u[1] = u[1] + pf.Poly3({(2, 1, 0): float("inf")})
mat = en.Material()
face = tr.ALL_FACES[1]
fields = [st.equilibrium_residual(st.assemble(u, mat)),
          st.body_force_for(u, mat),
          st.divergence_sum(st.assemble(u, mat)),
          en.rotation_gradient(u),
          tr.edge_force(st.assemble(u, mat), face, face.tangential_axes[0], 1.0),
          tr.erroneous_mindlin_tiersten(st.assemble(u, mat), face).traction]
for F in fields:
    print(math.isfinite(pf.max_abs_coeff(F)))
print(np.geterr()["invalid"], np.geterr()["over"])
"""


def test_entry_points_return_without_a_warning():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    run = subprocess.run([sys.executable, "-W", "error", "-c", REPRO], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["False"] * 2 + ["True"] + ["False"] * 3 + ["warn warn"]
