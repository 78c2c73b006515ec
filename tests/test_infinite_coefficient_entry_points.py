"""Face works, conformal relations and micromorphic energies of fields with an
infinite coefficient, under warnings as errors.

`conformal.relations_report`, `micromorphic.micromorphic_energy` and
`invariance_gap`, and `tractions.boundary_virtual_work`, `unsplit_face_work`
and `closed_boundary_work` subtract, add or reduce coefficients in numpy steps
that set the invalid flag on inf - inf. Each runs under the library's
`np.errstate(over="ignore", invalid="ignore")`, so in a fresh `-W error`
interpreter each returns a non-finite value instead of raising a
RuntimeWarning; numpy's own setting is left as it was.
"""
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

REPRO = """
import math
import numpy as np
from couplestress import conformal as cf, energies as en, micromorphic as mm
from couplestress import polyfield as pf, stresses as st, tensors as tn, tractions as tr

phi, params = cf.random_conformal(np.random.default_rng(1))
phi[0] = phi[0] + pf.Poly3({(1, 1, 0): float("inf")})
u = pf.random_vec_field(np.random.default_rng(0), 3)
u[1] = u[1] + pf.Poly3({(2, 1, 0): float("inf")})
P = tn.sym(pf.random_mat_field(np.random.default_rng(2), 2))
mp = mm.MicromorphicParams()
state = st.assemble(u, en.Material())
face = tr.ALL_FACES[1]
test = pf.random_vec_field(np.random.default_rng(5), 3)
values = [sum(cf.relations_report(phi, params).values()),  # non-finite where a gap is
          mm.micromorphic_energy(u, P, "microstrain", mp).max_abs_coeff(),
          mm.invariance_gap(u, P, "microstrain", mp, np.random.default_rng(3)),
          tr.boundary_virtual_work(state, face, test)["total"],
          tr.unsplit_face_work(state, face, test),
          tr.closed_boundary_work(state, test)]
for value in values:
    print(math.isfinite(value))
print(np.geterr()["invalid"])
"""


def test_entry_points_are_non_finite_without_a_warning():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    run = subprocess.run([sys.executable, "-W", "error", "-c", REPRO], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["False"] * 6 + ["warn"]
