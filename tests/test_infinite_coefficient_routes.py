"""Stress, traction and norm gaps of a field with an infinite coefficient, under
warnings as errors.

`stresses.structure_report`, `tractions.compare_double_forces`,
`face_work_comparison`, `volume_virtual_work` and `solver.functional_norm`
(and so `recovery_error`) subtract fields or cubes in which Python's or
numpy's inf - inf sets the invalid flag. Each runs under the library's
`np.errstate(over="ignore", invalid="ignore")`, as `energies.equivalence_report`
does, so in a fresh `-W error` interpreter each returns a non-finite value
(structure_report a NaN gap among its entries), which fails any check on
it, instead of raising a RuntimeWarning; numpy's own setting is left as it
was.
"""
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

REPRO = """
import math
import numpy as np
from couplestress import energies as en, polyfield as pf, solver as sv
from couplestress import stresses as st, tractions as tr

u = pf.random_vec_field(np.random.default_rng(0), 3)
u[1] = u[1] + pf.Poly3({(2, 1, 0): float("inf")})
state = st.assemble(u, en.Material())
face = tr.ALL_FACES[1]
test = tr.face_bump(face, 0)
basis = sv.bubble_basis(1)
values = [sum(st.structure_report(state).values()),  # NaN where a gap is NaN
          tr.compare_double_forces(state, face)["curl-vs-energetic"],
          tr.face_work_comparison(state, face, test)["total_gap"],
          tr.volume_virtual_work(state, test),
          sv.functional_norm(u),
          sv.recovery_error(basis, np.zeros(len(basis)), u)]
for value in values:
    print(math.isfinite(value), value <= 1e-12)
print(np.geterr()["invalid"])
"""


def test_infinite_coefficient_routes_are_non_finite_without_a_warning():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    run = subprocess.run([sys.executable, "-W", "error", "-c", REPRO], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["False False"] * 6 + ["warn"]


FIELD_REPRO = """
import math
import numpy as np
from couplestress import energies as en, micromorphic as mm, polyfield as pf
from couplestress import stresses as st, tractions as tr

u = pf.random_vec_field(np.random.default_rng(0), 3)
u[1] = u[1] + pf.Poly3({(2, 1, 0): float("inf")})
mat = en.Material()
state = st.assemble(u, mat)
face = tr.ALL_FACES[1]
P = pf.random_skw_mat_field(np.random.default_rng(1), 3)
results = [list(en.five_form_densities(u, mat).values()),
           *[en.evaluate_model(name, u, mat)[0] for name in ("lam", "mindlin-iii")],
           *[[ts.traction, ts.double_force] for ts in (tr.traction_curl_form(state, face),
                                                        tr.traction_axl_form(state, face))],
           mm.force_stress(u, P, "cosserat", mm.MicromorphicParams())]
for fields in results:
    print(all(math.isfinite(pf.max_abs_coeff(F)) for F in np.ravel(np.array(fields, object))))
print(np.geterr()["invalid"])
"""


def test_field_entry_points_give_non_finite_fields_without_a_warning():
    """`energies.five_form_densities`, `evaluate_model` on the zoo densities,
    `tractions.traction_curl_form` and `traction_axl_form` and
    `micromorphic.force_stress` subtract and multiply coefficients in numpy
    steps that set the invalid flag on inf - inf or inf * 0; under the
    library's errstate policy each returns its fields, non-finite, instead of
    raising a RuntimeWarning in a `-W error` interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    run = subprocess.run([sys.executable, "-W", "error", "-c", FIELD_REPRO],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["False"] * 6 + ["warn"]
