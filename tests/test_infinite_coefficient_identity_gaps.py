"""The identity gap functions, called directly on fields with an infinite
coefficient, under warnings as errors.

`identities.run_suite` draws finite inputs, but each gap is also a public
function. Twelve of the fourteen subtract or add derived fields in numpy steps
that set the invalid flag on inf - inf: every gap except `compatible_inc_gap`
and `strain_curl_trace`, and `incompatibility_first_order`, which is also the
suite's inc-witness. Each runs under the library's
`np.errstate(over="ignore", invalid="ignore")`, so in a fresh `-W error`
interpreter each returns instead of raising a RuntimeWarning, and numpy's own
setting is left as it was. The inputs are those of the suite: u with an
infinite coefficient, v = u, A = anti(u) and p a random matrix field plus
grad u. Where an inf - inf reaches the gap it is non-finite; tr Curl p -
2 div(axl skw p) differentiates the NaN terms away and is finite.
"""
import os
import subprocess
import sys

from couplestress import identities as idn

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

REPRO = """
import math
import numpy as np
from couplestress import identities as idn, polyfield as pf, tensors as tn

u = pf.random_vec_field(np.random.default_rng(0), 3)
u[1] = u[1] + pf.Poly3({(2, 1, 0): float("inf")})
with np.errstate(invalid="ignore"):
    p = pf.random_mat_field(np.random.default_rng(2), 3) + pf.jac(u)
inputs = {"u": u, "v": u, "p": p, "A": tn.anti(u)}
for name, arg, gap in idn._IDENTITY_CHECKS + idn._WITNESS_CHECKS[:1]:
    print(name, math.isfinite(pf.max_abs_coeff(gap(inputs[arg]))))
print(np.geterr()["invalid"], np.geterr()["over"])
"""

FINITE = {"strain-curl-trace", "curl-trace"}


def test_identity_gaps_return_without_a_warning():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    run = subprocess.run([sys.executable, "-W", "error", "-c", REPRO], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    names = [name for name, _, _ in idn._IDENTITY_CHECKS] + ["inc-witness"]
    assert run.stdout.splitlines() == [f"{name} {name in FINITE}" for name in names] \
        + ["warn warn"]
