"""Gaps of a field with an infinite coefficient, under warnings as errors.

`energies.equivalence_report` and `lift.roundtrip_gap` subtract object
arrays of fields, where Python's inf - inf sets numpy's invalid flag. Both
run under the `np.errstate` that the solver and micromorphic builders carry,
so in a fresh `-W error` interpreter each returns a non-finite gap, which
fails its check, instead of raising a RuntimeWarning.
"""
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

REPRO = """
import math
import numpy as np
from couplestress import energies as en, lift as lf, polyfield as pf

u = pf.random_vec_field(np.random.default_rng(0), 3)
u[1] = u[1] + pf.Poly3({(2, 1, 0): float("inf")})
for gap in (en.equivalence_report(u, en.Material())["max_difference"], lf.roundtrip_gap(u),
            lf.roundtrip_gap(u, "printed")):
    print(math.isfinite(gap), gap <= 1e-12)
print(np.geterr()["invalid"])
"""


def test_infinite_coefficient_gaps_are_non_finite_without_a_warning():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    run = subprocess.run([sys.executable, "-W", "error", "-c", REPRO], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["False False"] * 3 + ["warn"]
