"""Field algebra on a NaN coefficient returns NaN under warnings-as-errors, cold or warm.

Each exact-zero filter of `Poly3` and `TrigPoly` drops a coefficient by its
truthiness. A float compare in its place (`v != 0.0`) is specialized by the
interpreter once hot into an ordered compare, which sets the floating-point
invalid flag on a NaN operand; numpy's object-dtype loops read that flag after
the loop and warn. So a sum passed while the filter was cold and raised once it
was warm. Each case here warms the filters first.
"""
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from couplestress import conformal as cf
from couplestress import energies as en
from couplestress import polyfield as pf
from couplestress import stresses as st
from couplestress.polyfield import Poly3
from couplestress.trig import COS, TrigPoly

NAN = float("nan")
MAT = en.Material(1.0, 0.7, 1.3, 0.4, 0.9)
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# A - B in a fresh interpreter, before and after 100 subtractions that cancel a term
REPRO = """
import numpy as np
from couplestress.polyfield import Poly3

def one(p):
    a = np.empty(1, dtype=object)
    a[0] = p
    return a

A = one(Poly3({(1, 0, 0): 1.0, (0, 0, 0): float("nan")}))
B = one(Poly3({(1, 0, 0): 1.0}))
print((A - B)[0].coef)
for _ in range(100):
    B - B
print((A - B)[0].coef)
"""


def one(p):
    """A one-entry object array holding p."""
    a = np.empty(1, dtype=object)
    a[0] = p
    return a


def warm_filters(rounds=100):
    """Run every exact-zero filter hot: subtractions that cancel a term."""
    p = one(Poly3({(1, 0, 0): 1.0, (0, 1, 0): 2.0}))
    t = one(TrigPoly({((COS, 1), (COS, 0), (COS, 0)): 1.0}))
    for _ in range(rounds):
        p - p
        t - t
        Poly3({(1, 0, 0): 0.0, (0, 0, 1): 1.0})
        TrigPoly({((COS, 1), (COS, 0), (COS, 0)): 0.0})


@pytest.fixture(autouse=True)
def errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_a_fresh_process_keeps_nan_cold_and_warm():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    run = subprocess.run([sys.executable, "-W", "error", "-c", REPRO], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["{(0, 0, 0): nan}"] * 2


def test_a_poly3_difference_keeps_nan_cold_and_warm():
    A = one(Poly3({(1, 0, 0): 1.0, (0, 0, 0): NAN}))
    B = one(Poly3({(1, 0, 0): 1.0}))
    cold = (A - B)[0]
    warm_filters()
    warm = (A - B)[0]
    for got in (cold, warm):
        assert list(got.coef) == [(0, 0, 0)] and math.isnan(got.coef[(0, 0, 0)])


def test_a_trigpoly_sum_keeps_nan_when_warm():
    mode = ((COS, 1), (COS, 0), (COS, 0))
    const = ((COS, 0), (COS, 0), (COS, 0))
    A = one(TrigPoly({mode: 1.0, const: NAN}))
    B = one(TrigPoly({mode: -1.0}))
    warm_filters()
    got = (A + B)[0]
    assert list(got.coef) == [(0, 0, 0)] and math.isnan(got.max_abs_coeff())


def test_zeros_still_drop_and_nan_stays():
    warm_filters()
    assert Poly3({(1, 0, 0): -0.0, (0, 0, 0): NAN}).coef.keys() == {(0, 0, 0)}
    p = Poly3({(1, 0, 0): 1.0})
    assert (p - p).coef == {} and (p * -0.0).coef == {}
    t = TrigPoly({((COS, 1), (COS, 0), (COS, 0)): 2.0})
    assert (t - t).coef == {} and (t * 0.0).coef == {}


def nan_field(seed=0, degree=3):
    u = pf.random_vec_field(np.random.default_rng(seed), degree)
    u[1] = u[1] + Poly3({(2, 1, 0): NAN})
    return u


def test_structure_report_returns_nan():
    warm_filters()
    report = st.structure_report(st.assemble(nan_field(), MAT))
    assert any(math.isnan(v) for v in report.values())


def test_equivalence_report_returns_nan():
    warm_filters()
    assert math.isnan(en.equivalence_report(nan_field(1), MAT)["max_difference"])


def test_relations_report_returns_nan_without_errstate():
    phi, params = cf.random_conformal(np.random.default_rng(2))
    phi[0] = phi[0] + Poly3({(0, 2, 0): NAN})
    warm_filters()
    report = cf.relations_report(phi, params)
    assert math.isnan(report["grad-curl-constant"])
    assert math.isnan(report["grad-closed-form"])
