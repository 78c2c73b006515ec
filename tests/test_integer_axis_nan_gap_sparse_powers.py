"""Three refusals and one bound on work.

- `tractions.Face` takes only an integer axis: a float or bool axis that
  compares equal to 0, 1 or 2 used to pass, and then failed in `.normal`.
- `micromorphic` refuses a companion whose lacked part has a NaN
  coefficient, since its gap is then NaN, not zero.
- A Poly3 face trace and `Poly3.eval` take powers only of the exponents
  present, so a field with one huge exponent does not build a table of
  every power below it.
"""
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import tractions as tr

SRC = Path(__file__).resolve().parent.parent / "src"


# --- Face axis ----------------------------------------------------------------------


@pytest.mark.parametrize("axis", [1.0, 0.0, 2.0, True, False, np.float64(1.0), np.bool_(True)])
def test_face_refuses_an_axis_that_is_not_an_integer(axis):
    with pytest.raises(ValueError, match="integer axis"):
        tr.Face(axis, 1.0)


@pytest.mark.parametrize("axis", [0, 1, 2, np.int64(2), np.int32(0), np.uint8(1)])
def test_face_takes_integer_axes(axis):
    face = tr.Face(axis, 0.0)
    n = np.zeros(3)
    n[int(axis)] = -1.0
    assert np.array_equal(face.normal, n)
    assert face.tangential_axes == tuple(a for a in range(3) if a != axis)


@pytest.mark.parametrize("axis", [3, -1, 1.5])
def test_face_still_refuses_axes_outside_the_box(axis):
    with pytest.raises(ValueError):
        tr.Face(axis, 1.0)


# --- NaN companion gap -----------------------------------------------------------


def nan_cosserat_state():
    rng = np.random.default_rng(0)
    P = pf.random_skw_mat_field(rng, 2)
    P[0, 1] = P[0, 1] + pf.Poly3({(0, 0, 0): math.nan})
    return pf.random_vec_field(rng, 2), P


@pytest.mark.parametrize("call", [mm.micromorphic_energy, mm.hyperstress],
                         ids=["micromorphic_energy", "hyperstress"])
def test_a_companion_with_a_nan_lacked_part_is_refused(call):
    u, P = nan_cosserat_state()
    # object-array sums that meet a NaN can raise numpy's invalid flag
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="cosserat companion must be skew"):
            call(u, P, "cosserat", mm.MicromorphicParams())


def test_the_nan_state_is_still_taken_where_no_part_is_lacked():
    u, P = nan_cosserat_state()
    with np.errstate(invalid="ignore"):
        dens = mm.micromorphic_energy(u, P, "micromorphic", mm.MicromorphicParams())
    assert math.isnan(dens.max_abs_coeff())


# --- sparse powers ----------------------------------------------------------------


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("value", [0.0, 1.0, 0.5])
def test_a_trace_takes_only_the_powers_present(value):
    p = pf.Poly3({(10**6, 2, 0): 1.5, (3, 0, 1): -2.0}, cap=10**6 + 2)
    peak = peak_bytes(lambda: p.restrict(0, value))
    assert peak < 200_000  # a table of every power below 10^6 takes over 30 MB
    got = p.restrict(0, value)
    want = {(0, 2, 0): 1.5 * value**(10**6)}
    want[(0, 0, 1)] = -2.0 * value**3
    want = {k: v for k, v in want.items() if v != 0.0}
    assert got.coef == want and got.cap == p.cap


def test_eval_takes_only_the_powers_present():
    p = pf.Poly3({(10**5, 0, 0): 1.0, (0, 1, 2): 3.0}, cap=10**5)
    pts = np.array([[1.0, 0.5, 2.0], [0.5, -1.0, 0.25]])
    peak = peak_bytes(lambda: p.eval(pts))
    assert peak < 200_000  # a table of every power below 10^5 on each axis takes over 30 MB
    x, y, z = pts.T
    assert np.array_equal(p.eval(pts), 1.0 * x**(10**5) * y**0 * z**0 + 3.0 * x**0 * y**1 * z**2)


def test_traction_compare_with_a_huge_exponent_runs_in_bounded_memory(tmp_path):
    """The CLI run ends in exit 0 with every check passing in a 3 GB address space."""
    resource = pytest.importorskip("resource")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"test_field": {"components": [[[[1000000000, 0, 0], 1.0]], [], []]}}))
    out = tmp_path / "report.json"
    limit = 3_000_000 * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-m", "couplestress.cli", "traction-compare", "--config", str(config),
         "--out", str(out)],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    report = json.loads(out.read_text())
    assert report["checks"] and all(c["passed"] for c in report["checks"])
