"""Contract values that fold several gaps keep a NaN gap, wherever it sits.

Python's `max` keeps its first argument when a later one is NaN, so a fold
written with it can read finite on a NaN coefficient and pass its check.
"""
import json
import math

import numpy as np
import pytest

from couplestress import cli
from couplestress import conformal as cf
from couplestress import lift as lf
from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import tractions as tr
from couplestress.polyfield import Poly3
from couplestress.trig import COS, TrigPoly

NAN = float("nan")


def _with_nan(p, key):
    return Poly3({**p.coef, key: NAN}, p.cap)


def test_roundtrip_gap_keeps_nan():
    u = pf.random_vec_field(np.random.default_rng(0), 3)
    assert lf.roundtrip_gap(u, "corrected") <= 1e-12
    u[1] = _with_nan(u[1], (1, 1, 0))
    gap = lf.roundtrip_gap(u, "corrected")
    assert math.isnan(gap)
    assert not cli.at_most("corrected-roundtrip", gap, 1e-12)["passed"]


def test_grad_curl_gap_keeps_nan():
    phi, params = cf.random_conformal(np.random.default_rng(2))
    assert cf.relations_report(phi, params)["grad-curl-constant"] <= 1e-12
    # the NaN reaches curl(phi)[2] through d/dx2 only, so only gc[2, 1] of
    # jac(curl(phi)) carries it; the entries before it stay finite
    phi[0] = phi[0] + Poly3({(0, 2, 0): NAN})
    gc = pf.jac(pf.curl(phi))
    finite = [(i, j) for i in range(3) for j in range(3)
              if math.isfinite(gc[i, j].max_abs_coeff())]
    assert (0, 0) in finite and (2, 1) not in finite
    # NaN coefficients in object-array sums can raise numpy's invalid flag
    with np.errstate(invalid="ignore"):
        gap = cf.relations_report(phi, params)["grad-curl-constant"]
    assert math.isnan(gap)


@pytest.mark.parametrize("nan_first", [False, True])
def test_trigpoly_max_abs_coeff_keeps_nan(nan_first):
    const = ((COS, 0), (COS, 0), (COS, 0))
    mode = ((COS, 1), (COS, 1), (COS, 0))
    items = [(mode, NAN), (const, 1.0)] if nan_first else [(const, 1.0), (mode, NAN)]
    assert math.isnan(TrigPoly(dict(items)).max_abs_coeff())


def test_trigpoly_max_abs_coeff_values_unchanged():
    assert TrigPoly().max_abs_coeff() == 0.0
    got = TrigPoly.sine_mode((1, 2, 1), -3.0).max_abs_coeff()
    assert got == 3.0 and type(got) is float


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--format", "json", "--out", str(out)])
    return code, {c["name"]: c for c in json.loads(out.read_text())["checks"]}


def test_traction_compare_frozen_gap_keeps_nan(tmp_path, monkeypatch):
    real = tr.compare_double_forces

    def with_nan(state, face):
        cmp = real(state, face)
        curl = list(cmp["curl"])
        curl[2] = curl[2] + Poly3({(0, 0, 0): NAN})
        return {**cmp, "curl": curl}

    monkeypatch.setattr(tr, "compare_double_forces", with_nan)
    code, checks = _report(tmp_path, ["traction-compare"])
    assert code == 1
    assert not checks["curl-double-force-frozen"]["passed"]
    assert checks["appendix-double-force-frozen"]["passed"]


def test_limit_study_residual_keeps_nan(tmp_path, monkeypatch):
    real = mm.penalty_limit_study

    def with_nan(*args, **kwargs):
        study = real(*args, **kwargs)
        study["rows"][1]["residual"] = NAN
        return study

    monkeypatch.setattr(mm, "penalty_limit_study", with_nan)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": ["cosserat"], "basis_order": 1}))
    code, checks = _report(tmp_path, ["limit-study", "--config", str(cfg)])
    assert code == 1
    assert not checks["cosserat-solve-residual"]["passed"]
    assert checks["cosserat-violation-decreasing"]["passed"]
