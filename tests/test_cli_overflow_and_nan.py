"""Finite constants whose curvature scale overflows, and NaN in worst-case folds.

A material or penalty_params whose mu * ell^2 is not a finite float is a
config error (exit 2) on every command that reads one. A worst-case fold
over trials keeps a NaN value, so its check fails with "nan" instead of
passing on the finite values around it.
"""
import json

import pytest

from couplestress import cli
from couplestress import energies as en
from couplestress import identities as idn
from couplestress import lift as lf
from couplestress import polyfield as pf


def run_config(tmp_path, capsys, command, config, extra=()):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main([command, "--config", str(cfg), *extra])
    return rc, capsys.readouterr()


@pytest.mark.parametrize("command,key,extra", [
    ("energy-table", "material", ()),
    ("conformal-report", "material", ("--trials", "1")),
    ("solve", "material", ()),
    ("limit-study", "penalty_params", ()),
])
@pytest.mark.parametrize("values", [{"ell": 1e200}, {"mu": 1e200, "ell": 1e100}])
def test_overflowing_curvature_scale_is_a_config_error(tmp_path, capsys, command, key,
                                                       extra, values):
    rc, out = run_config(tmp_path, capsys, command, {key: values}, extra)
    assert rc == 2
    assert f"config error: {key} curvature scale mu*ell^2 must be finite" in out.err
    assert "PASS" not in out.out and "Traceback" not in out.err


def test_nan_hd_gap_fails_conformal_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, out = run_config(tmp_path, capsys, "conformal-report",
                         {"material": {"mu": 1e10, "alpha2": 1e300}},
                         ("--trials", "2", "--out", str(out_path)))
    assert rc == 1
    assert "FAIL hd-density-constant (value=nan)" in out.out
    report = json.loads(out_path.read_text())
    (row,) = [c for c in report["checks"] if c["name"] == "hd-density-constant"]
    assert row["value"] == "nan" and row["passed"] is False


def first_then(first, then):
    """A stand-in check that returns first on its first call and then afterwards."""
    values = iter([first])
    return lambda *args: next(values, then)


def test_lift_check_keeps_a_nan_gap(monkeypatch, capsys):
    monkeypatch.setattr(lf, "verify_energy_equality", first_then(float("nan"), 0.0))
    rc = cli.main(["lift-check", "--trials", "2"])
    out = capsys.readouterr()
    assert rc == 1
    assert "FAIL lift-energy-equality (value=nan)" in out.out


def test_identity_suite_keeps_nan_magnitudes(monkeypatch):
    nan = pf.Poly3.const(float("nan"))
    monkeypatch.setattr(idn, "_IDENTITY_CHECKS",
                        [("master", "u", first_then(nan, pf.Poly3.zero()))])
    monkeypatch.setattr(idn, "_WITNESS_CHECKS",
                        [("inc-witness", "p", first_then(nan, pf.Poly3.const(1.0)))])
    reports = idn.run_suite(seed=0, trials=2, degree=2)
    assert [r.name for r in reports] == ["master", "inc-witness"]
    assert all(r.magnitude != r.magnitude and not r.passed for r in reports)


def test_five_form_equivalence_keeps_a_nan_difference(monkeypatch):
    forms = {"a": pf.Poly3.const(float("nan")), "b": pf.Poly3.zero(), "c": pf.Poly3.zero()}
    monkeypatch.setattr(en, "five_form_densities", lambda u, mat: forms)
    report = en.equivalence_report(None, en.Material())
    assert report["max_difference"] != report["max_difference"]
