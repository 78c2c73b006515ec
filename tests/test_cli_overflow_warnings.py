"""Overflow in energy-table and traction-compare neither passes silently nor tracebacks.

A field or material whose box energies overflow the float range is a
config error of energy-table: the overflow lands in table figures that no
check reads, so the command refuses it (exit 2, one line) instead of
writing "inf". In traction-compare the same test field overflows the
closed-boundary work, whose check fails with "nan" (exit 1). Neither
command prints a RuntimeWarning, and both behave the same in-process under
warnings-as-errors and from the shell with and without -W error.
"""
import json
import os
import subprocess
import sys
import warnings

import pytest

from couplestress import cli

HUGE_X = {"components": [[[[1, 0, 0], 1.7e308]], [], []]}
ENERGY_CASES = {
    "huge-linear-field": {"field": HUGE_X},
    "huge-mixed-field": {"field": {"components": [[[[2, 1, 0], 1.7e308]],
                                                  [[[0, 2, 1], 3.0]], []]}},
    "huge-mu": {"material": {"mu": 1e308}},
}
TRACTION_CONFIG = {"test_field": HUGE_X}
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def write_config(tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return str(cfg)


def run_in_process(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_from_shell(argv, warning_flag):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", warning_flag, "-m", "couplestress.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def assert_energy_refused(rc, out, err):
    assert rc == 2
    assert "PASS" not in out and "FAIL" not in out
    (line,) = err.strip().splitlines()
    assert line.startswith("config error: the box energy of the field under Material(")
    assert line.endswith("overflows the float range")


def assert_traction_nan_fails(rc, out, err):
    assert rc == 1
    assert "FAIL closed-boundary-route-independent (value=nan)" in out
    assert err == "contract violation: closed-boundary-route-independent\n"


@pytest.mark.parametrize("case", sorted(ENERGY_CASES))
def test_energy_table_refuses_overflowing_energies_in_process(tmp_path, capsys, case):
    argv = ["energy-table", "--config", write_config(tmp_path, ENERGY_CASES[case])]
    assert_energy_refused(*run_in_process(capsys, argv))


@pytest.mark.parametrize("warning_flag", ["default", "error"])
@pytest.mark.parametrize("case", sorted(ENERGY_CASES))
def test_energy_table_refuses_overflowing_energies_from_the_shell(tmp_path, case,
                                                                   warning_flag):
    argv = ["energy-table", "--config", write_config(tmp_path, ENERGY_CASES[case])]
    assert_energy_refused(*run_from_shell(argv, warning_flag))


def test_traction_compare_fails_an_overflowing_work_with_nan(tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = ["traction-compare", "--config", write_config(tmp_path, TRACTION_CONFIG),
            "--out", str(report)]
    rc, out, err = run_in_process(capsys, argv)
    assert_traction_nan_fails(rc, out, err)
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    closed = checks["closed-boundary-route-independent"]
    assert closed["value"] == "nan" and closed["passed"] is False
    assert all(c["passed"] for name, c in checks.items() if name != closed["name"])


@pytest.mark.parametrize("warning_flag", ["default", "error"])
def test_traction_compare_overflow_from_the_shell(tmp_path, warning_flag):
    argv = ["traction-compare", "--config", write_config(tmp_path, TRACTION_CONFIG)]
    assert_traction_nan_fails(*run_from_shell(argv, warning_flag))


def test_a_finite_field_still_fills_the_table(tmp_path, capsys):
    config = {"field": {"components": [[[[1, 0, 0], 1e150]], [], []]}}
    report = tmp_path / "report.json"
    argv = ["energy-table", "--config", write_config(tmp_path, config), "--out", str(report)]
    rc, out, err = run_in_process(capsys, argv)
    assert rc == 0 and err == ""
    energies = [row[2] for row in json.loads(report.read_text())["table"]["rows"]]
    assert all(isinstance(e, float) for e in energies) and max(energies) > 1e299
