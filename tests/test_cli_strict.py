"""Config keys a command does not read, and non-finite check values.

A known key that a command ignores exits 2 with a reason instead of being
dropped unchecked. A check whose value is not finite fails, and the JSON
report stays valid JSON, with such values written as strings.
"""
import json
import math

import pytest

from couplestress import cli
from couplestress import solver as sv


def run_config(tmp_path, capsys, command, config, extra=()):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main([command, "--config", str(cfg), *extra])
    return rc, capsys.readouterr()


@pytest.mark.parametrize(
    "command,config,extra",
    [
        ("verify-identities", {"scale": 1.0}, ("--trials", "1")),
        ("energy-table", {"basis_order": 2}, ()),
        ("conformal-report", {"degree": 3}, ("--trials", "1")),
        ("traction-compare", {"material": {"mu": 1.0}}, ()),
        ("solve", {"degree": "x", "scale": "big", "export_operator": "yes",
                   "basis_order": 1}, ()),
        ("limit-study", {"material": {"mu": 1.0}}, ()),
        ("lift-check", {"models": ["indeterminate"]}, ("--trials", "1")),
    ],
)
def test_a_key_the_command_does_not_read_exits_2(tmp_path, capsys, command, config, extra):
    rc, out = run_config(tmp_path, capsys, command, config, extra)
    assert rc == 2
    for key in sorted(set(config) - cli._READS[command]):
        assert f"config key {key} is not read by {command}" in out.err
    assert "Traceback" not in out.err
    assert "PASS" not in out.out


@pytest.mark.parametrize(
    "command,config,extra",
    [
        ("verify-identities", {"degree": 2}, ("--trials", "1")),
        ("conformal-report", {"material": {"mu": 1.0}, "scale": 1.0}, ("--trials", "1")),
        ("traction-compare", {"face": {"axis": 0, "value": 1.0},
                              "test_field": {"components": [[], [[[1, 0, 0], 1.0]], []]}}, ()),
        ("lift-check", {"degree": 2, "export_operator": False}, ("--trials", "1")),
    ],
)
def test_every_key_a_command_reads_is_accepted(tmp_path, capsys, command, config, extra):
    assert set(config) == cli._READS[command]
    rc, out = run_config(tmp_path, capsys, command, config, extra)
    assert rc == 0, out.err


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -math.inf, [1.0, float("nan")]]
)
def test_check_fails_on_a_non_finite_value(value):
    assert cli.check("forced", True, value)["passed"] is False
    assert cli.check("finite", True, [1.0, 2.0])["passed"] is True


def strict_json(text):
    def refuse(token):
        raise AssertionError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "patch,name,written",
    [
        ("recovery_error", "manufactured-recovery", "nan"),
        ("solve", "stiffness-spd", "inf"),
    ],
)
def test_forced_non_finite_check_value_exits_1_with_valid_json(
    tmp_path, capsys, monkeypatch, patch, name, written
):
    real = getattr(sv, patch)
    if patch == "recovery_error":
        monkeypatch.setattr(sv, patch, lambda *a: float("nan"))
    else:
        def solve_with_infinite_eigenvalue(*a):
            rep = real(*a)
            rep.min_eigenvalue = math.inf  # inf > 0 holds; only finiteness fails it
            return rep
        monkeypatch.setattr(sv, patch, solve_with_infinite_eigenvalue)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis_order": 1}))
    out = tmp_path / "r.json"
    rc = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert f"contract violation: {name}" in capsys.readouterr().err
    report = strict_json(out.read_text())
    row = next(c for c in report["checks"] if c["name"] == name)
    assert row["passed"] is False and row["value"] == written
