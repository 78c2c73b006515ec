"""Config values of the wrong type, range or finiteness are config errors.

Each case used to end in a traceback, in the contract-failure exit code,
in invalid JSON or in a misleading reason; each must now exit 2 with a
reason on stderr before any contract runs.
"""
import json

import pytest

from couplestress import cli


def run_config(tmp_path, capsys, command, config, extra=()):
    """Exit code and captured output of one command; config is JSON text."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    rc = cli.main([command, "--config", str(cfg), *extra])
    return rc, capsys.readouterr()


def assert_config_error(rc, out, reason):
    assert rc == 2
    assert "config error" in out.err and reason in out.err
    assert "PASS" not in out.out


@pytest.mark.parametrize(
    "command,extra",
    [
        ("energy-table", ()),
        ("verify-identities", ("--trials", "1")),
        ("lift-check", ("--trials", "1")),
    ],
)
@pytest.mark.parametrize("degree", ["x", -2, 1, 7, 4.0, True])
def test_degree_must_be_an_integer_in_range(tmp_path, capsys, command, extra, degree):
    rc, out = run_config(tmp_path, capsys, command, {"degree": degree}, extra)
    assert_config_error(rc, out, "degree must be an integer in [2, 6]")


@pytest.mark.parametrize("scale", ["big", -1, 0, 10.5, True])
def test_scale_must_be_a_finite_number_in_range(tmp_path, capsys, scale):
    rc, out = run_config(
        tmp_path, capsys, "conformal-report", {"scale": scale}, ("--trials", "1")
    )
    assert_config_error(rc, out, "scale must be a finite number in (0, 10]")


def test_infinite_scale_is_a_config_error(tmp_path, capsys):
    rc, out = run_config(
        tmp_path, capsys, "conformal-report", '{"scale": 1e400}', ("--trials", "1")
    )
    assert_config_error(rc, out, "scale must be a finite number in (0, 10]")


@pytest.mark.parametrize("flag", ["yes", 1, None])
def test_export_operator_must_be_a_boolean(tmp_path, capsys, flag):
    rc, out = run_config(
        tmp_path, capsys, "lift-check", {"export_operator": flag}, ("--trials", "1")
    )
    assert_config_error(rc, out, "export_operator must be true or false")


@pytest.mark.parametrize("coeff", ['"nan"', '"-inf"', "NaN", "1e400"])
def test_non_finite_field_coefficient_is_a_config_error(tmp_path, capsys, coeff):
    config = '{"field": {"components": [[[[1, 0, 0], %s]], [], []]}}' % coeff
    rc, out = run_config(tmp_path, capsys, "energy-table", config)
    assert_config_error(rc, out, "finite")


def test_non_finite_material_is_a_config_error(tmp_path, capsys):
    rc, out = run_config(tmp_path, capsys, "energy-table", {"material": {"mu": "nan"}})
    assert_config_error(rc, out, "material values must be finite: mu")


@pytest.mark.parametrize(
    "parse,key",
    [(cli.material_from, "material"), (cli.penalty_params_from, "penalty_params")],
)
@pytest.mark.parametrize(
    "value", ["nan", "inf", "-Infinity", pytest.param(10**400, id="int-beyond-float")]
)
def test_material_and_penalty_params_refuse_non_finite_values(parse, key, value):
    with pytest.raises(cli.ConfigError, match=f"{key} values must be finite"):
        parse({key: {"mu": 1.0, "ell": value}})


@pytest.mark.parametrize("models", [[1], "indeterminate", [], None])
def test_energy_table_models_must_be_a_list_of_names(tmp_path, capsys, models):
    rc, out = run_config(tmp_path, capsys, "energy-table", {"models": models})
    assert_config_error(rc, out, "models must be a non-empty list of model names")


def test_limit_study_names_unknown_models_like_energy_table(tmp_path, capsys):
    rc, out = run_config(tmp_path, capsys, "limit-study", {"models": ["no-such-model"]})
    assert_config_error(rc, out, "unknown models: no-such-model")
