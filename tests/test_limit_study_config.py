"""limit-study rejects malformed ladders and model lists as config errors.

Each case used to end in a traceback, in the contract-failure exit code,
or in a vacuous pass; each must now exit 2 with a reason before any
solve runs.
"""
import json

import pytest

from couplestress import cli


def run_limit_study(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main(["limit-study", "--config", str(cfg)])
    return rc, capsys.readouterr()


def test_decreasing_ladder_is_a_config_error(tmp_path, capsys):
    rc, out = run_limit_study(tmp_path, capsys, {"ladder": [1e6, 1.0]})
    assert rc == 2
    assert "strictly increasing" in out.err


def test_empty_ladder_is_a_config_error(tmp_path, capsys):
    rc, out = run_limit_study(tmp_path, capsys, {"ladder": []})
    assert rc == 2
    assert "non-empty" in out.err


def test_infinite_ladder_rung_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"ladder": [1.0, 1e400]}')  # json reads 1e400 as inf
    assert cli.main(["limit-study", "--config", str(cfg)]) == 2
    assert "finite" in capsys.readouterr().err


def test_integer_rung_beyond_float_range_is_a_config_error(tmp_path, capsys):
    rc, out = run_limit_study(tmp_path, capsys, {"ladder": [1, 10**400]})
    assert rc == 2
    assert "finite" in out.err


def test_empty_model_list_is_a_config_error(tmp_path, capsys):
    rc, out = run_limit_study(tmp_path, capsys, {"models": []})
    assert rc == 2
    assert "non-empty list" in out.err
    assert "PASS" not in out.out


@pytest.mark.parametrize("models", ["cosserat", [1], [["cosserat"]]])
def test_models_must_be_a_list_of_names(tmp_path, capsys, models):
    rc, out = run_limit_study(tmp_path, capsys, {"models": models})
    assert rc == 2
    assert "list of model names" in out.err
