"""Command-line options and config keys that commands actually read."""
import json
import re
from pathlib import Path

import pytest

from couplestress import cli


def exit_code(argv):
    """Exit status of the CLI, whether it returns or argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["lift-check", "--trials", "0"],
        ["conformal-report", "--trials", "-3"],
        ["verify-identities", "--trials", "0"],
        ["lift-check", "--trials", "many"],
    ],
)
def test_trials_below_one_or_not_an_integer_exits_2(argv, capsys):
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert "--trials" in captured.err
    assert "Traceback" not in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("command", ["energy-table", "traction-compare", "solve", "limit-study"])
def test_trials_is_refused_where_nothing_reads_it(command, capsys):
    assert exit_code([command, "--trials", "3"]) == 2
    assert "--trials" in capsys.readouterr().err


def test_explicit_trials_are_kept_and_defaults_are_per_command(tmp_path):
    out = tmp_path / "r.json"
    assert exit_code(["conformal-report", "--trials", "100", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["trials"] == 100
    assert exit_code(["conformal-report", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["trials"] == 25


def readme_config():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
    return json.loads(block)


def test_readme_config_is_accepted_and_dead_keys_are_refused(tmp_path, capsys):
    config = readme_config()
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(config))
    loaded = cli.load_config(str(path))
    cli.material_from(loaded)
    cli.penalty_params_from(loaded)
    for key, value in (("formulation", "curl"), ("direction", 1)):
        path.write_text(json.dumps({key: value}))
        assert exit_code(["solve", "--config", str(path)]) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err
