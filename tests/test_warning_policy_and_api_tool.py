"""One numeric-warning policy for every CLI command, and public names bound by unpacking.

`cli.main` runs each of the seven commands under one `np.errstate` that
silences numpy's overflow and invalid flags, and restores the caller's
state afterwards. `tools/public_api.py` lists a public name whether it is
bound alone or unpacked from a tuple or a list.
"""
import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from couplestress import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "public_api.py"


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_command_runs_under_one_warning_policy(monkeypatch, capsys, command):
    seen = []

    def record(args, opts, rng):
        seen.append(np.geterr())
        return {"table": {"columns": [], "rows": []}}, []

    monkeypatch.setitem(cli.COMMANDS, command, record)
    before = np.geterr()
    assert cli.main([command]) == 0
    capsys.readouterr()
    assert seen[0]["over"] == "ignore" and seen[0]["invalid"] == "ignore"
    assert seen[0]["divide"] == before["divide"]
    assert np.geterr() == before


def test_no_command_sets_its_own_warning_policy():
    for name, fn in cli.COMMANDS.items():
        assert not hasattr(fn, "__wrapped__"), name


def load_tool():
    spec = importlib.util.spec_from_file_location("public_api_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unpacked_targets_are_public_names(tmp_path):
    tool = load_tool()
    source = tmp_path / "mod.py"
    source.write_text("A, (B, _c) = 1, (2, 3)\n[D, *E] = [4, 5]\nF = G = 6\nH: int = 7\n"
                      "x.attr = 8\n_i = 9\n")
    assert tool._top_level_names(source) == ["A", "B", "D", "E", "F", "G", "H"]


def test_target_names_walks_nested_unpacking():
    tool = load_tool()
    target = ast.parse("a, [b, (c, *d)] = v").body[0].targets[0]
    assert [n.id for n in tool._target_names(target)] == ["a", "b", "c", "d"]


def test_the_trig_kinds_are_listed():
    lines = load_tool().api_lines()
    assert "couplestress.trig.COS = 0" in lines
    assert "couplestress.trig.SIN = 1" in lines
    assert "couplestress.gridoracle.fd_mat_curl(F, pts, h)" in lines
