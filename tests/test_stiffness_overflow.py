"""Finite constants under which the stiffness or the load overflows are config errors.

Each config passes validation (every constant finite, mu * ell^2 finite),
yet the stiffness matrix or the manufactured load overflows the float
range. The command exits 2 with a one-line reason and no traceback, both
in-process under the suite's warnings-as-errors and from the shell.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from couplestress import cli
from couplestress import solver as sv
from couplestress.energies import Material

CASES = [
    ("solve", {"material": {"lam": 1e308}}),
    ("solve", {"material": {"mu": 1e308}}),
    ("solve", {"material": {"alpha1": 1e308}}),
    ("limit-study", {"penalty_params": {"alpha1": 1e308}}),
]
IDS = ["solve-lam", "solve-mu", "solve-alpha1", "limit-study-alpha1"]
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def write_config(tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return str(cfg)


def assert_config_error(rc, out, err):
    assert rc == 2
    assert "Traceback" not in err and "PASS" not in out
    (line,) = err.strip().splitlines()
    assert line.startswith("config error: ") and "overflows the float range" in line


@pytest.mark.parametrize("command,config", CASES, ids=IDS)
def test_overflow_exits_2_in_process(tmp_path, capsys, command, config):
    rc = cli.main([command, "--config", write_config(tmp_path, config)])
    out = capsys.readouterr()
    assert_config_error(rc, out.out, out.err)


@pytest.mark.parametrize("command,config", CASES, ids=IDS)
def test_overflow_exits_2_from_the_shell(tmp_path, command, config):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "couplestress.cli", command, "--config",
         write_config(tmp_path, config)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert_config_error(proc.returncode, proc.stdout, proc.stderr)


def test_library_refuses_an_overflowing_stiffness_and_load():
    basis = sv.bubble_basis(1)
    with pytest.raises(OverflowError, match="stiffness"):
        sv.assemble(basis, Material(1e308, 1.0, 1.0, 0.0, 1.0))
    mat = Material(1.0, 1e308, 1.0, 0.0, 1.0)
    assert np.isfinite(sv.assemble(basis, mat).K).all()
    u_star = sv.displacement(basis, np.ones(len(basis)))
    with pytest.raises(OverflowError, match="load"):
        sv.manufactured_load(basis, u_star, mat)
