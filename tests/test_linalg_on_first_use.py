"""Dense linear algebra is imported on first use, not at start-up.

Only `solve` and `limit-study` (and the solver and companion functions they
call) need `scipy.linalg`; the other five subcommands work on exact
polynomials. So importing the package or its CLI, asking any subcommand for
`--help` and running the five exact-calculus subcommands at their defaults
leave scipy unloaded, each checked in a fresh interpreter.

The first import of `scipy.linalg` now happens inside a call, some of them
under `np.errstate`. From the shell with `-W error`, `solve` and
`limit-study` behave as before: the defaults exit 0 and a stiff material
fails `stiffness-spd` with exit 1, with no warning and no traceback. The
coercivity estimate taken as the first scipy user of a process is bit for
bit the one taken after scipy was already imported.
"""
import json
import os
import subprocess
import sys

import pytest

from couplestress import cli

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
EXACT_COMMANDS = ("verify-identities", "energy-table", "conformal-report",
                  "traction-compare", "lift-check")
LINALG_COMMANDS = ("solve", "limit-study")

# The child runs its code, then prints the loaded scipy modules as its last line.
LOADED = ("\nprint(json.dumps(sorted(m for m in sys.modules"
          " if m == 'scipy' or m.startswith('scipy.'))))")
RUN_MAIN = """
import json, sys
from couplestress import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
"""


def fresh(code, *argv, warning_flag="default"):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    return subprocess.run(
        [sys.executable, "-W", warning_flag, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def scipy_modules(code, *argv):
    proc = fresh(code + LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_command_lists_match_the_cli():
    assert sorted(EXACT_COMMANDS + LINALG_COMMANDS) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("module", ["couplestress", "couplestress.cli"])
def test_importing_the_package_leaves_scipy_unloaded(module):
    assert scipy_modules(f"import json, sys\nimport {module}") == []


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_leaves_scipy_unloaded(command):
    assert scipy_modules(RUN_MAIN, command, "--help") == []


@pytest.mark.parametrize("command", EXACT_COMMANDS)
def test_exact_calculus_commands_leave_scipy_unloaded(command):
    assert scipy_modules(RUN_MAIN, command) == []


@pytest.mark.parametrize("command", LINALG_COMMANDS)
def test_solve_and_limit_study_load_linalg(command):
    assert "scipy.linalg" in scipy_modules(RUN_MAIN, command)


def run_cli_warnings_as_errors(*argv):
    proc = fresh("import sys\nfrom couplestress import cli\nsys.exit(cli.main(sys.argv[1:]))",
                 *argv, warning_flag="error")
    for stream in (proc.stdout, proc.stderr):
        assert "Warning" not in stream
        assert "Traceback" not in stream
    return proc


@pytest.mark.parametrize("command", LINALG_COMMANDS)
def test_first_use_at_the_defaults_passes_under_warnings_as_errors(command):
    proc = run_cli_warnings_as_errors(command)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_first_use_in_a_stiff_solve_fails_only_its_contract(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"material": {"lam": 1e12}, "basis_order": 4}))
    proc = run_cli_warnings_as_errors("solve", "--config", str(cfg))
    assert proc.returncode == 1
    assert proc.stderr == "contract violation: stiffness-spd\n"


COERCIVITY = """
import json, sys
{warm}
from couplestress.energies import Material
from couplestress.solver import coercivity_estimate
assert ("scipy.linalg" in sys.modules) == {warmed}
rows = coercivity_estimate(Material())
print(json.dumps([[r["order"], r["dim"], r["lambda_min"].hex()] for r in rows]))
"""


def coercivity_rows(warm):
    code = COERCIVITY.format(warm="import scipy.linalg" if warm else "", warmed=warm)
    proc = fresh(code, warning_flag="error")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_coercivity_estimate_as_first_scipy_user_is_bit_identical():
    first = coercivity_rows(warm=False)
    assert [row[:2] for row in first] == [[1, 3], [2, 24], [3, 81]]
    assert first == coercivity_rows(warm=True)
