"""Print a SHA-256 digest of each CLI report listed in RUNS, one line per report.

Usage (from the root of a checkout):

    python3 tools/report_digests.py [SEED ...]      # seeds default to 0 3

Each of the seven subcommands runs at its defaults in a fresh process, with
the package from the `src/` directory beside this script, once per seed;
`lift-check` runs once more with the config {"export_operator": true}, and
`energy-table` (at degree 6) and `conformal-report` (at scale 0.5) once more
with the material mu 1.3, lam 0.7, alpha1 0.9, alpha2 0.4, ell 0.8, so every
density is also checked away from the default material, and
`verify-identities` once more with `--trials 300` and the config
{"degree": 5}, so the suite runs three blocks of trials, the last one
partial, and `limit-study` once more with the config {"basis_order": 3}, the
order whose coupled Grams carry the most roundoff. Each RUNS entry is a
label, a subcommand, a config (or None) and extra command-line arguments;
twelve runs a seed. The report goes to a
temporary file (`--out`), and one line `label seed sha256` is printed per
report (a default run's label is its subcommand). Two checkouts produce the same
reports byte for byte exactly when the two outputs are equal, so a
byte-identity criterion is one `diff` of two runs:

    python3 tools/report_digests.py 0 3 > after.txt
    (cd ../parent && python3 tools/report_digests.py 0 3) > before.txt
    diff before.txt after.txt

A run that writes no report (exit 2 or 3) prints `missing` and its exit
code instead of the digest, and the script then exits 1.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = ("verify-identities", "energy-table", "conformal-report", "traction-compare",
            "solve", "limit-study", "lift-check")
MATERIAL = {"mu": 1.3, "lam": 0.7, "alpha1": 0.9, "alpha2": 0.4, "ell": 0.8}
# (label, subcommand, config or None, extra arguments)
RUNS = [(name, name, None, ()) for name in COMMANDS] + [
    ("lift-check+export_operator", "lift-check", {"export_operator": True}, ()),
    ("energy-table+degree6+material", "energy-table", {"degree": 6, "material": MATERIAL}, ()),
    ("conformal-report+material+scale", "conformal-report",
     {"material": MATERIAL, "scale": 0.5}, ()),
    ("verify-identities+trials300+degree5", "verify-identities", {"degree": 5},
     ("--trials", "300")),
    ("limit-study+order3", "limit-study", {"basis_order": 3}, ())]


def digest(command, seed, config, scratch, extra=()):
    """(sha256 of the report or None, exit code) of one fresh CLI run."""
    out = Path(scratch) / "report"
    out.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "couplestress.cli", command, "--seed", str(seed),
            "--out", str(out), *extra]
    if config is not None:
        cfg = Path(scratch) / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(cfg)]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    if not out.exists():
        return None, code
    return hashlib.sha256(out.read_bytes()).hexdigest(), code


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    seeds = [int(s) for s in args] or [0, 3]
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        for seed in seeds:
            for label, command, config, extra in RUNS:
                sha, code = digest(command, seed, config, scratch, extra)
                ok = ok and sha is not None
                print(f"{label} {seed} {sha or f'missing exit={code}'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
