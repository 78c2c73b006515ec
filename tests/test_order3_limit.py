"""Penalty limit studies at basis order 3, the largest order limit-study takes.

The companion span keeps the numerical rank of its candidate Gram, so it
holds every constraint image and the penalized energies stay below the
constrained one up to the last rung. Thresholds are those of the CLI.
"""
import json

import pytest

from couplestress import cli
from couplestress import micromorphic as mm
from couplestress.solver import bubble_basis


@pytest.mark.parametrize("model, order, size", [
    ("cosserat", 2, 48), ("microstrain", 2, 72), ("micromorphic", 2, 96),
    ("cosserat", 3, 153), ("microstrain", 3, 240),
])
def test_companion_sizes(model, order, size):
    assert len(mm.companion_basis(model, bubble_basis(order))) == size


@pytest.mark.parametrize("model", ["cosserat", "microstrain"])
def test_limit_study_passes_at_order_3(model, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis_order": 3, "models": [model]}))
    out = tmp_path / "study.json"
    rc = cli.main(["limit-study", "--config", str(cfg), "--format", "json",
                   "--out", str(out)])
    assert rc == 0, capsys.readouterr().out
    study = json.loads(out.read_text())["studies"][model]
    e_con = study["constrained_energy"]
    gaps = [row["energy_gap"] for row in study["rows"]]
    assert all(g >= -1e-10 * max(1.0, abs(e_con)) for g in gaps)
    # the gap closes like 1/penalty down to the last rung
    assert all(0.0 < b < 0.1 * a for a, b in zip(gaps, gaps[1:]))
