"""Exact face work on all six faces, the axl orientation check, and the
closed-boundary contract on NaN.

For a test field that vanishes to second order on the face edges, the split
work t.v + g.dv/dn integrates to the unsplit boundary pairing on every face,
on the curl route and on the energetic axl route. The appendix orientation
flips the spin sign, so its split total misses.
"""
import json
import math

import numpy as np
import pytest

from couplestress import cli
from couplestress import polyfield as pf
from couplestress import stresses as st
from couplestress import tractions as tr
from couplestress.energies import Material

MATERIAL = Material(1.0, 0.7, 1.3, 0.4, 0.9)


@pytest.mark.parametrize("seed", [0, 1])
def test_split_totals_equal_unsplit_work_on_every_face(seed):
    rng = np.random.default_rng(seed)
    worst_appendix = 0.0
    for degree in (3, 4):
        state = st.assemble(pf.random_vec_field(rng, degree), MATERIAL)
        for face in tr.ALL_FACES:
            for direction in range(3):
                bump = tr.face_bump(face, direction)
                cmp = tr.face_work_comparison(state, face, bump)
                for route, formulation in (("curl", "curl"), ("axl-energetic", "axl")):
                    w = tr.unsplit_face_work(state, face, bump, formulation)
                    got = cmp[route]["total"]
                    assert abs(got - w) <= 1e-13 * max(1.0, abs(w)), (face, direction, route)
                w = tr.unsplit_face_work(state, face, bump, "axl")
                worst_appendix = max(worst_appendix, abs(cmp["axl-appendix"]["total"] - w))
    assert worst_appendix >= 1e-3


def test_edge_force_refuses_unknown_orientation():
    state = st.assemble(pf.random_vec_field(np.random.default_rng(3), 3), MATERIAL)
    face = tr.Face(0, 1.0)
    with pytest.raises(ValueError, match="orientation"):
        tr.edge_force(state, face, 2, 1.0, "axl", orientation="energetc")


def _nan_volume_work(monkeypatch):
    monkeypatch.setattr(tr, "volume_virtual_work", lambda state, test: math.nan)


def _nan_axl_closed_work(monkeypatch):
    real = tr.closed_boundary_work

    def nan_on_axl(state, test, formulation="curl"):
        return math.nan if formulation == "axl" else real(state, test, formulation)

    monkeypatch.setattr(tr, "closed_boundary_work", nan_on_axl)


@pytest.mark.parametrize("make_nan", [_nan_volume_work, _nan_axl_closed_work])
def test_closed_boundary_contract_keeps_nan_work(tmp_path, monkeypatch, make_nan):
    make_nan(monkeypatch)
    out = tmp_path / "report.json"
    code = cli.main(["traction-compare", "--format", "json", "--out", str(out)])
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert code == 1
    row = checks["closed-boundary-route-independent"]
    assert not row["passed"] and row["value"] == "nan"
    assert checks["split-totals-agree"]["passed"]
