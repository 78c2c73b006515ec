"""Inputs of the wrong kind are refused with a ValueError that names them.

One rule per kind of input: every reader of a route, orientation, sign
convention, model or operator name takes `polyfield._choice`; a face and an
edge share one integer-axis rule and one 0-or-1 rule; `polyfield._axis`, which
`face_bump` reads its direction through, takes integers and names only.
"""
import json

import numpy as np
import pytest

from couplestress import cli
from couplestress import energies as en
from couplestress import gridoracle as go
from couplestress import lift as lf
from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress import stresses as st
from couplestress import tractions as tr
from couplestress.trig import TrigPoly

U = pf.random_vec_field(np.random.default_rng(0), 2)
STATE = st.assemble(U, en.Material())
FACE = tr.Face(0, 1.0)
PARAMS = mm.MicromorphicParams()
BASIS = sv.bubble_basis(1)
X = [pf.Poly3.variable(ax) for ax in range(3)]
F = pf.as_vec([X[1] + 1.0, X[2] - 2.0, X[0]])

MODEL_READERS = {
    "companion_class": lambda m: mm.companion_class(m),
    "invariance_shift_kind": lambda m: mm.invariance_shift_kind(m),
    "micromorphic_energy": lambda m: mm.micromorphic_energy(U, pf.jac(U), m, PARAMS),
    "coupled_solve": lambda m: mm.coupled_solve(m, PARAMS, BASIS, F),
    "penalty_limit_study": lambda m: mm.penalty_limit_study(m, PARAMS, BASIS, F),
    "evaluate_model": lambda m: en.evaluate_model(m, U, en.Material()),
}


@pytest.mark.parametrize("reader", sorted(MODEL_READERS))
@pytest.mark.parametrize("model", [["x"], ("cosserat",), {"cosserat": 1}, None, 3, b"cosserat"],
                         ids=repr)
def test_a_model_name_of_the_wrong_kind_is_refused_by_name(reader, model):
    with pytest.raises(ValueError, match="unknown model") as err:
        MODEL_READERS[reader](model)
    assert repr(model) in str(err.value) and "known models: " in str(err.value)


NAME_READERS = {
    "operator": (lambda n: go.check_operator(n, U), go.operator_names()),
    "sign convention": (lambda n: lf.reconstruction_matrix(n), ("corrected", "printed")),
    "curvature route": (lambda n: en.curvature_from_jacobian(pf.jac(U), n), ("curl", "axl")),
    "formulation": (lambda n: st.equilibrium_residual(STATE, formulation=n), ("curl", "axl")),
    "orientation": (lambda n: tr.traction_axl_form(STATE, FACE, orientation=n),
                    ("energetic", "appendix")),
}


@pytest.mark.parametrize("what", sorted(NAME_READERS))
@pytest.mark.parametrize("name", ["bogus", ["curl"], None], ids=repr)
def test_an_unknown_name_is_refused_with_the_known_ones(what, name):
    call, known = NAME_READERS[what]
    with pytest.raises(ValueError, match=f"unknown {what} ") as err:
        call(name)
    assert repr(name) in str(err.value)
    for k in known:
        assert k in str(err.value)


def test_the_formulation_is_checked_before_the_orientation():
    with pytest.raises(ValueError, match="unknown formulation 'strain'"):
        tr.boundary_virtual_work(STATE, FACE, U, "strain", orientation="bogus")


def test_assemble_refuses_an_unknown_formulation():
    with pytest.raises(ValueError, match="unknown formulation 'strain'"):
        sv.assemble(BASIS, en.Material(1.0, 1.0, 1.0, 0.0, 1.0), "strain")


@pytest.mark.parametrize("axis", [1.0, 0.0, np.float64(2.0), True, np.True_, None, 3, -1],
                         ids=repr)
def test_an_axis_is_an_integer_or_a_name(axis):
    p = pf.Poly3({(1, 2, 3): 1.0})
    calls = [lambda: pf.Poly3.variable(axis), lambda: p.diff(axis),
             lambda: p.restrict(axis, 0.5), lambda: TrigPoly.const(1.0).diff(axis),
             lambda: tr.face_bump(FACE, direction=axis)]
    for call in calls:
        with pytest.raises(ValueError, match="unknown axis"):
            call()


@pytest.mark.parametrize("axis", [0, 1, 2, np.int64(1), np.uint8(2), "y", "x3"], ids=repr)
def test_integer_and_named_axes_are_taken(axis):
    assert len(tr.face_bump(FACE, direction=axis)) == 3
    assert pf.Poly3.variable(axis).diff(axis).coef == {(0, 0, 0): 1.0}


@pytest.mark.parametrize("edge_axis, edge_value",
                         [(np.True_, 1.0), (True, 0.0), (1, True), (2, np.False_),
                          (1.0, 1.0), (5, 1.0), (-1, 0.0), (1, "1")], ids=repr)
def test_an_edge_is_an_integer_axis_at_0_or_1(edge_axis, edge_value):
    with pytest.raises(ValueError, match="no edge of"):
        tr.edge_conormal(FACE, edge_axis, edge_value)


@pytest.mark.parametrize("axis, value", [(True, 1.0), (1.0, 0.0), (np.int64(1), np.True_),
                                         (3, 1.0), (0, 0.5), (0, "1")], ids=repr)
def test_a_face_is_an_integer_axis_at_0_or_1(axis, value):
    with pytest.raises(ValueError, match="integer axis"):
        tr.Face(axis, value)


def test_integer_edges_of_any_integer_type_are_taken():
    assert list(tr.edge_conormal(FACE, np.int64(1), 1)) == [0.0, 1.0, 0.0]
    assert list(tr.edge_conormal(tr.Face(np.int8(2), 0), 0, np.float64(0.0))) == [-1.0, 0, 0]


@pytest.mark.parametrize("ladder, reason",
                         [([], "non-empty"), ([1.0, True], "non-empty"), ([1.0, 1e400], "finite"),
                          ([1e2, 1.0], "strictly increasing"), (1.0, "non-empty list"),
                          ({"a": 1}, "non-empty list")], ids=repr)
def test_the_cli_ladder_reader_takes_the_library_check(tmp_path, capsys, ladder, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ladder": ladder}))
    assert cli.main(["limit-study", "--config", str(cfg)]) == 2
    assert reason in capsys.readouterr().err


def test_a_string_penalty_is_still_taken_by_with_penalty():
    assert PARAMS.with_penalty("25").penalty == 25.0
