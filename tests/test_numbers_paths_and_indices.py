"""Strings and booleans are not numbers, a field path is a file name, and booleans are not indices.

The CLI reads every real config value with one rule, `cli._real`: a JSON
int or float, not a bool, with a finite float value. A field spec is
exactly {"components": [...]} or exactly {"path": <string>}, and the file
holds exactly {"components": [...]}. Each refused input exits 2 with a
reason and no traceback. The library refuses a bool or `np.bool_` where
it takes an axis, an exponent, a power, a trig factor, a sine-mode
frequency or a face value, with a `ValueError` that names the input; a
sine-mode frequency of 1.5 is no longer truncated to 1.
"""
import json
import os

import numpy as np
import pytest

from couplestress import cli
from couplestress import polyfield as pf
from couplestress import tractions as tr
from couplestress.trig import TrigPoly

INLINE = {"components": [[[[1, 0, 0], 1.5], [[0, 2, 1], -0.25]], [[[0, 0, 1], 2.0]], []]}


def run(tmp_path, capsys, command, config, extra=()):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    rc = cli.main([command, "--config", str(cfg), *extra])
    return rc, capsys.readouterr()


def assert_refused(rc, out, reason):
    assert rc == 2
    assert "config error" in out.err and reason in out.err
    assert "Traceback" not in out.err
    assert "PASS" not in out.out


# --- one rule for real numbers --------------------------------------------------


@pytest.mark.parametrize("x", [0, 1, -2, 1.5, -0.0, 1e308, 10**300])
def test_real_accepts_finite_json_numbers(x):
    assert cli._real(x)


@pytest.mark.parametrize(
    "x", [True, False, "2", " 3 ", "1e0", None, [1.0], {}, float("nan"), float("inf"),
          -float("inf"), 10**400, -(10**400)])
def test_real_refuses_everything_else(x):
    assert not cli._real(x)


@pytest.mark.parametrize("value", ["2", True, False, " 3 ", None, [2.0]])
def test_solve_refuses_a_material_value_that_is_not_a_number(tmp_path, capsys, value):
    rc, out = run(tmp_path, capsys, "solve", {"material": {"mu": value}})
    assert_refused(rc, out, "material values must be finite: mu")


def test_all_bad_material_values_are_named(tmp_path, capsys):
    rc, out = run(tmp_path, capsys, "solve", {"material": {"mu": "2", "lam": True, "ell": 1}})
    assert_refused(rc, out, "material values must be finite: lam, mu")


@pytest.mark.parametrize("value", ["1e0", True])
def test_limit_study_refuses_a_penalty_value_that_is_not_a_number(tmp_path, capsys, value):
    rc, out = run(tmp_path, capsys, "limit-study", {"penalty_params": {"alpha1": value}})
    assert_refused(rc, out, "penalty_params values must be finite: alpha1")


@pytest.mark.parametrize("coeff", ['" 3 "', "true", "false", '"1"', "null"])
def test_energy_table_refuses_a_coefficient_that_is_not_a_number(tmp_path, capsys, coeff):
    config = '{"field": {"components": [[[[1, 0, 0], %s]], [], []]}}' % coeff
    rc, out = run(tmp_path, capsys, "energy-table", config)
    assert_refused(rc, out, "finite")


@pytest.mark.parametrize("value", [True, "1", None])
def test_traction_compare_refuses_a_face_value_that_is_not_a_number(tmp_path, capsys, value):
    rc, out = run(tmp_path, capsys, "traction-compare", {"face": {"axis": 0, "value": value}})
    assert_refused(rc, out, "value must be 0 or 1")


def test_integer_material_values_still_run(tmp_path, capsys):
    rc, out = run(tmp_path, capsys, "solve", {"material": {"mu": 2, "lam": 1, "alpha1": 1,
                                                            "alpha2": 0, "ell": 1}})
    assert rc == 0, out.err


# --- the field spec's path ---------------------------------------------------------


def report(tmp_path, capsys, name, config):
    out_path = tmp_path / f"{name}.json"
    rc, out = run(tmp_path, capsys, "energy-table", config, ("--out", str(out_path)))
    assert rc == 0, out.err
    return out_path.read_bytes()


def test_a_field_file_gives_the_report_of_the_inline_spec(tmp_path, capsys):
    field_file = tmp_path / "field.json"
    field_file.write_text(json.dumps(INLINE))
    inline = report(tmp_path, capsys, "inline", {"field": INLINE})
    from_file = report(tmp_path, capsys, "file", {"field": {"path": str(field_file)}})
    assert from_file == inline


def test_a_test_field_file_runs_traction_compare(tmp_path, capsys):
    field_file = tmp_path / "field.json"
    field_file.write_text(json.dumps(INLINE))
    rc, out = run(tmp_path, capsys, "traction-compare", {"test_field": {"path": str(field_file)}})
    assert rc == 0, out.err


def test_a_missing_field_file_is_refused(tmp_path, capsys):
    rc, out = run(tmp_path, capsys, "energy-table", {"field": {"path": str(tmp_path / "no")}})
    assert_refused(rc, out, "cannot read field file")


def test_a_directory_is_refused(tmp_path, capsys):
    rc, out = run(tmp_path, capsys, "energy-table", {"field": {"path": str(tmp_path)}})
    assert_refused(rc, out, "cannot read field file")


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00{", b""])
def test_a_field_file_that_is_not_json_is_refused(tmp_path, capsys, content):
    field_file = tmp_path / "field.json"
    field_file.write_bytes(content)
    rc, out = run(tmp_path, capsys, "energy-table", {"field": {"path": str(field_file)}})
    assert_refused(rc, out, "is not valid JSON")


@pytest.mark.parametrize("path", [None, 0, 1, 2, 1.0, True, ["f"], "a\x00b"])
def test_a_path_that_is_not_a_file_name_is_refused_and_no_fd_is_touched(
        tmp_path, capsys, path):
    before = [os.fstat(fd).st_ino for fd in (0, 1, 2)]
    rc, out = run(tmp_path, capsys, "energy-table", {"field": {"path": path}})
    assert_refused(rc, out, "field.path must be a file name")
    assert [os.fstat(fd).st_ino for fd in (0, 1, 2)] == before


@pytest.mark.parametrize(
    "spec",
    [
        {"path": "field.json", "components": INLINE["components"]},
        {"components": INLINE["components"], "extra": 1},
        {"path": "field.json", "extra": 1},
        {},
        [INLINE],
        "field.json",
    ],
    ids=["both-keys", "components-and-extra", "path-and-extra", "empty", "list", "string"],
)
def test_a_spec_must_be_exactly_one_form(tmp_path, capsys, spec):
    (tmp_path / "field.json").write_text(json.dumps(INLINE))
    rc, out = run(tmp_path, capsys, "energy-table", {"field": spec})
    assert_refused(rc, out, "field must be an object with exactly one key, components or path")


@pytest.mark.parametrize(
    "content",
    [
        {**INLINE, "note": "x"},
        {"path": "other.json"},
        {},
        [INLINE],
    ],
    ids=["extra-key", "nested-path", "empty", "list"],
)
def test_a_field_file_must_hold_exactly_components(tmp_path, capsys, content):
    field_file = tmp_path / "field.json"
    field_file.write_text(json.dumps(content))
    rc, out = run(tmp_path, capsys, "energy-table", {"field": {"path": str(field_file)}})
    assert_refused(rc, out, "must hold an object with exactly the key components")


def test_a_config_file_that_is_not_utf8_is_refused(tmp_path, capsys):
    cfg = tmp_path / "raw.json"
    cfg.write_bytes(b"\xff{}")
    rc = cli.main(["solve", "--config", str(cfg)])
    out = capsys.readouterr()
    assert_refused(rc, out, "is not valid JSON")


# --- booleans are not indices ------------------------------------------------------


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_a_face_value_is_not_a_boolean(flag):
    with pytest.raises(ValueError, match=repr(flag).replace("(", r"\(").replace(")", r"\)")):
        tr.Face(0, flag)


@pytest.mark.parametrize("flag", [True, np.True_])
def test_a_face_axis_is_not_a_boolean(flag):
    with pytest.raises(ValueError, match="got axis"):
        tr.Face(flag, 1.0)


def test_integer_faces_still_equal_float_ones():
    assert tr.Face(np.int64(1), 1) == tr.Face(1, 1.0)
    assert tr.Face(0, 1.0) in tr.ALL_FACES


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_a_monomial_exponent_is_not_a_boolean(flag):
    with pytest.raises(ValueError, match="is not three integer exponents"):
        pf.Poly3({(flag, 0, 0): 1.0})


@pytest.mark.parametrize("flag", [True, np.True_])
def test_a_trig_factor_is_not_a_boolean(flag):
    for key in (((flag, 1), (0, 0), (0, 0)), ((1, flag), (0, 0), (0, 0)),
                ((flag, flag), (0, 0), (0, 0))):
        with pytest.raises(ValueError, match="is not three factors"):
            TrigPoly({key: 1.0})


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_an_axis_is_not_a_boolean(flag):
    p = pf.Poly3({(1, 2, 3): 1.0})
    t = TrigPoly({((1, 1), (0, 2), (1, 1)): 1.0})
    batch = pf.DenseBatch(np.ones((2, 3, 3, 3)), pf.Poly3)
    calls = [
        lambda: pf.Poly3.variable(flag),
        lambda: p.diff(flag),
        lambda: t.diff(flag),
        lambda: batch.diff(flag),
        lambda: p.restrict(flag, 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"unknown axis {flag!r}"):
            call()


def test_integer_and_named_axes_still_work():
    p = pf.Poly3({(1, 2, 3): 1.0})
    assert p.diff(np.int64(1)).coef == p.diff(1).coef == p.diff("y").coef == {(1, 1, 3): 2.0}
    assert pf.Poly3({(np.int64(1), 0, 0): 1.0}).coef == {(1, 0, 0): 1.0}
    assert pf.Poly3.variable(2).coef == {(0, 0, 1): 1.0}


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_a_power_is_not_a_boolean(flag):
    with pytest.raises(ValueError, match=f"got {flag!r}"):
        pf.Poly3({(1, 0, 0): 2.0}) ** flag


@pytest.mark.parametrize("freqs", [(True, 1, 1), (1.5, 1, 1), (1, np.True_, 2), ("1", 1, 1)])
def test_a_sine_mode_frequency_is_an_integer(freqs):
    with pytest.raises(ValueError, match="is not three factors"):
        TrigPoly.sine_mode(freqs)


def test_integer_powers_and_sine_modes_still_work():
    p = pf.Poly3({(1, 0, 0): 2.0})
    assert (p ** np.int64(2)).coef == (p * p).coef == {(2, 0, 0): 4.0}
    assert TrigPoly.sine_mode((np.int64(1), 2, -3)).coef == TrigPoly.sine_mode((1, 2, -3)).coef


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_from_dense_matches_the_numpy_scalar_keys(dtype):
    # from_dense hands Poly3 Python ints and floats, which the bool scan reads fastest
    rng = np.random.default_rng(12)
    cube = np.where(rng.uniform(size=(5, 5, 5)) < 0.4, rng.normal(size=(5, 5, 5)), 0.0)
    cube[1, 2, 0], cube[0, 0, 3] = np.nan, -np.inf
    cube = cube.astype(dtype)
    idx = np.nonzero(cube)
    expected = pf.Poly3(dict(zip(zip(*idx), cube[idx])), 12)
    got = pf.from_dense(cube, 12)
    assert list(got.coef) == list(expected.coef)
    assert all(type(e) is int for key in got.coef for e in key)
    assert np.array(list(got.coef.values())).tobytes() == \
        np.array(list(expected.coef.values())).tobytes()
    assert got.cap == expected.cap
