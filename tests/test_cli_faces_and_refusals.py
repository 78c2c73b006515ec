"""traction-compare on every face, and inputs refused with exit 2.

The frozen field x_a^2 e_(a+1) has the double force +1/2 e_(a+1) on the
curl route and -1/2 e_(a+1) on the appendix route on both faces normal to
axis a, so the traction contracts hold on all six faces. A face spec,
field exponent, --out path or --seed the CLI cannot honour exits 2 with a
reason and no traceback.
"""
import json

import pytest

from couplestress import cli
from couplestress import tractions as tr


def exit_code(argv):
    """Exit status of the CLI, whether it returns or argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def run_config(tmp_path, capsys, command, config_text, extra=()):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_text)
    rc = exit_code([command, "--config", str(cfg), *extra])
    return rc, capsys.readouterr()


def assert_refused(rc, out, reason):
    assert rc == 2
    assert reason in out.err
    assert "Traceback" not in out.err
    assert "PASS" not in out.out


def test_traction_compare_passes_on_all_six_faces(tmp_path, capsys):
    for face in tr.ALL_FACES:
        spec = {"axis": face.axis, "value": int(face.value)}
        out = tmp_path / "trac.json"
        rc, captured = run_config(tmp_path, capsys, "traction-compare",
                                  json.dumps({"face": spec}), ("--out", str(out)))
        assert rc == 0, (spec, captured.out)
        report = json.loads(out.read_text())
        assert report["face"] == {"axis": face.axis, "value": face.value}
        expected = [0.0, 0.0, 0.0]
        expected[(face.axis + 1) % 3] = 0.5
        rows = {row[0]: row[1:] for row in report["table"]["rows"]}
        assert rows["curl"] == pytest.approx(expected, abs=1e-12)
        assert rows["axl-appendix"] == pytest.approx([-g for g in expected], abs=1e-12)


@pytest.mark.parametrize(
    "face",
    [
        '{"axis": 0, "value": 1, "normal": 1}',
        '{"axis": true, "value": 1}',
        '{"axis": 0.7, "value": 1}',
        '{"axis": "2", "value": 1}',
        '{"axis": 1e400, "value": 1}',
        '{"axis": 0, "value": true}',
        '{"axis": 0, "value": "1"}',
    ],
)
def test_a_malformed_face_spec_exits_2(tmp_path, capsys, face):
    rc, out = run_config(tmp_path, capsys, "traction-compare", '{"face": %s}' % face)
    assert_refused(rc, out, "bad face spec")


@pytest.mark.parametrize("exponent", ["1.5", "true", '"1"'])
def test_a_field_exponent_that_is_not_a_non_negative_integer_exits_2(
    tmp_path, capsys, exponent
):
    config = '{"field": {"components": [[[[%s, 0, 0], 1.0]], [], []]}}' % exponent
    rc, out = run_config(tmp_path, capsys, "energy-table", config)
    assert_refused(rc, out, "exponents must be non-negative integers")


@pytest.mark.parametrize("target", ["missing/r.json", "."])
def test_an_unwritable_out_path_exits_2(tmp_path, capsys, target):
    path = tmp_path / target
    rc = exit_code(["verify-identities", "--trials", "1", "--out", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"cannot write {path}" in captured.err
    assert "Traceback" not in captured.err


def test_a_negative_seed_exits_2(capsys):
    assert exit_code(["verify-identities", "--trials", "1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--seed" in captured.err
    assert "Traceback" not in captured.err
