"""A command that raises exits 3 with its traceback, apart from exits 1 and 2."""
from couplestress import cli


def test_uncaught_exception_exits_3(monkeypatch, capsys):
    def boom(args, config, rng):
        raise RuntimeError("broken command")

    monkeypatch.setitem(cli.COMMANDS, "solve", boom)
    rc = cli.main(["solve"])
    assert rc == 3
    captured = capsys.readouterr()
    assert "Traceback" in captured.err
    assert "RuntimeError: broken command" in captured.err
    assert "contract violation" not in captured.err
    assert captured.out == ""
