"""Each `lift-check` trial forms one second gradient of its field.

The two round trips and the energy equality of one trial read the second
gradient of u from the state of u (`energies._state`), in one call scope per
trial, so `lift-check --trials 5` forms 6 second gradients: one per trial and
one of the frozen quadratic field. Before, each check formed its own (16).
The report is the same byte for byte as a run in which every call derives
afresh, and its digest is the one recorded for this command.
"""
import contextlib
import hashlib

from couplestress import cli
from couplestress import energies as en
from couplestress import polyfield as pf

REPORT_SHA256 = "3d11e81eef355fe462ed90bc2cce5c67adb88e9810ea5bb136361e0ac6b89919"


@contextlib.contextmanager
def unregistered(*fields):
    """A stand-in for `energies._derived_fields` that registers nothing."""
    yield en._Scope({})


def test_five_trials_form_six_second_gradients(monkeypatch, capsys):
    calls = []
    second_gradient = pf.second_gradient

    def counted(u):
        calls.append(u)
        return second_gradient(u)

    monkeypatch.setattr(pf, "second_gradient", counted)
    assert cli.main(["lift-check", "--trials", "5"]) == 0
    scoped = capsys.readouterr().out
    assert len(calls) == 6
    assert len({id(u) for u in calls}) == 6

    monkeypatch.setattr(en, "_derived_fields", unregistered)
    calls.clear()
    assert cli.main(["lift-check", "--trials", "5"]) == 0
    assert capsys.readouterr().out == scoped
    assert len(calls) == 16
    assert hashlib.sha256(scoped.encode()).hexdigest() == REPORT_SHA256
