"""The grid oracle's verdicts do not move with the sum-factorized evaluation.

`run_suite` at seeds 0-3 and degrees 2-6 (1400 reports) is run twice: once
as it is, and once on the reference path, with `polyfield.eval_fields`
replaced by the dense contraction that takes every point on its own and the
observed order fitted by `np.polyfit`. Every report must keep its verdict
(passed and exact_match); the errors and orders move only by the rounding
of the two summation orders.
"""
import numpy as np
import pytest

from couplestress import gridoracle as go
from couplestress import polyfield as pf
from test_eval_factorized import dense_eval


def polyfit_order(errors, hs):
    if np.max(errors) < 1e-13:
        return float("inf"), True
    with np.errstate(divide="ignore"):
        return float(np.polyfit(np.log(hs), np.log(errors), 1)[0]), False


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_verdicts_match_the_dense_contraction(monkeypatch, degree):
    for seed in range(4):
        got = go.run_suite(seed=seed, degree=degree)
        with monkeypatch.context() as m:
            m.setattr(pf, "eval_fields", dense_eval)
            m.setattr(go, "_observed_order", polyfit_order)
            want = go.run_suite(seed=seed, degree=degree)
        assert len(got) == len(want) == 70
        for a, b in zip(got, want):
            assert (a.operator, a.passed, a.exact_match) == (b.operator, b.passed, b.exact_match)
            assert np.max(np.abs(np.subtract(a.errors, b.errors))) <= 1e-13
            if not b.exact_match:
                assert abs(a.observed_order - b.observed_order) <= 1e-9
            else:
                assert max(a.errors) < 1e-14 and max(b.errors) < 1e-14
