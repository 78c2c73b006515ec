"""The identity suite runs its trials as dense batches, byte for byte.

`identities.run_suite` draws each block of trials with one generator call
and runs every check once per block on fields of `DenseBatch` entries. The
reference here is the trial-by-trial suite on Poly3 fields, restated with
its scalar coefficient draws: the reports must agree in every bit, at block
boundaries and across blocks, and the memory a run takes is bounded by
BLOCK trials at any trial count.
"""
import numpy as np
import pytest

from couplestress import identities as idn
from couplestress import polyfield as pf
from couplestress import tensors as tn


def scalar_poly(rng, degree):
    """random_poly as one scalar draw per coefficient."""
    coef = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            for k in range(degree + 1 - i - j):
                coef[(i, j, k)] = rng.uniform(-1.0, 1.0)
    return pf.Poly3(coef, max(pf.DEFAULT_CAP, degree))


def trial_inputs(rng, degree):
    """One trial's u, v, p and A on Poly3 fields, in the suite's draw order."""
    u = pf.as_vec([scalar_poly(rng, degree) for _ in range(3)])
    v = pf.as_vec([scalar_poly(rng, degree) for _ in range(3)])
    p = pf.as_mat([[scalar_poly(rng, degree) for _ in range(3)] for _ in range(3)])
    A = tn.anti(pf.as_vec([scalar_poly(rng, degree) for _ in range(3)]))
    return {"u": u, "v": v, "p": p, "A": A}


def reference_magnitudes(seed, trials, degree):
    """Per-trial magnitude of every check, one trial at a time on Poly3 fields."""
    rng = np.random.default_rng(seed)
    checks = idn._IDENTITY_CHECKS + idn._WITNESS_CHECKS
    rows = []
    for _ in range(trials):
        inputs = trial_inputs(rng, degree)
        rows.append({name: pf.max_abs_coeff(fn(inputs[arg])) for name, arg, fn in checks})
    return rows


def reference_reports(rows, tol=1e-12, witness_floor=1e-6):
    """The reports of the trial-by-trial suite over the given per-trial rows."""
    reports = []
    for name, _, _ in idn._IDENTITY_CHECKS:
        worst = 0.0
        for row in rows:
            worst = float(np.maximum(worst, row[name]))
        reports.append(idn.IdentityReport(name, "identity", worst, tol, worst <= tol))
    for name, _, _ in idn._WITNESS_CHECKS:
        least = float("inf")
        for row in rows:
            least = float(np.minimum(least, row[name]))
        reports.append(idn.IdentityReport(name, "witness", least, witness_floor,
                                          least >= witness_floor))
    return reports


def same_reports(got, ref):
    assert [r.name for r in got] == [r.name for r in ref]
    for g, r in zip(got, ref):
        assert (g.kind, g.threshold, g.passed) == (r.kind, r.threshold, r.passed), g.name
        assert type(g.magnitude) is float, g.name
        assert np.float64(g.magnitude).tobytes() == np.float64(r.magnitude).tobytes(), g.name


def trial_counts(block):
    return sorted({1, 2, block - 1, block, block + 1, 2 * block + 1})


SMALL_BLOCK = 4  # block boundaries at every degree, with a reference that stays quick


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("degree", range(7))
def test_the_batched_suite_equals_the_trial_loop_at_every_block_boundary(monkeypatch, degree,
                                                                         seed):
    monkeypatch.setattr(idn, "BLOCK", SMALL_BLOCK)
    counts = trial_counts(SMALL_BLOCK)
    rows = reference_magnitudes(seed, max(counts), degree)
    for trials in counts:
        same_reports(idn.run_suite(seed=seed, trials=trials, degree=degree),
                     reference_reports(rows[:trials]))


def test_the_batched_suite_equals_the_trial_loop_at_the_module_block():
    counts = trial_counts(idn.BLOCK)
    rows = reference_magnitudes(5, max(counts), 1)
    for trials in counts:
        same_reports(idn.run_suite(seed=5, trials=trials, degree=1),
                     reference_reports(rows[:trials]))


def test_other_thresholds_read_the_same_magnitudes():
    rows = reference_magnitudes(7, 3, 3)
    got = idn.run_suite(seed=7, trials=3, degree=3, tol=1e-300, witness_floor=1e300)
    same_reports(got, reference_reports(rows, 1e-300, 1e300))
    assert not any(r.passed for r in got if r.kind == "witness")


def recording(checks, log):
    """The checks wrapped so that each call logs its name and the widths of its input."""
    def wrap(name, fn):
        def run(F):
            log.append((name, {b.coef.shape[0] for b in np.ravel(F)}))
            return fn(F)
        return run
    return [(name, arg, wrap(name, fn)) for name, arg, fn in checks]


@pytest.mark.parametrize("trials", [1, idn.BLOCK, idn.BLOCK + 1, 2 * idn.BLOCK + 1])
def test_each_check_runs_once_per_block_on_batches_no_wider_than_block(monkeypatch, trials):
    log = []
    monkeypatch.setattr(idn, "_IDENTITY_CHECKS", recording(idn._IDENTITY_CHECKS, log))
    monkeypatch.setattr(idn, "_WITNESS_CHECKS", recording(idn._WITNESS_CHECKS, log))
    idn.run_suite(seed=0, trials=trials, degree=1)
    blocks = -(-trials // idn.BLOCK)
    names = [name for name, _, _ in idn._IDENTITY_CHECKS + idn._WITNESS_CHECKS]
    assert [name for name, _ in log] == names * blocks
    widths = [w for _, ws in log for w in ws]
    assert all(len(ws) == 1 for _, ws in log)
    assert max(widths) <= idn.BLOCK
    assert sum(widths) == trials * len(names)


def test_the_inputs_are_drawn_by_one_call_per_block(monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def uniform(self, *args):
            calls.append(args)
            return self.rng.uniform(*args)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    idn.run_suite(seed=0, trials=2 * idn.BLOCK + 1, degree=2)
    assert [args[2][:2] for args in calls] == [(idn.BLOCK, 18), (idn.BLOCK, 18), (1, 18)]


# --- stand-in checks -----------------------------------------------------------


def block_values(values):
    """A stand-in check whose result on a block holds the next values, one per trial."""
    it = iter(values)

    def run(F):
        batch = np.ravel(F)[0]
        n, D = batch.coef.shape[0], batch.coef.shape[-1]
        coef = np.zeros((n, D, D, D))
        coef[:, 0, 0, 0] = [next(it) for _ in range(n)]
        return pf.as_vec([pf.DenseBatch(coef, pf.Poly3), batch * 0.0, batch * 0.0])
    return run


def per_call(values):
    """A stand-in check that returns the next scalar field on each call (one per block)."""
    it = iter(values)
    return lambda F: next(it)


def suite_with(monkeypatch, identity, witness, trials):
    monkeypatch.setattr(idn, "_IDENTITY_CHECKS", [("master", "u", identity)])
    monkeypatch.setattr(idn, "_WITNESS_CHECKS", [("inc-witness", "p", witness)])
    return idn.run_suite(seed=0, trials=trials, degree=2)


@pytest.mark.parametrize("at", [0, 1, 5])
def test_a_nan_in_any_trial_fails_both_kinds(monkeypatch, at):
    values = [1e-3] * 7
    values[at] = float("nan")
    monkeypatch.setattr(idn, "BLOCK", 3)
    master, witness = suite_with(monkeypatch, block_values(values), block_values(values), 7)
    for r in (master, witness):
        assert r.magnitude != r.magnitude and not r.passed


def test_an_inf_fails_an_identity_and_a_witness_takes_the_least(monkeypatch):
    values = [float("inf"), 1e-3, 2e-3, float("-inf")]
    monkeypatch.setattr(idn, "BLOCK", 3)
    master, witness = suite_with(monkeypatch, block_values(values), block_values(values), 4)
    assert master.magnitude == float("inf") and not master.passed
    assert witness.magnitude == 1e-3 and witness.passed


def test_scalar_field_stand_ins_count_once_per_block(monkeypatch):
    monkeypatch.setattr(idn, "BLOCK", 2)
    master, witness = suite_with(
        monkeypatch,
        per_call([pf.Poly3.const(1e-13), pf.Poly3.const(-3e-13), pf.Poly3.zero()]),
        per_call([pf.Poly3.const(5.0), pf.Poly3.const(float("inf")), pf.Poly3.const(-2.0)]),
        5)
    assert (master.magnitude, master.passed) == (3e-13, True)
    assert (witness.magnitude, witness.passed) == (2.0, True)


def test_scalar_field_stand_ins_keep_nan_and_inf(monkeypatch):
    master, witness = suite_with(
        monkeypatch,
        per_call([pf.as_vec([pf.Poly3.zero(), pf.Poly3.const(float("inf")), pf.Poly3.zero()])]),
        per_call([pf.Poly3.const(float("nan"))]),
        1)
    assert master.magnitude == float("inf") and not master.passed
    assert witness.magnitude != witness.magnitude and not witness.passed


# --- refused inputs ------------------------------------------------------------


@pytest.mark.parametrize("trials", [0, -1, -idn.BLOCK])
def test_the_suite_refuses_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        idn.run_suite(trials=trials)


@pytest.mark.parametrize("degree", [-1, -5])
def test_the_suite_refuses_a_negative_degree(degree):
    with pytest.raises(ValueError, match="degree must be at least 0"):
        idn.run_suite(trials=2, degree=degree)
