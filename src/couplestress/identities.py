"""Machine checks of the differential identities behind the two curvature routes.

Each identity is stated as a gap field that must vanish coefficientwise on
exact polynomial inputs. Gradient fields (Jacobians of vector fields) are
the compatible inputs; generic matrix fields are incompatible and serve as
witnesses that the gradient hypothesis is doing real work.

Every check is linear with constant coefficients, so `run_suite` runs it on
BLOCK trials at once: the inputs are fields of `polyfield.DenseBatch`
entries, and each coefficient of a batch goes through the float operations
of the matching Poly3 dict entry, so the magnitudes are those of a
trial-by-trial run bit for bit. Each check gives one `IdentityReport`,
whose dict form is its dataclass fields.

The checks read the derived fields of their input (J, the strain curl,
grad curl u, Curl p, ...) from `energies._state`. The checks of one input
sit together in each list; per block and list, each such run builds its
input from the block's draw and is one `with energies._derived_fields(F)`
block, so its checks share one state of F: a block holds one input's state
at a time.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass
from operator import itemgetter

import numpy as np

from . import energies as en
from . import polyfield as pf
from . import tensors as tn


# --- building blocks -------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def incompatibility_first_order(p):
    """INC(p) = [Curl(sym p)]^T - grad(axl(skw p)).

    Vanishes exactly when p is a gradient; measures how far the two
    curvature routes drift apart on incompatible fields.
    """
    return en._state(p).inc


def _inc_of_curl(C):
    """Curl(C^T), which is inc(e) for C = Curl e."""
    return pf.mat_curl(tn.transpose(C))


def incompatibility_second_order(e):
    """Saint-Venant operator inc(e) = Curl([Curl e]^T) of a symmetric field."""
    return _inc_of_curl(pf.mat_curl(e))


# --- individual identity gaps ----------------------------------------------
# Each gap reads the derived fields of its input (`energies._state`): shared
# within a `run_suite` block, formed afresh on any other call.


@np.errstate(over="ignore", invalid="ignore")
def master_identity_gap(u):
    """grad(axl(skw grad u)) - [Curl(sym grad u)]^T on a vector field."""
    s = en._state(u)
    return s.k_axl - tn.transpose(s.k_curl)


@np.errstate(over="ignore", invalid="ignore")
def rotation_vector_gap(u):
    """2 axl(skw grad u) - curl u."""
    s = en._state(u)
    return s.axl_skw * 2.0 - s.curl


@np.errstate(over="ignore", invalid="ignore")
def sym_grad_curl_gap(u):
    """sym grad(curl u) - 2 sym Curl(sym grad u)."""
    s = en._state(u)
    return tn.sym(s.grad_curl) - tn.sym(s.k_curl) * 2.0


@np.errstate(over="ignore", invalid="ignore")
def skw_grad_curl_gap(u):
    """skw grad(curl u) + 2 skw Curl(sym grad u)."""
    s = en._state(u)
    return tn.skw(s.grad_curl) + tn.skw(s.k_curl) * 2.0


@np.errstate(over="ignore", invalid="ignore")
def curl_transpose_gap(u):
    """[grad curl u]^T - Curl([grad u]^T)."""
    s = en._state(u)
    return tn.transpose(s.grad_curl) - pf.mat_curl(tn.transpose(s.jacobian))


def strain_curl_trace(p):
    """tr Curl(sym p); vanishes for every matrix field p."""
    return tn.trace(en._state(p).k_curl)


@np.errstate(over="ignore", invalid="ignore")
def curl_trace_gap(p):
    """tr Curl(p) - 2 div(axl skw p)."""
    s = en._state(p)
    return tn.trace(s.curl_J) - pf.div(s.axl_skw) * 2.0


@np.errstate(over="ignore", invalid="ignore")
def div_anti_gap(v):
    """Div(anti v) + curl v."""
    return pf.mat_div(tn.anti(v)) + en._state(v).curl


@np.errstate(over="ignore", invalid="ignore")
def axl_skw_curl_gap(P):
    """axl(skw Curl P) - (1/2)(Div(P^T) - grad tr P)."""
    a = tn.axl(tn.skw(en._state(P).curl_J))
    b = (pf.mat_div(tn.transpose(P)) - pf.grad(tn.trace(P))) * 0.5
    return a - b


@np.errstate(over="ignore", invalid="ignore")
def nye_gap(A):
    """Curl A + (grad axl A)^T - tr(grad axl A) Id, for skew A."""
    s = en._state(A)
    G = s.grad_axl
    iso = tn.identity_like(G) * tn.trace(G)
    return s.curl_J + tn.transpose(G) - iso


@np.errstate(over="ignore", invalid="ignore")
def nye_inverse_gap(A):
    """grad(axl A) + (Curl A)^T - (1/2) tr(Curl A) Id, for skew A."""
    s = en._state(A)
    C = s.curl_J
    iso = tn.identity_like(C) * (tn.trace(C) * 0.5)
    return s.grad_axl + tn.transpose(C) - iso


@np.errstate(over="ignore", invalid="ignore")
def curl_of_inc_gap(p):
    """Curl(INC(p)) - inc(sym p) for an arbitrary matrix field."""
    s = en._state(p)
    return pf.mat_curl(s.inc) - _inc_of_curl(s.k_curl)


def compatible_inc_gap(u):
    """inc(sym grad u); compatibility of strains that come from displacements."""
    return _inc_of_curl(en._state(u).k_curl)


# --- suite ------------------------------------------------------------------


@dataclass
class IdentityReport:
    name: str
    kind: str  # "identity" or "witness"
    magnitude: float
    threshold: float
    passed: bool

    def as_dict(self):
        return asdict(self)


# (name, input, gap); the checks of one input sit together, so that `run_suite`
# builds each input once per block and list and opens one scope around its run
_IDENTITY_CHECKS = [
    ("master", "u", master_identity_gap),
    ("rotation-vector", "u", rotation_vector_gap),
    ("sym-grad-curl", "u", sym_grad_curl_gap),
    ("skw-grad-curl", "u", skw_grad_curl_gap),
    ("curl-transpose", "u", curl_transpose_gap),
    ("gradient-inc", "u", incompatibility_first_order),
    ("strain-compatibility", "u", compatible_inc_gap),
    ("strain-curl-trace", "p", strain_curl_trace),
    ("curl-trace", "p", curl_trace_gap),
    ("axl-skw-curl", "p", axl_skw_curl_gap),
    ("curl-of-inc", "p", curl_of_inc_gap),
    ("div-anti", "v", div_anti_gap),
    ("nye", "A", nye_gap),
    ("nye-inverse", "A", nye_inverse_gap),
]

_WITNESS_CHECKS = [
    ("inc-witness", "p", incompatibility_first_order),
    ("curl-witness", "p", lambda p: en._state(p).curl_J),
]


BLOCK = 128  # trials drawn and checked at once, so memory stays bounded at any trial count

_DRAWS = 18  # scalars drawn per trial: u (3), v (3), p (9, row-major), A's vector (3)
_SLOTS = {"u": slice(0, 3), "v": slice(3, 6), "p": slice(6, 15), "A": slice(15, 18)}


def _random_draws(rng, n, degree):
    """The coefficients of n trials' inputs, as one (n, 18, len(keys)) draw.

    It gives exactly the values of n trials of 18 `random_poly` calls each,
    in `simplex_keys` order, and leaves the generator where they would.
    """
    return rng.uniform(-1.0, 1.0, (n, _DRAWS, len(pf.simplex_keys(degree))))


@functools.cache
def _key_slots(degree):
    """The cube index of each of the `simplex_keys`, one index array per axis."""
    return tuple(np.array(pf.simplex_keys(degree)).T)


def _random_input(draws, arg, degree):
    """Input arg ("u", "v", "p" or A = anti(a)) of the drawn trials, as a field of
    DenseBatch entries."""
    D = degree + 1
    values = draws[:, _SLOTS[arg]].transpose(1, 0, 2)
    cubes = np.zeros(values.shape[:2] + (D, D, D))
    cubes[(slice(None), slice(None)) + _key_slots(degree)] = values
    b = [pf.DenseBatch(c, pf.Poly3) for c in cubes]
    if arg == "p":
        return pf.as_mat([b[0:3], b[3:6], b[6:9]])
    return tn.anti(pf.as_vec(b)) if arg == "A" else pf.as_vec(b)


def _magnitudes(F):
    """Largest coefficient magnitude of each trial of a check result; NaN if any is NaN.

    A batched result gives one value per trial, from one reduction per
    entry; a result of scalar fields (a stand-in check) gives one value
    for its block.
    """
    entries = np.ravel(F)
    if not isinstance(entries[0], pf.DenseBatch):
        return [pf.max_abs_coeff(F)]
    n = len(entries[0].coef)
    return np.array([abs(b.coef).reshape(n, -1).max(1) for b in entries]).max(0)


def run_suite(seed=0, trials=100, degree=4, tol=1e-12, witness_floor=1e-6):
    """Evaluate every identity on seeded random fields.

    Identities must stay below tol in max coefficient magnitude across all
    trials; witnesses must stay above witness_floor in every trial, which
    pins down that incompatible inputs genuinely break the identities.
    The trials run in blocks of at most BLOCK, each check once per block,
    on the fields and in the order of one trial at a time, the checks of
    one input in one list sharing its derived fields; the per-trial
    magnitudes fold with np.maximum and np.minimum, which keep a NaN,
    which then fails its check. trials below 1, degrees below 0 and either
    one not an integer (a bool is not) raise ValueError.
    """
    trials = pf._count(trials, "trials", 1)
    degree = pf._count(degree, "degree", 0)
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name, _, _ in _IDENTITY_CHECKS}
    least = {name: float("inf") for name, _, _ in _WITNESS_CHECKS}
    lists = ((_IDENTITY_CHECKS, np.maximum, worst), (_WITNESS_CHECKS, np.minimum, least))
    for start in range(0, trials, BLOCK):
        draws = _random_draws(rng, min(BLOCK, trials - start), degree)
        for checks, fold, acc in lists:
            for arg, run in itertools.groupby(checks, itemgetter(1)):
                F = _random_input(draws, arg, degree)
                with en._derived_fields(F):
                    for name, _, fn in run:
                        acc[name] = float(fold.reduce(_magnitudes(fn(F)), initial=acc[name]))
    reports = [
        IdentityReport(name, "identity", worst[name], tol, worst[name] <= tol)
        for name, _, _ in _IDENTITY_CHECKS
    ]
    reports += [
        IdentityReport(name, "witness", least[name], witness_floor, least[name] >= witness_floor)
        for name, _, _ in _WITNESS_CHECKS
    ]
    return reports
