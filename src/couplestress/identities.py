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
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import polyfield as pf
from . import tensors as tn


# --- building blocks -------------------------------------------------------


def incompatibility_first_order(p):
    """INC(p) = [Curl(sym p)]^T - grad(axl(skw p)).

    Vanishes exactly when p is a gradient; measures how far the two
    curvature routes drift apart on incompatible fields.
    """
    a = tn.transpose(pf.mat_curl(tn.sym(p)))
    b = pf.jac(tn.axl(tn.skw(p)))
    return a - b


def incompatibility_second_order(e):
    """Saint-Venant operator inc(e) = Curl([Curl e]^T) of a symmetric field."""
    return pf.mat_curl(tn.transpose(pf.mat_curl(e)))


# --- individual identity gaps ----------------------------------------------


def master_identity_gap(u):
    """grad(axl(skw grad u)) - [Curl(sym grad u)]^T on a vector field."""
    J = pf.jac(u)
    a = pf.jac(tn.axl(tn.skw(J)))
    b = tn.transpose(pf.mat_curl(tn.sym(J)))
    return a - b


def rotation_vector_gap(u):
    """2 axl(skw grad u) - curl u."""
    a = tn.axl(tn.skw(pf.jac(u))) * 2.0
    return a - pf.curl(u)


def sym_grad_curl_gap(u):
    """sym grad(curl u) - 2 sym Curl(sym grad u)."""
    a = tn.sym(pf.jac(pf.curl(u)))
    b = tn.sym(pf.mat_curl(tn.sym(pf.jac(u)))) * 2.0
    return a - b


def skw_grad_curl_gap(u):
    """skw grad(curl u) + 2 skw Curl(sym grad u)."""
    a = tn.skw(pf.jac(pf.curl(u)))
    b = tn.skw(pf.mat_curl(tn.sym(pf.jac(u)))) * 2.0
    return a + b


def curl_transpose_gap(u):
    """[grad curl u]^T - Curl([grad u]^T)."""
    a = tn.transpose(pf.jac(pf.curl(u)))
    b = pf.mat_curl(tn.transpose(pf.jac(u)))
    return a - b


def strain_curl_trace(p):
    """tr Curl(sym p); vanishes for every matrix field p."""
    return tn.trace(pf.mat_curl(tn.sym(p)))


def curl_trace_gap(p):
    """tr Curl(p) - 2 div(axl skw p)."""
    return tn.trace(pf.mat_curl(p)) - pf.div(tn.axl(tn.skw(p))) * 2.0


def div_anti_gap(v):
    """Div(anti v) + curl v."""
    return pf.mat_div(tn.anti(v)) + pf.curl(v)


def axl_skw_curl_gap(P):
    """axl(skw Curl P) - (1/2)(Div(P^T) - grad tr P)."""
    a = tn.axl(tn.skw(pf.mat_curl(P)))
    b = (pf.mat_div(tn.transpose(P)) - pf.grad(tn.trace(P))) * 0.5
    return a - b


def nye_gap(A):
    """Curl A + (grad axl A)^T - tr(grad axl A) Id, for skew A."""
    G = pf.jac(tn.axl(A))
    iso = tn.identity_like(G) * tn.trace(G)
    return pf.mat_curl(A) + tn.transpose(G) - iso


def nye_inverse_gap(A):
    """grad(axl A) + (Curl A)^T - (1/2) tr(Curl A) Id, for skew A."""
    C = pf.mat_curl(A)
    iso = tn.identity_like(C) * (tn.trace(C) * 0.5)
    return pf.jac(tn.axl(A)) + tn.transpose(C) - iso


def curl_of_inc_gap(p):
    """Curl(INC(p)) - inc(sym p) for an arbitrary matrix field."""
    a = pf.mat_curl(incompatibility_first_order(p))
    b = incompatibility_second_order(tn.sym(p))
    return a - b


def compatible_inc_gap(u):
    """inc(sym grad u); compatibility of strains that come from displacements."""
    return incompatibility_second_order(tn.sym(pf.jac(u)))


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


_IDENTITY_CHECKS = [
    ("master", "u", master_identity_gap),
    ("rotation-vector", "u", rotation_vector_gap),
    ("sym-grad-curl", "u", sym_grad_curl_gap),
    ("skw-grad-curl", "u", skw_grad_curl_gap),
    ("curl-transpose", "u", curl_transpose_gap),
    ("gradient-inc", "u", lambda u: incompatibility_first_order(pf.jac(u))),
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
    ("inc-witness", "p", lambda p: incompatibility_first_order(p)),
    ("curl-witness", "p", lambda p: pf.mat_curl(p)),
]


BLOCK = 128  # trials drawn and checked at once, so memory stays bounded at any trial count

_DRAWS = 18  # scalars drawn per trial: u (3), v (3), p (9, row-major), A's vector (3)


def _random_inputs(rng, n, degree):
    """The inputs u, v, p and A = anti(a) of n trials, as fields of DenseBatch entries.

    One draw of (n, 18, len(keys)) values gives exactly the values of n
    trials of 18 `random_poly` calls each, in `simplex_keys` order, and
    leaves the generator where they would.
    """
    keys = pf.simplex_keys(degree)
    D = degree + 1
    cubes = np.zeros((_DRAWS, n, D, D, D))
    draws = rng.uniform(-1.0, 1.0, (n, _DRAWS, len(keys)))
    cubes[(slice(None), slice(None)) + tuple(np.array(keys).T)] = draws.transpose(1, 0, 2)
    b = [pf.DenseBatch(c, pf.Poly3) for c in cubes]
    return {
        "u": pf.as_vec(b[0:3]),
        "v": pf.as_vec(b[3:6]),
        "p": pf.as_mat([b[6:9], b[9:12], b[12:15]]),
        "A": tn.anti(pf.as_vec(b[15:18])),
    }


def _magnitudes(F):
    """Largest coefficient magnitude of each trial of a check result; NaN if any is NaN.

    A batched result gives one value per trial, from one reduction per
    entry; a result of scalar fields (a stand-in check) gives one value
    for its block.
    """
    entries = np.ravel(F)
    if not isinstance(entries[0], pf.DenseBatch):
        return [pf.max_abs_coeff(F)]
    return np.max([np.max(np.abs(b.coef), axis=(1, 2, 3)) for b in entries], axis=0)


def run_suite(seed=0, trials=100, degree=4, tol=1e-12, witness_floor=1e-6):
    """Evaluate every identity on seeded random fields.

    Identities must stay below tol in max coefficient magnitude across all
    trials; witnesses must stay above witness_floor in every trial, which
    pins down that incompatible inputs genuinely break the identities.
    The trials run in blocks of at most BLOCK, each check once per block,
    on the fields and in the order of one trial at a time; the per-trial
    magnitudes fold with np.maximum and np.minimum, which keep a NaN,
    which then fails its check. trials below 1, degrees below 0 and either
    one not an integer (a bool is not) raise ValueError.
    """
    trials = pf._count(trials, "trials", 1)
    degree = pf._count(degree, "degree", 0)
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name, _, _ in _IDENTITY_CHECKS}
    least = {name: float("inf") for name, _, _ in _WITNESS_CHECKS}
    for start in range(0, trials, BLOCK):
        inputs = _random_inputs(rng, min(BLOCK, trials - start), degree)
        for name, arg, fn in _IDENTITY_CHECKS:
            mags = _magnitudes(fn(inputs[arg]))
            worst[name] = float(np.maximum.reduce(mags, initial=worst[name]))
        for name, arg, fn in _WITNESS_CHECKS:
            mags = _magnitudes(fn(inputs[arg]))
            least[name] = float(np.minimum.reduce(mags, initial=least[name]))
    reports = [
        IdentityReport(name, "identity", worst[name], tol, worst[name] <= tol)
        for name, _, _ in _IDENTITY_CHECKS
    ]
    reports += [
        IdentityReport(name, "witness", least[name], witness_floor, least[name] >= witness_floor)
        for name, _, _ in _WITNESS_CHECKS
    ]
    return reports
