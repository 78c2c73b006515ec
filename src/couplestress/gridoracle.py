"""Finite-difference grid oracle for the polynomial differential operators.

Central differences of second order on a fixed interior lattice give an
implementation-independent check: for each operator the sup-norm error
against the exact polynomial result must shrink like h^2 as the stencil
spacing h is refined. Fields of total degree >= 5 keep every truncation
term alive so the observed order is meaningful.

The fd_* functions evaluate the differenced field once, on every stencil
point of every h, and form the stencil quotients in STENCIL_DTYPE before
rounding them to float64; given a sequence of spacings h they put the
spacings on a leading axis. Extended precision keeps the roundoff of a
second difference, about eps * |u| / h^2, below the exact-match floor at
the finest default h. Where np.longdouble is plain double it is not, and a
check that is exact in exact arithmetic fails; each report records the
eps of the stencil arithmetic. The stencil points share coordinates (the
1539 points of the second differences have 19 distinct x and z and 193
distinct (y, z) pairs), and the evaluation contracts the field's cubes over
the distinct ones only. A check evaluates on three point sets, the lattice
and the first- and second-difference stencils. The lattice goes through
`polyfield.eval_fields`, which plans it once per process. Each stencil is
shifted and planned once per process too (`_stencil_plan`): its plan is held
in `polyfield._EVAL_PLANS`, within that cache's bound, under the lattice,
the spacings, the offset table and STENCIL_DTYPE, so a changed table,
spacing or dtype is a stencil with a plan of its own, and a check contracts
the field on the held plan (`polyfield._evaluate`, the contraction of
`eval_fields`) with every value as before, bit for bit.

The oracle is two stencil builders, fd_grad (the first differences of
every entry along each axis; also fd_jac and fd_mat_grad) and
fd_second_gradient, and two contractions of fd_grad, fd_div and fd_curl,
each for a vector or, row by row, a matrix field (also fd_mat_div and
fd_mat_curl). fd_partial and fd_second_partial are the one-axis float64
stencils of a scalar callable.

check_operator and run_suite refuse spacings that cannot give an observed
order, before any evaluation. The order is the closed-form least-squares
slope of log error against log h.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import polyfield as pf
from . import tensors as tn

BASE_LATTICE = np.array(
    [[a, b, c] for a in (0.25, 0.5, 0.75) for b in (0.25, 0.5, 0.75) for c in (0.25, 0.5, 0.75)]
)

DEFAULT_H = (1 / 8, 1 / 16, 1 / 32)

STENCIL_DTYPE = np.longdouble

_E = np.eye(3)
_PAIRS = ((0, 1), (0, 2), (1, 2))
# first differences: +e_a for each axis, then -e_a
_FIRST = np.concatenate([_E, -_E])
# second differences: the centre, +e_a, -e_a, then for each pair (a, b) of
# _PAIRS the mixed offsets +a+b, +a-b, -a+b, -a-b
_SECOND = np.concatenate(
    [np.zeros((1, 3)), _E, -_E]
    + [[sa * _E[a] + sb * _E[b] for sa in (1, -1) for sb in (1, -1)] for a, b in _PAIRS]
)
# entry [a, b] of a Hessian among the three diagonal and three mixed quotients
_HESSIAN = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])


def fd_partial(f, pts, axis, h):
    """Second-order central difference of a scalar callable."""
    e = _E[axis]
    return (f(pts + h * e) - f(pts - h * e)) / (2 * h)


def fd_second_partial(f, pts, ax1, ax2, h):
    e1, e2 = _E[ax1], _E[ax2]
    if ax1 == ax2:
        return (f(pts + h * e1) - 2 * f(pts) + f(pts - h * e1)) / h**2
    return (
        f(pts + h * e1 + h * e2)
        - f(pts + h * e1 - h * e2)
        - f(pts - h * e1 + h * e2)
        + f(pts - h * e1 - h * e2)
    ) / (4 * h**2)


def _key(a):
    """An array's dtype, shape and bytes: equal keys hold equal values."""
    return a.dtype.str, a.shape, a.tobytes()


def _stencil_plan(pts, h, hs, offsets):
    """The evaluation plan of the stencil points pts + h * offset, for every h and
    offset, formed in STENCIL_DTYPE once per process.

    The plan is held in `polyfield._EVAL_PLANS`, within its bound, under the
    arrays that fix the points (pts, h and the offset table, by their bytes)
    and STENCIL_DTYPE, so a changed table, spacing or dtype is a new entry.
    Points or spacings given as objects (the bytes of an object array are
    addresses, not values) are planned on every call.
    """
    P, H = np.asarray(pts), np.asarray(h)

    def form():
        X = np.asarray(pts, dtype=STENCIL_DTYPE)
        shifted = X + hs[:, None, None, None] * offsets.astype(STENCIL_DTYPE)[:, None, :]
        return pf._form_eval_plan(shifted.reshape(-1, 3))

    if P.dtype.hasobject or H.dtype.hasobject:
        return form()
    key = ("stencil", np.dtype(STENCIL_DTYPE).str, _key(P), _key(H), _key(offsets))
    return pf._EVAL_PLANS.get(key, form, len(hs) * len(offsets) * (P.size // 3))


def _at_offsets(F, pts, h, offsets):
    """F at pts + h * offset for every h and offset, and the spacings.

    The values have shape (nh, noffsets, npts, *F.shape) and the spacings
    shape (nh, 1, ..., 1) to broadcast against one offset's values, both in
    STENCIL_DTYPE. The stencil points are planned once (`_stencil_plan`), and
    each call contracts F on the plan (`polyfield._evaluate`).
    """
    hs = np.reshape(np.asarray(h, dtype=STENCIL_DTYPE), -1)
    vals = pf._evaluate(F, _stencil_plan(pts, h, hs, offsets))
    vals = vals.reshape((len(hs), len(offsets), -1) + vals.shape[1:])
    return vals, hs.reshape((-1,) + (1,) * (vals.ndim - 2))


def _rounded(quotients, h):
    """Quotients for every h as float64; one h as a scalar drops the h axis."""
    out = quotients.astype(float)
    return out if np.ndim(h) else out[0]


def fd_grad(F, pts, h):
    """Central differences of every entry of F along each axis: (..., npts, *F.shape, 3)."""
    V, hs = _at_offsets(F, pts, h, _FIRST)
    G = (V[:, :3] - V[:, 3:]) / (2 * hs[:, None])
    return _rounded(np.moveaxis(G, 1, -1), h)


fd_jac = fd_mat_grad = fd_grad


def fd_div(F, pts, h):
    """Trace of the last two slots of fd_grad: div u, or Div P row by row."""
    return np.trace(fd_grad(F, pts, h), axis1=-2, axis2=-1)


def fd_curl(F, pts, h):
    """eps_jlk d F_k / d x_l from fd_grad: curl u, or Curl P row by row."""
    return np.einsum("jlk,...kl->...j", tn.EPS, fd_grad(F, pts, h))


fd_mat_div = fd_div
fd_mat_curl = fd_curl


def fd_second_gradient(u, pts, h):
    """T[..., k, i, j] = d^2 u_k / d x_i d x_j by central second differences."""
    V, hs = _at_offsets(u, pts, h, _SECOND)
    diagonal = (V[:, 1:4] - 2 * V[:, :1] + V[:, 4:7]) / hs[:, None] ** 2
    mixed = (V[:, 7::4] - V[:, 8::4] - V[:, 9::4] + V[:, 10::4]) / (4 * hs[:, None] ** 2)
    H = np.moveaxis(np.concatenate([diagonal, mixed], axis=1), 1, -1)
    return _rounded(H[..., _HESSIAN], h)


@dataclass
class OrderReport:
    operator: str
    errors: list
    hs: list
    observed_order: float
    exact_match: bool = False
    passed: bool = field(default=False)
    stencil_eps: float = field(default_factory=lambda: float(np.finfo(STENCIL_DTYPE).eps))

    def as_dict(self):
        return asdict(self)


def _check_spacings(hs):
    """ValueError unless hs holds at least two distinct spacings, all finite and positive."""
    h = np.ravel(np.asarray(hs, dtype=float))
    if not np.all(np.isfinite(h) & (h > 0)):
        raise ValueError(f"stencil spacings must be finite and positive, got {h.tolist()}")
    if len(set(h.tolist())) < 2:
        raise ValueError(
            f"an observed order needs at least two distinct spacings, got {h.tolist()}")


def _observed_order(errors, hs):
    """Least-squares slope of log error against log h, and whether all errors are below 1e-13.

    The slope is the closed form sum (x - mean x)(y - mean y) / sum (x - mean x)^2.
    An error above the floor that is zero or not finite has no logarithm:
    the order is then NaN, so the check fails.
    """
    errors = np.asarray(errors, dtype=float)
    if np.max(errors) < 1e-13:
        return float("inf"), True
    if not np.all(np.isfinite(errors) & (errors > 0)):
        return float("nan"), False
    x, y = np.log(np.asarray(hs, dtype=float)), np.log(errors)
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x)), False


def _strain(u):
    return tn.sym(pf.jac(u))


# name -> (the field of u that both sides take, its exact Poly3 operator, the
# finite-difference counterpart of that operator)
_OPERATORS = {
    "grad": (lambda u: u[0], pf.grad, fd_grad),
    "jacobian": (lambda u: u, pf.jac, fd_jac),
    "div": (lambda u: u, pf.div, fd_div),
    "curl": (lambda u: u, pf.curl, fd_curl),
    "mat_curl": (_strain, pf.mat_curl, fd_mat_curl),
    "mat_div": (_strain, pf.mat_div, fd_mat_div),
    "second_gradient": (lambda u: u, pf.second_gradient, fd_second_gradient),
}


def operator_names():
    return sorted(_OPERATORS)


def check_operator(name, u, hs=DEFAULT_H, pts=None, min_order=1.9):
    """Compare one exact operator with its finite-difference counterpart.

    ValueError, before any evaluation, unless hs holds at least two
    distinct spacings, all finite and positive.
    """
    _check_spacings(hs)
    if pts is None:
        pts = BASE_LATTICE
    field_of, exact_op, fd_fn = _OPERATORS[pf._choice(name, _OPERATORS, "operator")]
    F = field_of(u)  # formed once for both sides
    exact = pf.eval_fields(exact_op(F), pts)
    approx = fd_fn(F, pts, list(hs))
    errors = [float(np.max(np.abs(a - exact))) for a in approx]
    order, exact_match = _observed_order(errors, hs)
    passed = exact_match or order >= min_order
    return OrderReport(name, errors, list(hs), order, exact_match, passed)


def run_suite(seed=0, trials=10, degree=5, hs=DEFAULT_H, min_order=1.9):
    """Order check of every registered operator on random fields; hs as in `check_operator`.

    trials below 1, degrees below 0 and either one not an integer raise ValueError.
    """
    _check_spacings(hs)
    trials = pf._count(trials, "trials", 1)
    degree = pf._count(degree, "degree", 0)
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        u = pf.random_vec_field(rng, degree)
        for name in operator_names():
            reports.append(check_operator(name, u, hs=hs, min_order=min_order))
    return reports
