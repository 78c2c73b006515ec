"""The gradient operators of `polyfield` against their explicit loops.

`grad`, `jac`, `mat_grad`, `second_gradient` and `strain_gradient` form
their partial-derivative arrays with one builder, and `mat_curl` and
`mat_div` apply `curl` and `div` to each row. The loops below restate the
operators entry by entry, with the same derivatives taken in the same
order; every result must equal them bit for bit (`tobytes` of every
coefficient, and for the dict families also the key order and, for Poly3,
the cap) on Poly3 and TrigPoly fields, on one-field and many-field
`DenseBatch` stacks of both families and on the unit derivative symbols.
"""
import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import tensors as tn
from couplestress.trig import SIN, TrigPoly


# --- the loops, entry by entry ---------------------------------------------


def loop_grad(p):
    return pf.as_vec([p.diff(0), p.diff(1), p.diff(2)])


def loop_jac(u):
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            out[i, j] = u[i].diff(j)
    return out


def loop_mat_grad(P):
    out = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i, j, k] = P[i, j].diff(k)
    return out


def loop_mat_curl(P):
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        row = pf.as_vec([P[i, 0], P[i, 1], P[i, 2]])
        c = pf.curl(row)
        for j in range(3):
            out[i, j] = c[j]
    return out


def loop_mat_div(P):
    return pf.as_vec(
        [P[i, 0].diff(0) + P[i, 1].diff(1) + P[i, 2].diff(2) for i in range(3)])


def loop_second_gradient(u):
    out = np.empty((3, 3, 3), dtype=object)
    for k in range(3):
        for i in range(3):
            d = u[k].diff(i)
            for j in range(3):
                out[k, i, j] = d.diff(j)
    return out


def loop_strain_gradient(u):
    eps = tn.sym(loop_jac(u))
    out = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for k in range(3):
            for l in range(3):
                out[i, k, l] = eps[i, k].diff(l)
    return out


# operator name -> (operator, its loop, the input it takes: "scalar", "vec" or "mat")
OPERATORS = {
    "grad": (pf.grad, loop_grad, "scalar"),
    "jac": (pf.jac, loop_jac, "vec"),
    "mat_grad": (pf.mat_grad, loop_mat_grad, "mat"),
    "mat_curl": (pf.mat_curl, loop_mat_curl, "mat"),
    "mat_div": (pf.mat_div, loop_mat_div, "mat"),
    "second_gradient": (pf.second_gradient, loop_second_gradient, "vec"),
    "strain_gradient": (pf.strain_gradient, loop_strain_gradient, "vec"),
}


# --- bitwise equality of fields ----------------------------------------------


def assert_same_entry(a, b):
    assert type(a) is type(b)
    if isinstance(a, pf.DenseBatch):
        assert a.family is b.family
        assert a.coef.dtype == b.coef.dtype and a.coef.shape == b.coef.shape
        assert a.coef.tobytes() == b.coef.tobytes()
        return
    assert list(a.coef) == list(b.coef)  # the key order
    assert (np.array(list(a.coef.values()), dtype=float).tobytes()
            == np.array(list(b.coef.values()), dtype=float).tobytes())
    if isinstance(a, pf.Poly3):
        assert a.cap == b.cap


def assert_same_field(A, B):
    A, B = np.asarray(A, dtype=object), np.asarray(B, dtype=object)
    assert A.shape == B.shape
    for a, b in zip(A.flat, B.flat):
        assert_same_entry(a, b)


# --- inputs --------------------------------------------------------------------


def random_trig(rng, terms=4, fmax=2):
    coef = {}
    for _ in range(terms):
        key = []
        for _ in range(3):
            kind = int(rng.integers(2))
            key.append((kind, int(rng.integers(1 if kind == SIN else 0, fmax + 1))))
        coef[tuple(key)] = rng.uniform(-1.0, 1.0)
    return TrigPoly(coef)


def trig_mat(rng):
    return pf.as_mat([[random_trig(rng) for _ in range(3)] for _ in range(3)])


def trig_vec(rng):
    return pf.as_vec([random_trig(rng) for _ in range(3)])


def poly_inputs(degree, seed):
    rng = np.random.default_rng(seed)
    return {"scalar": pf.random_poly(rng, degree),
            "vec": pf.random_vec_field(rng, degree),
            "mat": pf.random_mat_field(rng, degree)}


def trig_inputs(seed):
    rng = np.random.default_rng(seed)
    return {"scalar": random_trig(rng), "vec": trig_vec(rng), "mat": trig_mat(rng)}


def batch_inputs(family, n, seed):
    """One field of DenseBatch entries of each shape, holding n fields."""
    rng = np.random.default_rng(seed)
    if family == "poly":
        draw = {"vec": lambda: pf.random_vec_field(rng, 4),
                "mat": lambda: pf.random_mat_field(rng, 4)}
    else:
        draw = {"vec": lambda: trig_vec(rng), "mat": lambda: trig_mat(rng)}
    vec = pf.batch_fields([draw["vec"]() for _ in range(n)])
    mat = pf.batch_fields([draw["mat"]() for _ in range(n)])
    return {"scalar": vec[1], "vec": vec, "mat": mat}


def symbol_inputs():
    """The unit symbols e_d (no derivative yet) and their Jacobian (one derivative)."""
    e = pf.unit_symbols()
    return {"scalar": e[0], "vec": e, "mat": pf.jac(e)}


# --- the operators against their loops -----------------------------------------


@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize("degree", range(6))
def test_operators_match_their_loops_on_poly3(name, degree):
    op, loop, kind = OPERATORS[name]
    for seed in (degree, 10 + degree):
        F = poly_inputs(degree, seed)[kind]
        assert_same_field(op(F), loop(F))


@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_operators_match_their_loops_on_trigpoly(name, seed):
    op, loop, kind = OPERATORS[name]
    F = trig_inputs(seed)[kind]
    assert_same_field(op(F), loop(F))


@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("family", ["poly", "sine"])
def test_operators_match_their_loops_on_batches(name, n, family):
    op, loop, kind = OPERATORS[name]
    F = batch_inputs(family, n, seed=n)[kind]
    assert_same_field(op(F), loop(F))


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_operators_match_their_loops_on_unit_symbols(name):
    op, loop, kind = OPERATORS[name]
    F = symbol_inputs()[kind]
    assert_same_field(op(F), loop(F))


def test_operators_keep_the_constant_zero_and_inf_coefficients():
    inf = float("inf")
    u = pf.as_vec([pf.Poly3({(0, 0, 0): 2.0}), pf.Poly3.zero(),
                   pf.Poly3({(2, 1, 0): inf, (0, 1, 3): -0.5}, cap=5)])
    for name, (op, loop, kind) in OPERATORS.items():
        F = {"scalar": u[2], "vec": u, "mat": tn.outer(u, u)}[kind]
        assert_same_field(op(F), loop(F))


def test_a_third_derivative_of_a_symbol_batch_leaves_the_layout():
    e = pf.unit_symbols()
    pf.second_gradient(e)  # two derivatives fit the layout
    with pytest.raises(ValueError, match="leaves the DerivativeSymbol layout"):
        pf.second_gradient(pf.jac(e)[0])
    with pytest.raises(ValueError, match="leaves the DerivativeSymbol layout"):
        pf.mat_grad(pf.second_gradient(e)[0])


# --- each partial derivative is taken once ----------------------------------------


@pytest.mark.parametrize("name, diffs", [
    ("grad", 3), ("jac", 9), ("mat_grad", 27), ("mat_curl", 18), ("mat_div", 9),
    ("second_gradient", 36), ("strain_gradient", 36),
])
def test_each_operator_takes_as_many_derivatives_as_its_loop(name, diffs, monkeypatch):
    op, loop, kind = OPERATORS[name]
    F = poly_inputs(3, 0)[kind]
    calls = []
    diff = pf.Poly3.diff

    def counted(self, axis):
        calls.append(axis)
        return diff(self, axis)

    monkeypatch.setattr(pf.Poly3, "diff", counted)
    op(F)
    assert len(calls) == diffs
    calls.clear()
    loop(F)
    assert len(calls) == diffs
