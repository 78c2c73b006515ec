"""`polyfield.eval_fields` groups each point set once.

The sort by (z, y), the pair and z indices, the first point of each pair and
the coordinates of the value tables depend on the points alone. They form an
evaluation plan, held per point values: keyed by the dtype and the float64
bytes of the points (never by the padding bytes of a long double), and held
only where float64 holds every point exactly. Each value must stay what
the evaluation loop that grouped the points on every call gave, bit for bit
(restated here as `reference_eval`), for both scalar families, both dtypes,
non-finite coordinates and several blocks; the grid oracle's mutated stencils
and dtypes must get plans of their own, so that the oracle still fails them;
and the cache must stay within its bound.
"""
import numpy as np
import pytest

from couplestress import gridoracle as go
from couplestress import polyfield as pf
from couplestress.trig import TrigPoly

DTYPES = [np.float64, np.longdouble]


def reference_eval(F, pts):
    """The evaluation loop that sorted and grouped the points on every call."""
    F = np.asarray(F, dtype=object)
    family = pf._dense_family(F.flat)
    pts = np.asarray(pts)
    p = pts.reshape(-1, 3).astype(np.result_type(pts.dtype, float), copy=False)
    n, P = F.size, len(p)
    X = pf.FieldStack.of([F]).cubes.astype(p.dtype, copy=False)
    D = X.shape[-1]
    X = X.reshape(n * D * D, D)
    order = np.lexsort((p[:, 1], p[:, 2]))
    p = p.take(order, axis=0)
    new = np.empty((P, 2), dtype=bool)
    new[:1] = True
    np.not_equal(p[1:, 1:], p[:-1, 1:], out=new[1:])
    new[:, 0] |= new[:, 1]
    first = new[:, 0].nonzero()[0]
    ids = np.add.accumulate(new, axis=0, dtype=np.intp) - 1
    pair, z_of = ids[:, 0], ids[:, 1].take(first)
    Q = len(first)
    V = family.dense_values(D, np.concatenate(
        (p[:, 0], p[:, 1].take(first), p[:, 2].compress(new[:, 1]))))
    Vx, Vy, Vz = V[:P], V[P:P + Q], V[P + Q:]
    out = np.empty((P, n), dtype=p.dtype)
    a = 0
    while a < P:
        q0 = pair[a]
        e = min(a + D * pf.EVAL_BLOCK, first[q0 + pf.EVAL_BLOCK] if q0 + pf.EVAL_BLOCK < Q else P)
        q1, z0 = pair[e - 1] + 1, z_of[q0]
        T = np.einsum("zk,mk->zm", Vz[z0:z_of[q1 - 1] + 1], X).reshape(-1, n * D, D)
        T = np.einsum("qmj,qj->qm", T.take(z_of[q0:q1] - z0, axis=0), Vy[q0:q1])
        T = T.reshape(-1, n, D).take(pair[a:e] - q0, axis=0)
        out[order[a:e]] = np.einsum("pni,pi->pn", T, Vx[a:e])
        a = e
    return out.reshape(pts.shape[:-1] + F.shape)


def bits(values):
    """The bytes of an array's values, so that the padding bytes of a long double
    play no part: the exponents and the float64 rounding of the mantissas (in
    [0.5, 1), which keeps a value past the float64 range apart) and of the rest."""
    m, e = np.frexp(values)
    with np.errstate(invalid="ignore"):  # inf - inf in the rest of an inf
        hi = m.astype(np.float64)
        rest = (m - hi).astype(np.float64)
    return values.dtype.str, values.shape, e.tobytes(), hi.tobytes(), rest.tobytes()


@pytest.fixture
def plans(monkeypatch):
    """An empty plan cache for the test, and the list of the point sets planned."""
    monkeypatch.setattr(pf, "_EVAL_PLANS", pf._PlanCache(pf._EVAL_PLAN_POINTS))
    formed = []
    form = pf._form_eval_plan

    def counting(p):
        formed.append(p.copy())
        return form(p)

    monkeypatch.setattr(pf, "_form_eval_plan", counting)
    return formed


def random_trig(rng, shape=(3,), D=5):
    F = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        cube = rng.uniform(-1, 1, (D, D, D))
        cube[rng.uniform(size=cube.shape) < 0.4] = 0.0
        F[idx] = TrigPoly.from_cube(cube)
    return F


def fields(rng):
    return {"poly": pf.random_mat_field(rng, 4), "trig": random_trig(rng, (3, 3))}


def point_sets(rng):
    hs = np.reshape(np.asarray(go.DEFAULT_H), (-1, 1, 1, 1))
    stencil = (go.BASE_LATTICE + hs * go._SECOND[:, None, :]).reshape(-1, 3)
    return {
        "scattered": rng.uniform(-0.5, 1.5, (200, 3)),
        "shared": rng.choice([0.0, 0.25, 0.5, 1.0], (300, 3)),
        "stencil": stencil,
        "signed zeros": rng.choice([-0.0, 0.0, 0.5], (40, 3)),
        "one": rng.uniform(0, 1, 3),
        "none": np.zeros((0, 3)),
    }


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("family", ["poly", "trig"])
def test_values_are_the_reference_loops_bit_for_bit(plans, family, dtype):
    rng = np.random.default_rng(1 + 10 * (family == "trig"))
    F = fields(rng)[family]
    for name, pts in point_sets(rng).items():
        pts = np.asarray(pts, dtype=dtype)
        want = bits(reference_eval(F, pts))
        assert bits(pf.eval_fields(F, pts)) == want, name  # formed
        assert bits(pf.eval_fields(F, pts)) == want, name  # held
    assert len(plans) == len(point_sets(rng))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_give_the_reference_values(plans, dtype, bad):
    rng = np.random.default_rng(3)
    for F in fields(rng).values():
        pts = np.asarray(point_sets(rng)["stencil"][:300], dtype=dtype)
        for axis in range(3):
            P = pts.copy()
            P[rng.choice(len(P), 9, replace=False), axis] = bad
            P[17] = bad
            with np.errstate(invalid="ignore"):  # TrigPoly reduces an inf modulo 2
                want = bits(reference_eval(F, P))
                for _ in range(2):
                    assert bits(pf.eval_fields(F, P)) == want


@pytest.mark.parametrize("block", [1, 2, 5])
def test_several_blocks_give_the_reference_values_from_one_plan(plans, monkeypatch, block):
    rng = np.random.default_rng(block)
    sets = point_sets(rng)
    for F in fields(rng).values():
        for dtype in DTYPES:
            for name, pts in sets.items():
                pts = np.asarray(pts, dtype=dtype)
                whole = pf.eval_fields(F, pts)
                with monkeypatch.context() as m:
                    m.setattr(pf, "EVAL_BLOCK", block)
                    want = bits(reference_eval(F, pts))
                    assert bits(pf.eval_fields(F, pts)) == want, (name, dtype)
                assert bits(whole) == bits(pf.eval_fields(F, pts)), (name, dtype)
    assert len(plans) == 2 * len(sets)  # a plan holds no block


def test_the_blocks_follow_eval_block_on_a_held_plan(plans, monkeypatch):
    rng = np.random.default_rng(4)
    u = pf.random_vec_field(rng, 3)
    pts = np.asarray(point_sets(rng)["stencil"], dtype=np.longdouble)
    pf.eval_fields(u, pts)
    calls = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    counts = []
    for block in (pf.EVAL_BLOCK, 64, 1):
        monkeypatch.setattr(pf, "EVAL_BLOCK", block)
        calls.clear()
        want = bits(reference_eval(u, pts))
        blocks = len(calls)
        calls.clear()
        assert bits(pf.eval_fields(u, pts)) == want
        assert len(calls) == blocks
        counts.append(blocks // 3)
    assert counts[0] < counts[1] < counts[2] and counts[2] >= 193  # 193 (y, z) pairs
    assert len(plans) == 1


def test_long_doubles_that_differ_only_in_padding_share_one_plan(plans):
    info = np.finfo(np.longdouble)
    if info.nmant != 63 or np.dtype(np.longdouble).itemsize <= 10:
        pytest.skip("long double has no padding bytes here")
    rng = np.random.default_rng(5)
    a = np.asarray(point_sets(rng)["stencil"], dtype=np.longdouble)
    b = a.copy()
    pad = b.view(np.uint8).reshape(-1, np.dtype(np.longdouble).itemsize)[:, 10:]
    pad[:] = rng.integers(0, 256, pad.shape, dtype=np.uint8)
    assert np.array_equal(a, b) and a.tobytes() != b.tobytes()
    u = pf.random_vec_field(rng, 4)
    assert bits(pf.eval_fields(u, a)) == bits(pf.eval_fields(u, b)) == bits(reference_eval(u, a))
    assert len(plans) == 1 and len(pf._EVAL_PLANS.plans) == 1


def test_long_doubles_that_float64_does_not_hold_are_planned_on_every_call(plans):
    rng = np.random.default_rng(6)
    a = np.asarray(rng.choice([0.25, 0.5, 0.75], (60, 3)), dtype=np.longdouble)
    b = a.copy()
    b[7, 1] += np.finfo(np.float64).eps / 16 * b[7, 1]  # lost in the float64 rounding
    if b[7, 1] == a[7, 1]:
        pytest.skip("long double is plain double here")
    assert np.array_equal(a.astype(np.float64), b.astype(np.float64))
    u = pf.random_vec_field(rng, 3)
    for pts in (a, b, a, b):
        assert bits(pf.eval_fields(u, pts)) == bits(reference_eval(u, pts))
    assert len(plans) == 3 and len(pf._EVAL_PLANS.plans) == 1  # a is held, b never


def test_long_doubles_past_the_float64_range_are_planned_on_every_call_silently(plans):
    big = np.longdouble("1e400")
    if not np.isfinite(big):
        pytest.skip("long double has the float64 range here")
    u = pf.Poly3({(0, 0, 0): 1.0, (1, 1, 0): 1.0, (0, 0, 2): -0.5})
    a = np.array([[big, 0.5, 0.25], [2 * big, 0.5, 0.25], [0.5, 0.75, big]], dtype=np.longdouble)
    b = np.where(a > 1, 3 * a, a)
    for pts in (a, b, a):
        assert bits(pf.eval_fields(u, pts)) == bits(reference_eval(u, pts))
    assert len(plans) == 3 and not pf._EVAL_PLANS.plans  # each big coordinate rounds to inf


def test_signed_zeros_get_their_own_plans(plans):
    pts = np.array([[0.5, 0.0, 0.25], [0.5, 0.0, 0.75]])
    neg = pts.copy()
    neg[:, 1] = -0.0
    u = pf.random_vec_field(np.random.default_rng(7), 3)
    for P in (pts, neg, pts, neg):
        assert bits(pf.eval_fields(u, P)) == bits(reference_eval(u, P))
    assert len(plans) == 2


def test_a_held_plan_does_not_follow_points_changed_in_place(plans):
    rng = np.random.default_rng(8)
    pts = np.asarray(point_sets(rng)["stencil"], dtype=np.longdouble)
    u = pf.random_vec_field(rng, 4)
    pf.eval_fields(u, pts)
    pts[::5, 2] += 0.125
    assert bits(pf.eval_fields(u, pts)) == bits(reference_eval(u, pts))
    assert len(plans) == 2
    # a change below the float64 rounding keeps the key: the held points decide
    pts[3, 0] += np.finfo(np.float64).eps / 16 * pts[3, 0]
    if not np.array_equal(pts.astype(np.float64), pts):
        assert bits(pf.eval_fields(u, pts)) == bits(reference_eval(u, pts))
        assert len(plans) == 3


@pytest.mark.parametrize("dtype", DTYPES)
def test_nan_points_are_held_by_their_bytes_in_float64_only(plans, dtype):
    pts = point_sets(np.random.default_rng(9))["shared"].copy()
    pts[3, 0] = np.nan
    pts = np.asarray(pts, dtype=dtype)
    u = pf.random_vec_field(np.random.default_rng(9), 3)
    for _ in range(3):
        assert bits(pf.eval_fields(u, pts)) == bits(reference_eval(u, pts))
    # float64 keys a NaN by its bytes; a long double NaN equals no float64
    assert len(plans) == (1 if dtype == np.float64 else 3)


def _held():
    points = sum(len(plan.order) for plan in pf._EVAL_PLANS.plans.values())
    assert points == pf._EVAL_PLANS.pairs
    return points


def test_the_cache_stays_within_its_bound_under_one_off_point_sets(plans, monkeypatch):
    monkeypatch.setattr(pf, "_EVAL_PLANS", pf._PlanCache(500))
    rng = np.random.default_rng(10)
    u = pf.random_vec_field(rng, 3)
    for _ in range(120):
        pts = rng.uniform(0, 1, (int(rng.integers(1, 80)), 3))
        dtype = DTYPES[int(rng.integers(2))]
        pts = np.asarray(pts, dtype=dtype)
        assert bits(pf.eval_fields(u, pts)) == bits(reference_eval(u, pts))
        assert _held() <= 500
    assert pf._EVAL_PLANS.plans


def test_a_set_past_the_bound_is_never_held(plans, monkeypatch):
    monkeypatch.setattr(pf, "_EVAL_PLANS", pf._PlanCache(100))
    u = pf.random_vec_field(np.random.default_rng(11), 3)
    small = np.random.default_rng(11).uniform(0, 1, (100, 3))
    pf.eval_fields(u, small)
    pts = np.random.default_rng(12).uniform(0, 1, (101, 3))
    for _ in range(2):
        assert bits(pf.eval_fields(u, pts)) == bits(reference_eval(u, pts))
    assert len(plans) == 3 and len(list(pf._EVAL_PLANS.plans.values())[0].order) == 100
    assert _held() == 100


# --- the grid oracle: each stencil table and dtype gets its own plans -------------


def _fields():
    rng = np.random.default_rng(11)
    return [pf.random_vec_field(rng, d) for d in (3, 4, 5)]


def test_the_oracle_plans_each_of_its_three_point_sets_once(plans):
    for u in _fields():
        for name in go.operator_names():
            assert go.check_operator(name, u).passed
    kinds = sorted((p.dtype.str, len(p)) for p in plans)
    ld = np.dtype(go.STENCIL_DTYPE).str
    assert kinds == sorted([("<f8", 27), (ld, 27 * 6 * 3), (ld, 27 * 19 * 3)])


@pytest.mark.parametrize("mutation", ["wrong-axis", "sign-flip"])
def test_mutated_first_differences_get_their_own_plan_and_fail(plans, monkeypatch, mutation):
    u = _fields()
    for v in u:
        assert go.check_operator("curl", v).passed
    before = len(plans)
    plus, minus = go._FIRST[:3], go._FIRST[3:]
    if mutation == "wrong-axis":
        table = np.concatenate([np.roll(plus, 1, axis=0), np.roll(minus, 1, axis=0)])
    else:
        table = np.concatenate([minus, plus])
    monkeypatch.setattr(go, "_FIRST", table)
    for v in u:
        for name in ("grad", "jacobian", "div", "curl", "mat_curl", "mat_div"):
            assert not go.check_operator(name, v).passed, name
    assert len(plans) == before + 1


def test_a_mutated_second_difference_gets_its_own_plan_and_fails(plans, monkeypatch):
    u = _fields()
    for v in u:
        assert go.check_operator("second_gradient", v).passed
    before = len(plans)
    table = go._SECOND.copy()
    table[7:] = table[7:].reshape(3, 4, 3)[:, [1, 0, 3, 2]].reshape(12, 3)
    monkeypatch.setattr(go, "_SECOND", table)
    for v in u:
        assert not go.check_operator("second_gradient", v).passed
    assert len(plans) == before + 1


def test_double_stencils_get_their_own_plan_and_fail(plans, monkeypatch):
    u = pf.random_vec_field(np.random.default_rng(3), 3)
    assert go.check_operator("second_gradient", u).passed
    monkeypatch.setattr(go, "STENCIL_DTYPE", np.float64)
    assert not go.check_operator("second_gradient", u).passed
    assert [p.dtype for p in plans[-1:]] == [np.float64] and len(plans) == 3
