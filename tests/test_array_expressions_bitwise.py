"""The field algebra written as array expressions gives the bits of the per-entry loops.

`conformal.relations_report`, `conformal.conformal_map`, `lift.apply_flat`,
`lift.roundtrip_gap`, `micromorphic.invariance_gap` and the traction-compare
frozen gap are array expressions over object arrays of fields. Each is compared
here with its per-entry loop, restated, on finite fields and on fields and data
that hold -0.0, +-inf and NaN: same keys in the same order, same caps, same
float bytes.
"""
import json
import math

import numpy as np
import pytest

from couplestress import cli
from couplestress import conformal as cf
from couplestress import energies as en
from couplestress import lift as lf
from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import tensors as tn
from couplestress import tractions as tr
from couplestress.polyfield import Poly3

INF, NAN = float("inf"), float("nan")
SPECIALS = {"finite": None, "nan": NAN, "inf": INF, "-inf": -INF}


def bits(x):
    return np.float64(x).tobytes()


def same(a, b):
    """Equal fields, arrays of fields, floats or dicts of them, bit for bit."""
    if isinstance(a, dict):
        assert list(a) == list(b)
        for k in a:
            same(a[k], b[k])
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape
        for p, q in zip(a.ravel(), b.ravel()):
            same(p, q)
    elif isinstance(a, Poly3):
        assert type(b) is Poly3 and list(a.coef) == list(b.coef) and a.cap == b.cap
        assert [bits(v) for v in a.coef.values()] == [bits(v) for v in b.coef.values()]
    else:
        assert type(a) is type(b) and bits(a) == bits(b)


def spiked(p, key, value):
    """p with one more coefficient value at key (none if value is None)."""
    return p if value is None else p + Poly3({key: value})


# --- the per-entry loops ------------------------------------------------------------


def conformal_map_loops(W, p=0.0, A=None, b=None):
    A = np.zeros((3, 3)) if A is None else np.asarray(A, dtype=float)
    b = np.zeros(3) if b is None else np.asarray(b, dtype=float)
    w = tn.axl(W)
    X = [Poly3.variable(ax) for ax in range(3)]
    wdotx = X[0] * w[0] + X[1] * w[1] + X[2] * w[2]
    half_norm = (X[0] * X[0] + X[1] * X[1] + X[2] * X[2]) * 0.5
    comps = []
    for i in range(3):
        lin = X[0] * A[i, 0] + X[1] * A[i, 1] + X[2] * A[i, 2]
        comps.append(wdotx * X[i] - half_norm * w[i] + X[i] * p + lin + float(b[i]))
    return pf.as_vec(comps)


def relations_report_loops(phi, params):
    W, w, p = params.W, params.w, params.p
    s = en._state(phi)
    J = s.jacobian
    X = [Poly3.variable(ax) for ax in range(3)]
    wdotx_p = X[0] * w[0] + X[1] * w[1] + X[2] * w[2] + p
    expected = np.empty((3, 3), dtype=object)
    Wx = [X[0] * W[i, 0] + X[1] * W[i, 1] + X[2] * W[i, 2] for i in range(3)]
    spin = tn.anti(pf.as_vec(Wx))
    for i in range(3):
        for j in range(3):
            e = spin[i, j] + float(params.A[i, j])
            if i == j:
                e = e + wdotx_p
            expected[i, j] = e
    grad_gap = pf.max_abs_coeff_mat(
        np.array([[J[i, j] - expected[i, j] for j in range(3)] for i in range(3)], dtype=object))
    gc = s.grad_curl
    gc_gap = float(np.max(
        [(gc[i, j] - 2.0 * W[i, j]).max_abs_coeff() for i in range(3) for j in range(3)]))
    return {"grad-closed-form": grad_gap,
            "div-closed-form": (s.div - wdotx_p * 3.0).max_abs_coeff(),
            "grad-curl-constant": gc_gap}


def apply_flat_loops(M, field_flat):
    out = np.empty(27, dtype=object)
    for r in range(27):
        acc = Poly3.zero()
        for c in np.nonzero(M[r])[0]:
            acc = acc + field_flat[c] * float(M[r, c])
        out[r] = acc
    return out


def roundtrip_gap_loops(u, signs):
    T = lf.second_gradient_flat(u)
    back = apply_flat_loops(lf.reconstruction_matrix(signs) @ lf.halfsym_matrix(), T)
    return float(np.max([(back[r] - T[r]).max_abs_coeff() for r in range(27)]))


def invariance_gap_loops(u, P, model, params, rng):
    W = tn.anti(rng.uniform(-1.0, 1.0, 3))
    Wpp = tn.anti(rng.uniform(-1.0, 1.0, 3))
    bvec = rng.uniform(-1.0, 1.0, 3)
    X = [Poly3.variable(ax) for ax in range(3)]
    u2 = pf.as_vec([u[i] + X[0] * W[i, 0] + X[1] * W[i, 1] + X[2] * W[i, 2] + float(bvec[i])
                    for i in range(3)])
    shift = {"same": W, "independent": Wpp, "none": np.zeros((3, 3))}
    P2 = P + shift[mm.invariance_shift_kind(model)]
    before = mm.micromorphic_energy(u, P, model, params)
    after = mm.micromorphic_energy(u2, P2, model, params)
    return (after - before).max_abs_coeff()


# --- the comparisons -----------------------------------------------------------------


@pytest.fixture(autouse=True)
def quiet():
    # inf - inf inside an object-array loop sets the invalid flag; the NaN it
    # makes is the value compared
    with np.errstate(invalid="ignore", over="ignore"):
        yield


def signed_zero_data(rng):
    """Map data with -0.0 entries: W and A skew, p and b."""
    v = rng.uniform(-1.0, 1.0, 3)
    v[1] = -0.0
    a = rng.uniform(-1.0, 1.0, 3)
    a[0] = -0.0
    b = rng.uniform(-1.0, 1.0, 3)
    b[2] = -0.0
    return tn.anti(v), -0.0, tn.anti(a), b


@pytest.mark.parametrize("seed", range(6))
def test_conformal_map(seed):
    rng = np.random.default_rng(seed)
    W, p, A, b = signed_zero_data(rng) if seed % 2 else (
        tn.anti(rng.uniform(-1, 1, 3)), float(rng.uniform(-1, 1)),
        tn.anti(rng.uniform(-1, 1, 3)), rng.uniform(-1, 1, 3))
    same(cf.conformal_map(W, p, A, b)[0], conformal_map_loops(W, p, A, b))


@pytest.mark.parametrize("special", sorted(SPECIALS))
@pytest.mark.parametrize("seed", range(4))
def test_relations_report(seed, special):
    rng = np.random.default_rng(seed)
    if seed % 2:
        phi, params = cf.conformal_map(*signed_zero_data(rng))
    else:
        phi, params = cf.random_conformal(rng)
    phi[seed % 3] = spiked(phi[seed % 3], (0, 2, 1), SPECIALS[special])
    got = cf.relations_report(phi, params)
    want = relations_report_loops(phi, params)
    same({k: got[k] for k in want}, want)


@pytest.mark.parametrize("special", sorted(SPECIALS))
@pytest.mark.parametrize("signs", ["corrected", "printed"])
@pytest.mark.parametrize("seed", range(3))
def test_apply_flat_and_roundtrip_gap(seed, signs, special):
    u = pf.random_vec_field(np.random.default_rng(seed), 3)
    u[seed % 3] = spiked(u[seed % 3], (2, 1, 1), SPECIALS[special])
    M = lf.reconstruction_matrix(signs) @ lf.halfsym_matrix()
    T = lf.second_gradient_flat(u)
    same(lf.apply_flat(M, T), apply_flat_loops(M, T))
    same(lf.roundtrip_gap(u, signs), roundtrip_gap_loops(u, signs))


def companion(model, rng):
    cls = mm.companion_class(model)
    if cls == "skew":
        return pf.random_skw_mat_field(rng, 2)
    if cls == "sym":
        return pf.random_sym_mat_field(rng, 2)
    return pf.random_mat_field(rng, 2)


@pytest.mark.parametrize("special", sorted(SPECIALS))
@pytest.mark.parametrize("model", mm.MODEL_IDS)
def test_invariance_gap(model, special):
    rng = np.random.default_rng(len(model))
    u = pf.random_vec_field(rng, 2)
    u[0] = spiked(u[0], (0, 1, 1), SPECIALS[special])
    P = companion(model, rng)
    params = mm.MicromorphicParams(alpha3=0.2)
    got = mm.invariance_gap(u, P, model, params, np.random.default_rng(7))
    same(got, invariance_gap_loops(u, P, model, params, np.random.default_rng(7)))


def frozen_gap_loops(g, along, expected):
    return float(np.max([(p - (expected if i == along else 0.0)).max_abs_coeff()
                         for i, p in enumerate(g)]))


@pytest.mark.parametrize("special", sorted(SPECIALS))
@pytest.mark.parametrize("face", range(6))
def test_traction_compare_frozen_gaps(tmp_path, monkeypatch, face, special):
    face = tr.ALL_FACES[face]
    along = (face.axis + 1) % 3
    real = tr.compare_double_forces
    seen = {}

    def spiking(state, f):
        cmp = dict(real(state, f))
        for label in ("curl", "axl-appendix"):
            vec = list(cmp[label])
            vec[along] = spiked(vec[along], (0, 0, 0), SPECIALS[special])
            cmp[label] = vec
        seen.update({label: [f.restrict(p) for p in cmp[label]]
                     for label in ("curl", "axl-appendix")})
        return cmp

    monkeypatch.setattr(tr, "compare_double_forces", spiking)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"face": {"axis": face.axis, "value": face.value}}))
    out = tmp_path / "report.json"
    cli.main(["traction-compare", "--config", str(cfg), "--format", "json", "--out", str(out)])
    checks = {c["name"]: c["value"] for c in json.loads(out.read_text())["checks"]}
    for name, label, expected in (("curl-double-force-frozen", "curl", 0.5),
                                  ("appendix-double-force-frozen", "axl-appendix", -0.5)):
        want = frozen_gap_loops(seen[label], along, expected)
        got = float(checks[name])  # a report writes a non-finite value as "nan" or "inf"
        assert (math.isnan(got) and math.isnan(want)) or bits(got) == bits(want)
