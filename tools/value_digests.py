"""Print a SHA-256 digest of each library result listed in VALUES, one line per result.

Usage (from the root of a checkout):

    python3 tools/value_digests.py [SEED ...]      # seeds default to 0 3

What `report_digests.py` does for the CLI reports this does for library
values, with the package from the `src/` directory beside this script. Each
VALUES entry is a name and a function of a seeded generator; its result is
written to bytes (every float by its eight IEEE bytes, every field by its keys
in dict order, its cap and its coefficients) and one line `name seed sha256`
is printed per result. The results are:

  - the functions whose field algebra is an object-array expression:
    `conformal.conformal_map` and `relations_report` (also on a map with a NaN
    coefficient), `lift.apply_flat` and `roundtrip_gap` with both sign
    conventions, and `micromorphic.invariance_gap` of every model;
  - the energy registry (each density and its box integral) and the five
    writings of the curvature density, at a material away from the default;
  - `stresses.structure_report`;
  - the face and volume works of `tractions`: `face_work_comparison` on the
    `face_bump` of each face, `closed_boundary_work` on both routes and
    `volume_virtual_work` of one random test field;
  - the three values of a `lift-check` trial (both round trips and the
    energy equality) of one field, read in one call scope;
  - `solver.sym_curl_bound_ratio`;
  - `micromorphic.force_stress` of each model with a solver, and
    `conformal.elastic_density_identity_gap`;
  - the identity-suite magnitudes at 1, 128 and 129 trials (one block, a full
    block, a full block and one more trial);
  - `solver.assemble` K and G at bubble orders 1 to 3;
  - `solver.manufactured_load` (the coefficients of f, and b) of a random
    displacement of the basis at bubble orders 1 to 3 and sine order 2, and
    `solver.load_vector` of the CLI's generic load at bubble order 2 and of a
    random TrigPoly load at sine order 2;
  - `solver.recovery_error` of the solve of a random displacement of the
    basis at bubble orders 1 to 4 and sine order 2, and of exact recovery;
  - `polyfield.batch_gram` of two batched stacks on different layouts (one
    padded to the other's layout), and of one stack with itself;
  - the order-2 coupled Grams of every model with a solver (cosserat and
    microstrain on one line, micromorphic, relaxed and further-relaxed on
    another), and the order-3 coupled Grams of cosserat;
  - the kept rank of the companion span of each companion class (cosserat
    skew, microstrain symmetric, relaxed full) at bubble orders 1 to 3;
  - the coefficient cubes of the companion spans of cosserat and microstrain
    at bubble orders 2 and 3, so that a roundoff move of a span (of its
    candidate Gram or eigenvectors) shows as one line;
  - `polyfield.dense_gram` of stacks of 65 fields with interleaved all-zero
    fields and one NaN field, which no coupled Gram has: three fields paired
    with themselves and against another such stack, and symmetric 3x3 fields
    paired with themselves (folded);
  - the grid oracle: every report of `gridoracle.run_suite` (errors, observed
    order and flags) at degrees 2 to 6, and every operator's
    `gridoracle.check_operator` report on a lattice of 20 scattered points
    with the spacings (0.1, 0.05, 0.025);
  - `polyfield.eval_fields` of a Poly3 vector field and a TrigPoly matrix
    field on scattered points, on points that share coordinates, and on
    points whose x repeat among a few values with -0.0, 0.0 and NaN, each in
    float64 and in long double (a long double array is written as its
    float64 rounding and the float64 rounding of the rest, never by its
    padding bytes);
  - `polyfield.max_abs_coeff` of 3x3 fields holding a NaN, an inf, a -inf,
    and a NaN beside an inf coefficient.

Two checkouts compute the same values bit for bit exactly when the two
outputs are equal:

    python3 tools/value_digests.py 0 3 > after.txt
    (cd ../parent && python3 tools/value_digests.py 0 3) > before.txt
    diff before.txt after.txt
"""
from __future__ import annotations

import dataclasses
import hashlib
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from couplestress import cli  # noqa: E402
from couplestress import conformal as cf  # noqa: E402
from couplestress import energies as en  # noqa: E402
from couplestress import gridoracle as go  # noqa: E402
from couplestress import identities as idn  # noqa: E402
from couplestress import lift as lf  # noqa: E402
from couplestress import micromorphic as mm  # noqa: E402
from couplestress import polyfield as pf  # noqa: E402
from couplestress import solver as sv  # noqa: E402
from couplestress import stresses as st  # noqa: E402
from couplestress import tensors as tn  # noqa: E402
from couplestress import tractions as tr  # noqa: E402
from couplestress.trig import TrigPoly  # noqa: E402

MATERIAL = en.Material(mu=1.3, lam=0.7, alpha1=0.9, alpha2=0.4, ell=0.8)
SOLVE_MATERIAL = en.Material(1.0, 1.0, 1.0, 0.0, 1.0)


def encode(x, out):
    """Append the bytes of x to the list out."""
    if isinstance(x, dict):
        out.append(b"{%d" % len(x))
        for k, v in x.items():
            encode(k, out)
            encode(v, out)
    elif isinstance(x, (list, tuple)):
        out.append(b"[%d" % len(x))
        for v in x:
            encode(v, out)
    elif isinstance(x, np.ndarray) and x.dtype == object:
        out.append(repr(x.shape).encode())
        for v in x.ravel():
            encode(v, out)
    elif isinstance(x, np.ndarray) and x.dtype == np.longdouble:
        hi = x.astype(np.float64)
        encode([hi, (x - hi).astype(np.float64)], out)
    elif isinstance(x, np.ndarray):
        out += [f"{x.dtype.str}{x.shape}".encode(), np.ascontiguousarray(x).tobytes()]
    elif isinstance(x, pf.ScalarField):
        out.append(f"{type(x).__name__} {getattr(x, 'cap', None)} {list(x.coef)}".encode())
        out.append(np.array(list(x.coef.values()), dtype=float).tobytes())
    elif isinstance(x, (float, np.floating)):
        out.append(struct.pack("<d", float(x)))
    elif isinstance(x, (str, int, bool, type(None))):
        out.append(repr(x).encode())
    elif dataclasses.is_dataclass(x):
        encode({f.name: getattr(x, f.name) for f in dataclasses.fields(x)}, out)
    else:
        raise TypeError(f"no encoding for {type(x).__name__}")


def with_nan(field, key):
    """The field with one more NaN coefficient in its first component."""
    field = field.copy()
    field[0] = field[0] + pf.Poly3({key: float("nan")})
    return field


def conformal_data(rng):
    """W, p, A and b of one map, W and A skew."""
    W = tn.anti(rng.uniform(-1.0, 1.0, 3))
    A = tn.anti(rng.uniform(-1.0, 1.0, 3))
    return W, float(rng.uniform(-1.0, 1.0)), A, rng.uniform(-1.0, 1.0, 3)


def relations(rng, nan=False):
    phi, params = cf.random_conformal(rng)
    if nan:
        phi = with_nan(phi, (0, 2, 1))
    with np.errstate(invalid="ignore"):
        return cf.relations_report(phi, params)


def roundtrip(rng, nan=False):
    u = pf.random_vec_field(rng, 4)
    if nan:
        u = with_nan(u, (2, 1, 1))
    with np.errstate(invalid="ignore"):
        return [lf.roundtrip_gap(u, signs) for signs in ("corrected", "printed")]


def apply_flat(rng):
    T = lf.second_gradient_flat(pf.random_vec_field(rng, 4))
    return [lf.apply_flat(lf.reconstruction_matrix(signs) @ lf.halfsym_matrix(), T)
            for signs in ("corrected", "printed")]


def companion(model, rng):
    return {"skew": pf.random_skw_mat_field, "sym": pf.random_sym_mat_field,
            "full": pf.random_mat_field}[mm.companion_class(model)](rng, 3)


def invariance_gaps(rng):
    params = mm.MicromorphicParams(alpha3=0.2)
    return [mm.invariance_gap(pf.random_vec_field(rng, 3), companion(model, rng), model,
                              params, rng) for model in mm.MODEL_IDS]


def lift_check_values(rng):
    """The three checks of one `lift-check` trial, sharing one state of u."""
    u = pf.random_vec_field(rng, 4)
    C = lf.sixth_order_isotropic(1.0, 0.0)
    with en._derived_fields(u):
        return [lf.roundtrip_gap(u, "corrected"), lf.roundtrip_gap(u, "printed"),
                lf.verify_energy_equality(u, 1.0, 0.0, C)]


def registry(rng):
    u = pf.random_vec_field(rng, 4)
    return {name: en.evaluate_model(name, u, MATERIAL) for name in en.MODEL_REGISTRY}


def suite(trials):
    """The identity-suite reports (each with its magnitude) at trials trials."""
    return lambda rng: idn.run_suite(int(rng.integers(1 << 30)), trials=trials, degree=4)


def tractions_work(rng):
    state = st.assemble(pf.random_vec_field(rng, 4), MATERIAL)
    test = pf.random_vec_field(rng, 3)
    faces = [tr.face_work_comparison(state, face, tr.face_bump(face, (face.axis + 1) % 3))
             for face in tr.ALL_FACES]
    return faces + [tr.closed_boundary_work(state, test, route) for route in ("curl", "axl")] \
        + [tr.volume_virtual_work(state, test)]


def force_stresses(rng):
    params = mm.MicromorphicParams(penalty=3.0, alpha3=0.2)
    return [mm.force_stress(pf.random_vec_field(rng, 3), companion(model, rng), model, params)
            for model in mm.MODEL_IDS if mm._model(model)[5] != "evaluator"]


def elastic_identity_gap(rng):
    return cf.elastic_density_identity_gap(cf.random_conformal(rng)[0], MATERIAL)


def assembled(rng):
    out = []
    for order in (1, 2, 3):
        asm = sv.assemble(sv.bubble_basis(order), SOLVE_MATERIAL)
        out += [asm.K, asm.G]
    return out


def manufactured_loads(rng):
    out = []
    for basis in [sv.bubble_basis(order) for order in (1, 2, 3)] + [sv.sine_basis(2)]:
        u_star = sv.displacement(basis, rng.uniform(-1.0, 1.0, len(basis)))
        out += sv.manufactured_load(basis, u_star, SOLVE_MATERIAL)
    return out


def recovery_errors(rng):
    """The solve's recovery error of a random displacement of each basis, then
    exact recovery (c = c*) on the last basis."""
    out = []
    for basis in [sv.bubble_basis(order) for order in (1, 2, 3, 4)] + [sv.sine_basis(2)]:
        c_star = rng.uniform(-1.0, 1.0, len(basis))
        u_star = sv.displacement(basis, c_star)
        _, b = sv.manufactured_load(basis, u_star, SOLVE_MATERIAL)
        rep = sv.solve(sv.assemble(basis, SOLVE_MATERIAL), b)
        out.append(sv.recovery_error(basis, rep.coefficients, u_star))
    out.append(sv.recovery_error(basis, c_star, u_star))
    return out


def load_vectors(rng):
    cube = rng.uniform(-1.0, 1.0, (3, 5, 5, 5))
    cube[rng.uniform(size=cube.shape) < 0.4] = 0.0
    f = pf.as_vec([TrigPoly.from_cube(c) for c in cube])
    return [sv.load_vector(sv.bubble_basis(2), cli._generic_load()),
            sv.load_vector(sv.sine_basis(2), f)]


def padded_batch_grams(rng):
    A = pf.batch_fields([pf.random_mat_field(rng, 2) for _ in range(5)])
    B = pf.batch_fields([pf.random_mat_field(rng, 4) for _ in range(7)])
    return [pf.batch_gram(A, B), pf.batch_gram(B, A), pf.batch_gram(A)]


def coupled_grams(models, order):
    def grams(rng):
        basis = sv.bubble_basis(order)
        return [mm.coupled_operator_grams(model, basis, mm.companion_basis(model, basis))
                for model in models]
    return grams


def companion_spans(order):
    def spans(rng):
        basis = sv.bubble_basis(order)
        return [mm.companion_basis(model, basis).cubes for model in ("cosserat", "microstrain")]
    return spans


def grams_among_zeros(rng):
    M = pf.Poly3.dense_moments(4)

    def stack(entries, zeros):
        X = rng.uniform(-1.0, 1.0, (65,) + entries + (4, 4, 4))
        if entries == (3, 3):
            X = X + X.transpose(0, 2, 1, 3, 4, 5)
        X[zeros] = 0.0
        X.reshape(65, -1)[32, 7] = np.nan  # a coefficient of entry 0 of field 32
        return X

    X, Y = stack((3,), slice(1, None, 4)), stack((3,), slice(2, None, 5))
    S = stack((3, 3), [0, 9, 64])
    with np.errstate(invalid="ignore"):
        return [pf.dense_gram(X, M), pf.dense_gram(X, M, Y), pf.dense_gram(S, M)]


def oracle_suites(rng):
    return [go.run_suite(int(rng.integers(1 << 30)), trials=2, degree=degree)
            for degree in range(2, 7)]


def trig_matrix(rng):
    """A TrigPoly matrix field with about 40% of its cube entries zero."""
    cube = rng.uniform(-1.0, 1.0, (3, 3, 5, 5, 5))
    cube[rng.uniform(size=cube.shape) < 0.4] = 0.0
    return pf.as_mat([[TrigPoly.from_cube(cube[i, j]) for j in range(3)] for i in range(3)])


def evaluations(rng):
    u = pf.random_vec_field(rng, 4)
    T = trig_matrix(rng)
    scattered = rng.uniform(-0.5, 1.5, (300, 3))
    shared = rng.choice([0.0, 0.125, 0.5, 0.75, 1.0], (400, 3))
    return [pf.eval_fields(F, np.asarray(pts, dtype=dtype)) for F in (u, T)
            for pts in (scattered, shared) for dtype in (np.float64, np.longdouble)]


def evaluations_on_repeated_x(rng):
    """eval_fields on points whose x repeat among a few values, -0.0, 0.0 and NaN
    among them, with signed zeros and NaN in y and z too."""
    u = pf.random_vec_field(rng, 4)
    T = trig_matrix(rng)
    pts = rng.uniform(-0.5, 1.5, (300, 3))
    pts[:, 0] = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0, -0.75, np.nan], 300)
    pts[::7, 1] = rng.choice([-0.0, 0.0, np.nan], 43)
    pts[::11, 2] = rng.choice([-0.0, 0.0, 0.5], 28)
    with np.errstate(invalid="ignore"):  # TrigPoly reduces a NaN modulo 2
        return [pf.eval_fields(F, np.asarray(pts, dtype=dtype)) for F in (u, T)
                for dtype in (np.float64, np.longdouble)]


def oracle_checks(rng):
    """Every operator's check on a lattice of 20 scattered points and non-dyadic spacings."""
    u = pf.random_vec_field(rng, 5)
    pts = rng.uniform(0.2, 0.8, (20, 3))
    return [go.check_operator(name, u, hs=(0.1, 0.05, 0.025), pts=pts)
            for name in go.operator_names()]


def maxima(rng):
    fields = []
    for bad in ([np.nan], [np.inf], [-np.inf], [np.nan, np.inf]):
        F = pf.random_mat_field(rng, 3)
        for value in bad:
            i, j = rng.integers(3, size=2)
            F[i, j] = F[i, j] + pf.Poly3({tuple(rng.integers(4, size=3)): value})
        fields.append(F)
    with np.errstate(invalid="ignore"):
        return [pf.max_abs_coeff(F) for F in fields]


def kept_ranks(rng):
    return [len(mm.companion_basis(model, sv.bubble_basis(order)))
            for order in (1, 2, 3) for model in ("cosserat", "microstrain", "relaxed")]


VALUES = [
    ("conformal_map", lambda rng: cf.conformal_map(*conformal_data(rng))),
    ("relations_report", relations),
    ("relations_report+nan", lambda rng: relations(rng, nan=True)),
    ("apply_flat", apply_flat),
    ("roundtrip_gap", roundtrip),
    ("roundtrip_gap+nan", lambda rng: roundtrip(rng, nan=True)),
    ("invariance_gap", invariance_gaps),
    ("energy_registry", registry),
    ("five_forms", lambda rng: en.five_form_densities(pf.random_vec_field(rng, 4), MATERIAL)),
    ("structure_report",
     lambda rng: st.structure_report(st.assemble(pf.random_vec_field(rng, 4), MATERIAL))),
    ("tractions_work", tractions_work),
    ("lift_check_values", lift_check_values),
    ("sym_curl_bound_ratio",
     lambda rng: sv.sym_curl_bound_ratio(int(rng.integers(1 << 30)), trials=20, degree=4)),
    ("force_stress", force_stresses),
    ("elastic_density_identity_gap", elastic_identity_gap),
    ("identity_suite+trials1", suite(1)),
    ("identity_suite+trials128", suite(128)),
    ("identity_suite+trials129", suite(129)),
    ("assemble_K_G", assembled),
    ("manufactured_load", manufactured_loads),
    ("load_vector", load_vectors),
    ("recovery_error", recovery_errors),
    ("batch_gram+padded", padded_batch_grams),
    ("coupled_grams+order2", coupled_grams(("cosserat", "microstrain"), 2)),
    ("coupled_grams+order2+full",
     coupled_grams(("micromorphic", "relaxed", "further-relaxed"), 2)),
    ("coupled_grams+order3", coupled_grams(("cosserat",), 3)),
    ("companion_kept_ranks", kept_ranks),
    ("companion_span+order2", companion_spans(2)),
    ("companion_span+order3", companion_spans(3)),
    ("dense_gram+zeros", grams_among_zeros),
    ("gridoracle_suite", oracle_suites),
    ("eval_fields", evaluations),
    ("eval_fields+repeated_x", evaluations_on_repeated_x),
    ("gridoracle_check+lattice", oracle_checks),
    ("max_abs_coeff+nonfinite", maxima),
]


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    seeds = [int(s) for s in args] or [0, 3]
    for seed in seeds:
        for name, value in VALUES:
            out = []
            encode(value(np.random.default_rng(seed)), out)
            print(f"{name} {seed} {hashlib.sha256(b''.join(out)).hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
