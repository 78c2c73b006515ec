"""Batch entry point binding all modules with machine-readable output.

Every command runs a suite of contracts, writes structured JSON or CSV,
and prints a one-line PASS/FAIL summary per contract. Exit status: 0 when
every contract passes, 1 on a contract violation (the first failing
invariant is named on stderr), 2 on a malformed config.

Randomness is confined to a single seeded generator per run, the seed is
recorded in every output, and JSON output is byte-identical for identical
seed and config.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import conformal as cf
from . import energies as en
from . import gridoracle as go
from . import identities as idn
from . import lift as lf
from . import micromorphic as mm
from . import polyfield as pf
from . import solver as sv
from . import stresses as st
from . import tractions as tr

SCHEMA = "1"


class ConfigError(Exception):
    pass


# --- config ----------------------------------------------------------------

_KNOWN_KEYS = {
    "material",
    "models",
    "field",
    "test_field",
    "basis_order",
    "ladder",
    "penalty_params",
    "degree",
    "scale",
    "face",
    "export_operator",
}

_MATERIAL_KEYS = {"mu", "lam", "alpha1", "alpha2", "ell"}
_PENALTY_KEYS = {"mu", "lam", "ell", "alpha1", "alpha2", "alpha3"}


def load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return raw


def material_from(config):
    spec = config.get("material", {})
    if not isinstance(spec, dict) or set(spec) - _MATERIAL_KEYS:
        raise ConfigError(f"material must be an object with keys in {sorted(_MATERIAL_KEYS)}")
    try:
        return en.Material(**{k: float(v) for k, v in spec.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad material values: {exc}") from exc


def penalty_params_from(config):
    spec = config.get("penalty_params", {})
    if not isinstance(spec, dict) or set(spec) - _PENALTY_KEYS:
        raise ConfigError(
            f"penalty_params must be an object with keys in {sorted(_PENALTY_KEYS)}"
        )
    try:
        return mm.MicromorphicParams(**{k: float(v) for k, v in spec.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad penalty_params values: {exc}") from exc


def poly_from_terms(terms):
    if not isinstance(terms, list):
        raise ConfigError("polynomial component must be a list of [[a,b,c], coeff] terms")
    p = pf.Poly3.zero()
    for item in terms:
        try:
            (a, b, c), coeff = item
            p = p + pf.Poly3.monomial((int(a), int(b), int(c)), float(coeff))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad polynomial term {item!r}: {exc}") from exc
    return p


def field_from(config, key="field"):
    """Vector field from inline component terms or a JSON file path."""
    spec = config.get(key)
    if spec is None:
        return None
    if isinstance(spec, dict) and "path" in spec:
        try:
            with open(spec["path"], "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read field file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"field file is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict) or "components" not in spec:
        raise ConfigError(f"{key} must be an object with a 'components' list")
    comps = spec["components"]
    if not isinstance(comps, list) or len(comps) != 3:
        raise ConfigError(f"{key}.components must list exactly 3 components")
    return pf.as_vec([poly_from_terms(c) for c in comps])


def _int_option(config, key, default, low=1, high=64):
    value = config.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= high:
        raise ConfigError(f"{key} must be an integer in [{low}, {high}]")
    return value


# --- check plumbing -----------------------------------------------------------


def check(name, passed, value, threshold=None):
    row = {"name": name, "passed": bool(passed), "value": value}
    if threshold is not None:
        row["threshold"] = threshold
    return row


def _table(columns, rows):
    return {"columns": list(columns), "rows": [list(r) for r in rows]}


# --- commands ------------------------------------------------------------------


def cmd_verify_identities(args, config, rng):
    trials = 100 if args.trials is None else args.trials
    reports = idn.run_suite(seed=args.seed, trials=trials,
                            degree=config.get("degree", 4))
    checks = [
        check(r.name, r.passed, r.magnitude, r.threshold) for r in reports
    ]
    rows = [
        [r.name, r.kind, r.magnitude, r.threshold, r.passed] for r in reports
    ]
    payload = {
        "trials": trials,
        "reports": [r.as_dict() for r in reports],
        "table": _table(["name", "kind", "magnitude", "threshold", "passed"], rows),
    }
    return payload, checks


def cmd_energy_table(args, config, rng):
    mat = material_from(config)
    u = field_from(config)
    if u is None:
        u = pf.random_vec_field(rng, config.get("degree", 3))
    models = config.get("models") or sorted(en.MODEL_REGISTRY)
    unknown = sorted(set(models) - set(en.MODEL_REGISTRY))
    if unknown:
        raise ConfigError(f"unknown models: {', '.join(unknown)}")
    rows = []
    for name in models:
        dens, total = en.evaluate_model(name, u, mat)
        rows.append([name, dens.degree(), total])
    eq = en.equivalence_report(u, mat)
    eq_gap = eq["max_difference"]
    gr = (
        en.grioli_density(u, mat, alpha1=0.7, eta_prime=0.3)
        - en.indeterminate_density(u, mat.with_alphas(*en.grioli_to_indeterminate(0.7, 0.3)))
    ).max_abs_coeff()
    checks = [
        check("five-form-equivalence", eq_gap <= 1e-12, eq_gap, 1e-12),
        check("grioli-map", gr <= 1e-12, gr, 1e-12),
    ]
    payload = {
        "material": mat.__dict__,
        "pairwise_gaps": eq["pairwise"],
        "table": _table(["model", "density_degree", "box_energy"], rows),
    }
    return payload, checks


def cmd_conformal_report(args, config, rng):
    mat = material_from(config)
    trials = 25 if args.trials is None else args.trials
    worst_relation = {}
    class_counts = {}
    checks_state = {
        "modified-conformal-invariant": 0.0,
        "hd-density-constant": 0.0,
        "indeterminate-sensitive-to-rotation": True,
        "dilatation-gradient-density": 0.0,
    }
    rows = []
    for _ in range(trials):
        phi, params = cf.random_conformal(rng, scale=config.get("scale", 1.0))
        for key, gap in cf.relations_report(phi, params).items():
            worst_relation[key] = max(worst_relation.get(key, 0.0), gap)
        mc_dens, _ = en.evaluate_model("modified-conformal", phi, mat)
        checks_state["modified-conformal-invariant"] = max(
            checks_state["modified-conformal-invariant"], mc_dens.max_abs_coeff()
        )
        hd_dens, _ = en.evaluate_model("hadjesfandiari-dargush", phi, mat)
        spin_sq = float(np.sum(params.W * params.W))  # Frobenius norm squared
        hd_gap = (
            hd_dens - mat.curvature_scale * mat.alpha2 * spin_sq
        ).max_abs_coeff()
        checks_state["hd-density-constant"] = max(
            checks_state["hd-density-constant"], hd_gap
        )
        ind_dens, _ = en.evaluate_model("indeterminate", phi, mat)
        if np.sqrt(spin_sq) > 1e-6 and mat.alpha2 > 0:
            if ind_dens.max_abs_coeff() <= 1e-13:
                checks_state["indeterminate-sensitive-to-rotation"] = False
        for row in cf.invariance_report(phi, params, mat):
            key = row["model"]
            prev = class_counts.setdefault(key, set())
            prev.add(row["classification"])
    checks_state["dilatation-gradient-density"] = worst_relation[
        "dilatation-gradient-density"
    ]
    for model in sorted(class_counts):
        rows.append([model, "/".join(sorted(class_counts[model]))])
    checks = [
        check(
            "modified-conformal-invariant",
            checks_state["modified-conformal-invariant"] <= 1e-12,
            checks_state["modified-conformal-invariant"],
            1e-12,
        ),
        check(
            "hd-density-constant",
            checks_state["hd-density-constant"] <= 1e-12,
            checks_state["hd-density-constant"],
            1e-12,
        ),
        check(
            "indeterminate-sensitive-to-rotation",
            checks_state["indeterminate-sensitive-to-rotation"],
            checks_state["indeterminate-sensitive-to-rotation"],
        ),
        check(
            "dilatation-gradient-density",
            worst_relation["dilatation-gradient-density"] <= 1e-12,
            worst_relation["dilatation-gradient-density"],
            1e-12,
        ),
    ]
    for key in sorted(worst_relation):
        if key == "dilatation-gradient-density":
            continue
        checks.append(check(key, worst_relation[key] <= 1e-12, worst_relation[key], 1e-12))
    payload = {
        "trials": trials,
        "relation_gaps": worst_relation,
        "table": _table(["model", "classifications"], rows),
    }
    return payload, checks


def _frozen_quadratic_field():
    x1 = pf.Poly3.variable(0)
    return pf.as_vec([pf.Poly3.zero(), x1 * x1, pf.Poly3.zero()])


def cmd_traction_compare(args, config, rng):
    mat = en.Material(mu=1.0, lam=1.0, alpha1=1.0, alpha2=0.0, ell=1.0)
    u = _frozen_quadratic_field()
    state = st.assemble(u, mat)
    face_spec = config.get("face", {"axis": 0, "value": 1.0})
    try:
        face = tr.Face(int(face_spec["axis"]), float(face_spec["value"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad face spec: {exc}") from exc

    cmp = tr.compare_double_forces(state, face)
    center = np.array([[0.5, 0.5, 0.5]])
    center[0, face.axis] = face.value
    rows = []
    for label in ("curl", "axl-energetic", "axl-appendix"):
        g = cmp[label]
        vals = [float(face.restrict(g[i]).eval(center)[0]) for i in range(3)]
        rows.append([label] + vals)

    g_curl = [face.restrict(cmp["curl"][i]) for i in range(3)]
    g_ap = [face.restrict(cmp["axl-appendix"][i]) for i in range(3)]
    half = pf.Poly3.const(0.5)
    curl_frozen = max(
        (g_curl[0] - 0.0).max_abs_coeff(),
        (g_curl[1] - half).max_abs_coeff(),
        (g_curl[2] - 0.0).max_abs_coeff(),
    )
    ap_frozen = max(
        (g_ap[0] - 0.0).max_abs_coeff(),
        (g_ap[1] + half).max_abs_coeff(),
        (g_ap[2] - 0.0).max_abs_coeff(),
    )

    bump = tr.face_bump(face, direction=1)
    comparison = tr.face_work_comparison(state, face, bump)

    test = field_from(config, "test_field")
    if test is None:
        test = pf.random_vec_field(rng, 3)
    state2 = st.assemble(pf.random_vec_field(rng, 3), en.Material())
    closed_curl = tr.closed_boundary_work(state2, test, "curl")
    closed_axl = tr.closed_boundary_work(state2, test, "axl")
    volume = tr.volume_virtual_work(state2, test)
    scale = max(1.0, abs(volume))
    closed_gap = max(abs(closed_curl - closed_axl), abs(closed_curl - volume)) / scale

    checks = [
        check("curl-double-force-frozen", curl_frozen <= 1e-12, curl_frozen, 1e-12),
        check("appendix-double-force-frozen", ap_frozen <= 1e-12, ap_frozen, 1e-12),
        check(
            "split-totals-agree",
            comparison["total_gap"] <= 1e-8,
            comparison["total_gap"],
            1e-8,
        ),
        check(
            "termwise-double-force-differs",
            comparison["termwise_double_force_gap"] > 1e-3,
            comparison["termwise_double_force_gap"],
            1e-3,
        ),
        check("closed-boundary-route-independent", closed_gap <= 1e-10, closed_gap, 1e-10),
    ]
    payload = {
        "face": {"axis": face.axis, "value": face.value},
        "work": {
            k: comparison[k]
            for k in ("curl", "axl-energetic", "axl-appendix")
        },
        "table": _table(["route", "g1", "g2", "g3"], rows),
    }
    return payload, checks


def cmd_solve(args, config, rng):
    mat = material_from(config)
    if "material" not in config:
        mat = en.Material(1.0, 1.0, 1.0, 0.0, 1.0)
    try:
        mat.validate_wellposed()
    except ValueError as exc:
        raise ConfigError(f"material outside the existence hypotheses: {exc}") from exc
    order = _int_option(config, "basis_order", 2, 1, 4)
    basis = sv.bubble_basis(order)
    asm_curl = sv.assemble(basis, mat, "curl")
    asm_axl = sv.assemble(basis, mat, "axl")
    kmax = max(1.0, float(np.max(np.abs(asm_curl.K))))
    k_gap = float(np.max(np.abs(asm_curl.K - asm_axl.K))) / kmax

    c_star = rng.uniform(-1.0, 1.0, len(basis))
    u_star = sv.displacement(basis, c_star)
    _, b = sv.manufactured_load(basis, u_star, mat)
    rep = sv.solve(asm_curl, b)
    rec = sv.recovery_error(basis, rep.coefficients, u_star)

    checks = [
        check("stiffness-spd", rep.min_eigenvalue > 0.0, rep.min_eigenvalue),
        check("formulations-match-entrywise", k_gap <= 1e-12, k_gap, 1e-12),
        check("manufactured-recovery", rec <= 1e-8, rec, 1e-8),
        check("solve-residual", rep.residual <= 1e-10, rep.residual, 1e-10),
    ]
    rows = [
        ["curl", rep.dim, rep.min_eigenvalue, rep.energy, rep.residual, rec],
    ]
    payload = {
        "material": mat.__dict__,
        "basis_order": order,
        "stiffness_gap": k_gap,
        "table": _table(
            ["formulation", "dim", "min_eigenvalue", "energy", "residual",
             "recovery_error"],
            rows,
        ),
    }
    return payload, checks


def _generic_load():
    x = [pf.Poly3.variable(ax) for ax in range(3)]
    return pf.as_vec([x[1] + 1.0, x[2] - 2.0, x[0]])


def _finite_positive(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(float(x)) and x > 0
    except OverflowError:  # an integer beyond the float range
        return False


def cmd_limit_study(args, config, rng):
    params = penalty_params_from(config)
    try:
        params.constrained_material().validate_wellposed()
    except ValueError as exc:
        raise ConfigError(
            f"penalty_params outside the existence hypotheses: {exc}"
        ) from exc
    order = _int_option(config, "basis_order", 2, 1, 3)
    ladder = config.get("ladder", [1.0, 1e2, 1e4, 1e6])
    if not isinstance(ladder, list) or not ladder or not all(
        _finite_positive(x) for x in ladder
    ):
        raise ConfigError("ladder must be a non-empty list of finite positive numbers")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("ladder must be strictly increasing")
    models = config.get("models", ["cosserat", "microstrain"])
    if not isinstance(models, list) or not models or not all(
        isinstance(m, str) for m in models
    ):
        raise ConfigError("models must be a non-empty list of model names")
    unknown = sorted(set(models) - {"cosserat", "microstrain"})
    if unknown:
        raise ConfigError(
            f"limit-study models must be cosserat/microstrain, got: {', '.join(unknown)}"
        )
    basis = sv.bubble_basis(order)
    f = _generic_load()
    rows = []
    checks = []
    studies = {}
    for model in models:
        study = mm.penalty_limit_study(model, params, basis, f, tuple(ladder))
        studies[model] = study
        e_con = study["constrained_energy"]
        violations = [r["violation"] for r in study["rows"]]
        energies = [r["energy"] for r in study["rows"]]
        residuals = [r["residual"] for r in study["rows"]]
        for r in study["rows"]:
            rows.append(
                [
                    model,
                    r["penalty"],
                    r["violation"],
                    r["energy"],
                    r["energy_gap"],
                    r.get("violation_ratio", ""),
                ]
            )
        checks.append(
            check(
                f"{model}-violation-decreasing",
                all(b < a for a, b in zip(violations, violations[1:])),
                violations,
            )
        )
        checks.append(
            check(
                f"{model}-energy-increasing",
                all(b > a - 1e-13 for a, b in zip(energies, energies[1:])),
                energies,
            )
        )
        slack = 1e-10 * max(1.0, abs(e_con))
        checks.append(
            check(
                f"{model}-bounded-by-constrained",
                all(e <= e_con + slack for e in energies),
                e_con,
            )
        )
        worst_res = max(residuals)
        checks.append(
            check(f"{model}-solve-residual", worst_res <= 1e-10, worst_res, 1e-10)
        )
    payload = {
        "basis_order": order,
        "ladder": [float(x) for x in ladder],
        "studies": studies,
        "table": _table(
            ["model", "penalty", "violation", "energy", "energy_gap",
             "violation_ratio"],
            rows,
        ),
    }
    return payload, checks


def cmd_lift_check(args, config, rng):
    trials = 50 if args.trials is None else args.trials
    degree = config.get("degree", 4)
    worst_corrected = 0.0
    least_printed = float("inf")
    worst_energy = 0.0
    C = lf.sixth_order_isotropic(1.0, 0.0)
    for _ in range(trials):
        u = pf.random_vec_field(rng, degree)
        worst_corrected = max(worst_corrected, lf.roundtrip_gap(u, "corrected"))
        least_printed = min(least_printed, lf.roundtrip_gap(u, "printed"))
        worst_energy = max(worst_energy, lf.verify_energy_equality(u, 1.0, 0.0, C))
    frozen = lf.second_gradient_pairing(_frozen_quadratic_field(), C).integrate()
    blocks_gap = float(
        np.max(
            np.abs(
                np.array(lf.blocks_from_tensor(lf.isotropic_fourth_order(1.3, 0.4)))
                - np.array(lf.isotropic_blocks(1.3, 0.4))
            )
        )
    )
    rel_gap = lf.defining_relation_gap(lf.isotropic_blocks(1.0, 0.0))
    checks = [
        check("corrected-roundtrip", worst_corrected <= 1e-12, worst_corrected, 1e-12),
        check("printed-signs-fail-roundtrip", least_printed > 1e-6, least_printed, 1e-6),
        check("lift-energy-equality", worst_energy <= 1e-12, worst_energy, 1e-12),
        check("frozen-quadratic-value", abs(frozen - 1.0) <= 1e-14, frozen, 1e-14),
        check("block-extraction-isotropic", blocks_gap <= 1e-13, blocks_gap, 1e-13),
        check("defining-relation", rel_gap <= 1e-12, rel_gap, 1e-12),
    ]
    rows = [[c["name"], c["value"], c["passed"]] for c in checks]
    payload = {
        "trials": trials,
        "table": _table(["check", "value", "passed"], rows),
    }
    if config.get("export_operator"):
        payload["operator"] = lf.export_flat(C)
    return payload, checks


COMMANDS = {
    "verify-identities": cmd_verify_identities,
    "energy-table": cmd_energy_table,
    "conformal-report": cmd_conformal_report,
    "traction-compare": cmd_traction_compare,
    "solve": cmd_solve,
    "limit-study": cmd_limit_study,
    "lift-check": cmd_lift_check,
}

_DEFAULT_FORMAT = {"limit-study": "csv"}
_TAKES_TRIALS = ("verify-identities", "conformal-report", "lift-check")


# --- output ----------------------------------------------------------------


def render_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_csv(payload):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    table = payload["table"]
    writer.writerow(["schema", SCHEMA, "command", payload["command"], "seed",
                     payload["seed"]])
    writer.writerow(table["columns"])
    writer.writerows(table["rows"])
    return buf.getvalue()


def _trials(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="couplestress",
        description="Verification suites for the couple stress model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        if name in _TAKES_TRIALS:
            p.add_argument("--trials", type=_trials, default=None,
                           help="number of random fields")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=["json", "csv"], default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        rng = np.random.default_rng(args.seed)
        extras, checks = COMMANDS[args.command](args, config, rng)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    payload = {
        "schema": SCHEMA,
        "command": args.command,
        "seed": args.seed,
        "checks": checks,
    }
    payload.update(extras)

    fmt = args.format or _DEFAULT_FORMAT.get(args.command, "json")
    rendered = render_json(payload) if fmt == "json" else render_csv(payload)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']} (value={c['value']})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"wrote {fmt} to {args.out}")
    else:
        sys.stdout.write(rendered)

    failing = [c["name"] for c in checks if not c["passed"]]
    if failing:
        print(f"contract violation: {failing[0]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
