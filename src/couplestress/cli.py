"""Batch entry point binding all modules with machine-readable output.

Every command runs a suite of contracts, writes structured JSON or CSV,
and prints a one-line PASS/FAIL summary per contract. Exit status: 0 when
every contract passes, 1 on a contract violation (the first failing
invariant is named on stderr), 2 on a malformed config, including a
known key that the command does not read and constants or a field that
overflow a stiffness, a load or a box energy, or on a report that cannot
be written, and 3 when a command raises any other exception (its
traceback goes to stderr). A check whose value is not finite fails, and
JSON writes such values as the strings "nan", "inf" and "-inf", so a
report is always valid JSON.

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
import numbers
import sys
import traceback

import numpy as np

from . import conformal as cf
from . import energies as en
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

# A reader takes (config, key) and returns the value a command runs with;
# the type and range rule of the key and its default live in the reader.

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
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return raw


def _constants_from(config, key, allowed, cls):
    """cls built from the finite numbers in the object config[key]."""
    spec = config.get(key, {})
    if not isinstance(spec, dict) or set(spec) - allowed:
        raise ConfigError(f"{key} must be an object with keys in {sorted(allowed)}")
    bad = sorted(k for k, v in spec.items() if not _real(v))
    if bad:
        raise ConfigError(f"{key} values must be finite: {', '.join(bad)}")
    constants = cls(**{k: float(v) for k, v in spec.items()})
    try:
        scale = constants.curvature_scale
    except OverflowError:  # ell**2 beyond the float range
        scale = math.inf
    if not math.isfinite(scale):
        raise ConfigError(f"{key} curvature scale mu*ell^2 must be finite")
    return constants


def material_from(config, key="material"):
    return _constants_from(config, key, _MATERIAL_KEYS, en.Material)


def penalty_params_from(config, key="penalty_params"):
    return _constants_from(config, key, _PENALTY_KEYS, mm.MicromorphicParams)


def _is_int(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _real(x):
    """Whether x is a JSON number (an int or a float, not a bool) with a finite float value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(float(x))
    except OverflowError:  # an integer beyond the float range
        return False


def poly_from_terms(terms):
    if not isinstance(terms, list):
        raise ConfigError("polynomial component must be a list of [[a,b,c], coeff] terms")
    p = pf.Poly3.zero()
    for item in terms:
        try:
            (a, b, c), coeff = item
            if not all(_is_int(e) and e >= 0 for e in (a, b, c)):
                raise ValueError("exponents must be non-negative integers")
            if not _real(coeff):
                raise ValueError("coefficient must be a finite number")
            p = p + pf.Poly3.monomial((int(a), int(b), int(c)), float(coeff))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad polynomial term {item!r}: {exc}") from exc
    return p


def field_from(config, key="field"):
    """Vector field from a spec that is exactly {"components": [...]} or exactly
    {"path": <string>}, the path of a JSON file that holds exactly {"components": [...]}."""
    spec = config.get(key)
    if spec is None:
        return None
    if isinstance(spec, dict) and set(spec) == {"path"}:
        path = spec["path"]
        if not isinstance(path, str) or "\0" in path:
            raise ConfigError(f"{key}.path must be a file name, got {path!r}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read field file: {exc}") from exc
        except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
            raise ConfigError(f"field file {path} is not valid JSON: {exc}") from exc
        if not isinstance(spec, dict) or set(spec) != {"components"}:
            raise ConfigError(f"field file {path} must hold an object with exactly "
                              "the key components")
    elif not isinstance(spec, dict) or set(spec) != {"components"}:
        raise ConfigError(f"{key} must be an object with exactly one key, components or path")
    comps = spec["components"]
    if not isinstance(comps, list) or len(comps) != 3:
        raise ConfigError(f"{key}.components must list exactly 3 components")
    return pf.as_vec([poly_from_terms(c) for c in comps])


def _integer(default, low, high):
    def read(config, key):
        value = config.get(key, default)
        if not _is_int(value) or not low <= value <= high:
            raise ConfigError(f"{key} must be an integer in [{low}, {high}]")
        return value
    return read


def _scale(config, key):
    value = config.get(key, 1.0)
    if not _real(value) or not 0 < value <= 10:
        raise ConfigError(f"{key} must be a finite number in (0, 10]")
    return value


def _ladder(config, key):
    ladder = config.get(key, [1.0, 1e2, 1e4, 1e6])
    if not isinstance(ladder, list):
        raise ConfigError(f"{key} must be a non-empty list of finite positive numbers")
    try:
        return mm._penalty_ladder(ladder)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _flag(config, key):
    value = config.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false")
    return value


def _models(allowed):
    """Reader of a non-empty list of names from allowed, all of them by default."""
    def read(config, key):
        models = config.get(key, sorted(allowed))
        if not isinstance(models, list) or not models or not all(
            isinstance(m, str) for m in models
        ):
            raise ConfigError(f"{key} must be a non-empty list of model names")
        unknown = sorted(set(models) - set(allowed))
        if unknown:
            raise ConfigError(f"unknown {key}: {', '.join(unknown)}")
        return models
    return read


def _wellposed(key, value, material):
    try:
        material.validate_wellposed()
    except ValueError as exc:
        raise ConfigError(f"{key} outside the existence hypotheses: {exc}") from exc
    return value


def _solve_material(config, key):
    mat = material_from(config, key) if key in config else en.Material(1.0, 1.0, 1.0, 0.0, 1.0)
    return _wellposed(key, mat, mat)


def _study_params(config, key):
    params = penalty_params_from(config, key)
    return _wellposed(key, params, params.constrained_material())


def _face(config, key):
    spec = config.get(key, {"axis": 0, "value": 1.0})
    if not isinstance(spec, dict) or set(spec) != {"axis", "value"}:
        raise ConfigError(f"bad face spec: {key} must be an object with exactly "
                          "the keys axis and value")
    axis, value = spec["axis"], spec["value"]
    if not _is_int(axis) or axis not in (0, 1, 2):
        raise ConfigError(f"bad face spec: axis must be the integer 0, 1 or 2, got {axis!r}")
    if not _real(value) or value not in (0, 1):
        raise ConfigError(f"bad face spec: value must be 0 or 1, got {value!r}")
    return tr.Face(int(axis), float(value))


# degree 2 is the lowest at which the printed lift signs can be seen to fail;
# at 8 the lift energy equality already exceeds its absolute 1e-12 bound
_DEGREES = (2, 6)

# The one config table: each command's keys, each with its reader. A known
# key that a command does not read is refused rather than silently ignored.
_CONFIG = {
    "verify-identities": {"degree": _integer(4, *_DEGREES)},
    "energy-table": {
        "material": material_from,
        "degree": _integer(3, *_DEGREES),
        "models": _models(en.MODEL_REGISTRY),
        "field": field_from,
    },
    "conformal-report": {"material": material_from, "scale": _scale},
    "traction-compare": {"face": _face, "test_field": field_from},
    "solve": {"material": _solve_material, "basis_order": _integer(2, 1, 4)},
    "limit-study": {
        "penalty_params": _study_params,
        "basis_order": _integer(2, 1, 3),
        "ladder": _ladder,
        "models": _models(("cosserat", "microstrain")),
    },
    "lift-check": {"degree": _integer(4, *_DEGREES), "export_operator": _flag},
}
_READS = {command: set(readers) for command, readers in _CONFIG.items()}
_KNOWN_KEYS = set().union(*_READS.values())


def _read_config(command, config):
    """Every value the command runs with, read from config in table order."""
    unread = sorted(set(config) - _READS[command])
    if unread:
        raise ConfigError("; ".join(
            f"config key {k} is not read by {command}" for k in unread))
    return {key: read(config, key) for key, read in _CONFIG[command].items()}


# --- check plumbing -----------------------------------------------------------

_COEFF_TOL = 1e-12  # contracts that hold to coefficient precision


def _finite(value):
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return not isinstance(value, numbers.Real) or math.isfinite(value)


def check(name, passed, value, threshold=None):
    """One contract row; a non-finite value fails whatever passed says."""
    row = {"name": name, "passed": bool(passed) and _finite(value), "value": value}
    if threshold is not None:
        row["threshold"] = threshold
    return row


def at_most(name, value, bound):
    """The contract value <= bound."""
    return check(name, value <= bound, value, bound)


def above(name, value, floor):
    """The contract value > floor."""
    return check(name, value > floor, value, floor)


def _table(columns, rows):
    return {"columns": list(columns), "rows": [list(r) for r in rows]}


# --- commands ------------------------------------------------------------------
# Each command takes the parsed arguments, the values read from its config
# keys and the run's generator, and returns its payload and its checks.


def cmd_verify_identities(args, opts, rng):
    reports = idn.run_suite(seed=args.seed, trials=args.trials, degree=opts["degree"])
    checks = [check(r.name, r.passed, r.magnitude, r.threshold) for r in reports]
    rows = [[r.name, r.kind, r.magnitude, r.threshold, r.passed] for r in reports]
    payload = {
        "trials": args.trials,
        "reports": [r.as_dict() for r in reports],
        "table": _table(["name", "kind", "magnitude", "threshold", "passed"], rows),
    }
    return payload, checks


def cmd_energy_table(args, opts, rng):
    mat = opts["material"]
    u = opts["field"]
    if u is None:
        u = pf.random_vec_field(rng, opts["degree"])
    rows = []
    with en._derived_fields(u):  # every density and check reads one state of u
        for name in opts["models"]:
            dens, total = en.evaluate_model(name, u, mat)
            rows.append([name, dens.degree(), total])
        # no check reads the box energies, so one that overflows is refused, not reported
        sv.finite(np.array([row[2] for row in rows]), "box energy", f"the field under {mat}")
        eq = en.equivalence_report(u, mat)
        gr = (
            en.grioli_density(u, mat, alpha1=0.7, eta_prime=0.3)
            - en.indeterminate_density(u, mat.with_alphas(*en.grioli_to_indeterminate(0.7, 0.3)))
        ).max_abs_coeff()
    checks = [
        at_most("five-form-equivalence", eq["max_difference"], _COEFF_TOL),
        at_most("grioli-map", gr, _COEFF_TOL),
    ]
    payload = {
        "material": mat.__dict__,
        "pairwise_gaps": eq["pairwise"],
        "table": _table(["model", "density_degree", "box_energy"], rows),
    }
    return payload, checks


def cmd_conformal_report(args, opts, rng):
    mat = opts["material"]
    worst = {}  # contract name -> largest gap over the trials
    sensitive = True
    class_counts = {}
    for _ in range(args.trials):
        phi, params = cf.random_conformal(rng, scale=opts["scale"])
        with en._derived_fields(phi):  # the relations and every density read one state of phi
            relations = cf.relations_report(phi, params)
            dens = {name: en.evaluate_model(name, phi, mat)[0] for name in en.MODEL_REGISTRY}
        spin_sq = float(np.sum(params.W * params.W))  # Frobenius norm squared
        gaps = {
            "modified-conformal-invariant": dens["modified-conformal"].max_abs_coeff(),
            "hd-density-constant": (
                dens["hadjesfandiari-dargush"] - mat.curvature_scale * mat.alpha2 * spin_sq
            ).max_abs_coeff(),
            **relations,
        }
        for key, gap in gaps.items():  # np.maximum keeps a NaN gap, which fails
            worst[key] = float(np.maximum(worst.get(key, 0.0), gap))
        if np.sqrt(spin_sq) > 1e-6 and mat.alpha2 > 0:
            sensitive = sensitive and dens["indeterminate"].max_abs_coeff() > 1e-13
        for name, d in dens.items():
            class_counts.setdefault(name, set()).add(cf.classify_density(d))
    checks = [at_most(key, worst[key], _COEFF_TOL)
              for key in ("modified-conformal-invariant", "hd-density-constant")]
    checks.append(check("indeterminate-sensitive-to-rotation", sensitive, sensitive))
    # the dilatation relation leads the relation checks; the rest follow by name
    checks += [at_most(key, worst[key], _COEFF_TOL) for key in
               sorted(relations, key=lambda k: (k != "dilatation-gradient-density", k))]
    rows = [[model, "/".join(sorted(class_counts[model]))] for model in sorted(class_counts)]
    payload = {
        "trials": args.trials,
        "relation_gaps": {key: worst[key] for key in relations},
        "table": _table(["model", "classifications"], rows),
    }
    return payload, checks


def _frozen_quadratic_field(axis=0):
    """x_a^2 e_(a+1) for a = axis: a double force of 1/2 e_(a+1) on faces normal to a."""
    x = pf.Poly3.variable(axis)
    comps = [pf.Poly3.zero()] * 3
    comps[(axis + 1) % 3] = x * x
    return pf.as_vec(comps)


def cmd_traction_compare(args, opts, rng):
    face = opts["face"]
    along = (face.axis + 1) % 3
    mat = en.Material(mu=1.0, lam=1.0, alpha1=1.0, alpha2=0.0, ell=1.0)
    state = st.assemble(_frozen_quadratic_field(face.axis), mat)

    cmp = tr.compare_double_forces(state, face)
    g = {label: [face.restrict(p) for p in cmp[label]]
         for label in ("curl", "axl-energetic", "axl-appendix")}
    center = np.array([[0.5, 0.5, 0.5]])
    center[0, face.axis] = face.value
    rows = [[label] + [float(p.eval(center)[0]) for p in comps] for label, comps in g.items()]

    def frozen_gap(label, expected):
        """Largest coefficient of the route's double force minus expected e_(a+1)."""
        return pf.max_abs_coeff(pf.as_vec(g[label]) - expected * np.eye(3)[along])

    comparison = tr.face_work_comparison(state, face, tr.face_bump(face, direction=along))

    test = opts["test_field"]
    if test is None:
        test = pf.random_vec_field(rng, 3)
    state2 = st.assemble(pf.random_vec_field(rng, 3), en.Material())
    with en._derived_fields(test):  # the three works read one J of the test field
        closed_curl = tr.closed_boundary_work(state2, test, "curl")
        closed_axl = tr.closed_boundary_work(state2, test, "axl")
        volume = tr.volume_virtual_work(state2, test)
    # np.maximum and np.max keep a NaN work, which then fails its check
    scale = np.maximum(1.0, abs(volume))
    closed_gap = float(np.max([abs(closed_curl - closed_axl), abs(closed_curl - volume)]) / scale)

    checks = [
        at_most("curl-double-force-frozen", frozen_gap("curl", 0.5), _COEFF_TOL),
        at_most("appendix-double-force-frozen", frozen_gap("axl-appendix", -0.5), _COEFF_TOL),
        at_most("split-totals-agree", comparison["total_gap"], 1e-8),
        above("termwise-double-force-differs", comparison["termwise_double_force_gap"], 1e-3),
        at_most("closed-boundary-route-independent", closed_gap, 1e-10),
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


def cmd_solve(args, opts, rng):
    mat, order = opts["material"], opts["basis_order"]
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
        # a sign contract: its row reports no threshold
        check("stiffness-spd", rep.min_eigenvalue > 0.0, rep.min_eigenvalue),
        at_most("formulations-match-entrywise", k_gap, _COEFF_TOL),
        at_most("manufactured-recovery", rec, 1e-8),
        at_most("solve-residual", rep.residual, 1e-10),
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


def cmd_limit_study(args, opts, rng):
    ladder = opts["ladder"]
    basis = sv.bubble_basis(opts["basis_order"])
    f = _generic_load()
    rows = []
    checks = []
    studies = {}
    for model in opts["models"]:
        study = mm.penalty_limit_study(model, opts["penalty_params"], basis, f, tuple(ladder))
        studies[model] = study
        e_con = study["constrained_energy"]
        violations, energies, residuals = (
            [r[k] for r in study["rows"]] for k in ("violation", "energy", "residual")
        )
        rows += [
            [model, r["penalty"], r["violation"], r["energy"], r["energy_gap"],
             r.get("violation_ratio", "")]
            for r in study["rows"]
        ]
        slack = 1e-10 * max(1.0, abs(e_con))
        checks += [
            check(f"{model}-violation-decreasing",
                  all(b < a for a, b in zip(violations, violations[1:])), violations),
            check(f"{model}-energy-increasing",
                  all(b > a - 1e-13 for a, b in zip(energies, energies[1:])), energies),
            check(f"{model}-bounded-by-constrained",
                  all(e <= e_con + slack for e in energies), e_con),
            at_most(f"{model}-solve-residual", float(np.max(residuals)), 1e-10),
        ]
    payload = {
        "basis_order": opts["basis_order"],
        "ladder": [float(x) for x in ladder],
        "studies": studies,
        "table": _table(
            ["model", "penalty", "violation", "energy", "energy_gap",
             "violation_ratio"],
            rows,
        ),
    }
    return payload, checks


def cmd_lift_check(args, opts, rng):
    worst_corrected = 0.0
    least_printed = float("inf")
    worst_energy = 0.0
    C = lf.sixth_order_isotropic(1.0, 0.0)
    for _ in range(args.trials):
        u = pf.random_vec_field(rng, opts["degree"])
        with en._derived_fields(u):  # the three checks share one second gradient of u
            # np.maximum and np.minimum keep a NaN, which then fails its check
            worst_corrected = float(np.maximum(worst_corrected, lf.roundtrip_gap(u, "corrected")))
            least_printed = float(np.minimum(least_printed, lf.roundtrip_gap(u, "printed")))
            worst_energy = float(np.maximum(worst_energy,
                                            lf.verify_energy_equality(u, 1.0, 0.0, C)))
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
        at_most("corrected-roundtrip", worst_corrected, _COEFF_TOL),
        above("printed-signs-fail-roundtrip", least_printed, 1e-6),
        at_most("lift-energy-equality", worst_energy, _COEFF_TOL),
        # the row reports the integral; the bound is on its distance from 1
        check("frozen-quadratic-value", abs(frozen - 1.0) <= 1e-14, frozen, 1e-14),
        at_most("block-extraction-isotropic", blocks_gap, 1e-13),
        at_most("defining-relation", rel_gap, _COEFF_TOL),
    ]
    rows = [[c["name"], c["value"], c["passed"]] for c in checks]
    payload = {
        "trials": args.trials,
        "table": _table(["check", "value", "passed"], rows),
    }
    if opts["export_operator"]:
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
_DEFAULT_TRIALS = {"verify-identities": 100, "conformal-report": 25, "lift-check": 50}


# --- output ----------------------------------------------------------------


def _json_safe(x):
    """x with every non-finite float written as "nan", "inf" or "-inf"."""
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return x


def render_json(payload):
    return json.dumps(_json_safe(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_csv(payload):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    table = payload["table"]
    writer.writerow(["schema", SCHEMA, "command", payload["command"], "seed",
                     payload["seed"]])
    writer.writerow(table["columns"])
    writer.writerows(table["rows"])
    return buf.getvalue()


def _at_least(low):
    """argparse type: an integer no smaller than low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="couplestress",
        description="Verification suites for the couple stress model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=_at_least(0), default=0)
        if name in _DEFAULT_TRIALS:
            p.add_argument("--trials", type=_at_least(1), default=_DEFAULT_TRIALS[name],
                           help="number of random fields")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=["json", "csv"], default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _read_config(args.command, load_config(args.config))
        rng = np.random.default_rng(args.seed)
        # one numeric-warning policy: overflow and invalid flags stay silent, and
        # a non-finite value fails its check or is refused as a config error
        with np.errstate(over="ignore", invalid="ignore"):
            extras, checks = COMMANDS[args.command](args, opts, rng)
    except (ConfigError, OverflowError) as exc:  # an overflow comes from config constants
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3

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
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
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
