"""The benchmark's workloads, their contracts and their CLI cross-checks.

Every item calls the package's public functions in the order the matching
CLI subcommand does, wraps each call in a span, and re-checks the
subcommand's contracts at the CLI or acceptance threshold. A check whose
value is not finite fails. Contract failures that the package shows at
this version are listed in KNOWN_FAILURES: they are counted and printed
like any other failure, but do not make the run incorrect. Any other
failure, or an exception, does.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from couplestress import cli
from couplestress import conformal as cf
from couplestress import energies as en
from couplestress import gridoracle as go
from couplestress import identities as idn
from couplestress import lift as lf
from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress import stresses as st
from couplestress import tractions as tr
from couplestress.trig import TrigPoly

# (tier, check) -> why it fails at this version of the package.
KNOWN_FAILURES = {
    ("d3", "gridoracle.second_gradient"):
        "exact-match floor 1e-13 is below the finite-difference roundoff at h=1/32",
    ("o4", "manufactured-recovery"):
        "monomial bubble basis at order 4 recovers c* only to about 1e-8",
    ("cosserat-o3", "cosserat-bounded-by-constrained"):
        "last-rung energy exceeds the constrained energy at order 3",
}

COEFF_TOL = 1e-12  # coefficient-precision contracts, as in the CLI
LADDER = (1.0, 1e2, 1e4, 1e6)  # limit-study default ladder


@dataclass
class Item:
    """One unit of work; ``tag`` names the per-layer metrics its spans feed."""

    id: str
    tier: str
    tag: str | None
    run: object  # callable(ItemContext) -> dict of figures


@dataclass
class Workload:
    name: str
    items: list
    tiers: dict  # item_s.small/mid/large -> tier
    report_prefix: str  # name stem of the per-tier figures in the text output
    report_unit: str
    report_tiers: tuple
    cross_check: object  # callable(first results by item id, scratch dir) -> problems


class ItemContext:
    """Span factory and contract ledger for one execution of one item."""

    def __init__(self, tracer, item):
        self.tracer = tracer
        self.item = item
        self.checks = []

    def span(self, name):
        return self.tracer.span(name, self.item.id, self.item.tag)

    def _add(self, name, values, passed):
        finite = all(math.isfinite(float(v)) for v in np.ravel(values))
        self.checks.append((name, bool(passed) and finite))

    def at_most(self, name, value, bound):
        self._add(name, value, value <= bound)

    def above(self, name, value, bound):
        self._add(name, value, value > bound)

    def holds(self, name, passed, values=()):
        self._add(name, values, passed)


# --- calculus-sweep -------------------------------------------------------------


def _field_item(u, degree, item_seed, face, mat, C, ctx):
    totals = {}
    for name in sorted(en.MODEL_REGISTRY):
        with ctx.span("energies.registry"):
            totals[name] = en.evaluate_model(name, u, mat)[1]
    ctx.holds("energy-registry-finite", True, list(totals.values()))

    with ctx.span("energies.five_forms"):
        eq_gap = en.equivalence_report(u, mat)["max_difference"]
        gr = (
            en.grioli_density(u, mat, alpha1=0.7, eta_prime=0.3)
            - en.indeterminate_density(
                u, mat.with_alphas(*en.grioli_to_indeterminate(0.7, 0.3)))
        ).max_abs_coeff()
    ctx.at_most("five-form-equivalence", eq_gap, COEFF_TOL)
    ctx.at_most("grioli-map", gr, COEFF_TOL)

    with ctx.span("stresses.assemble"):
        state = st.assemble(u, mat)
    with ctx.span("stresses.structure"):
        structure = st.structure_report(state)
    for key, val in structure.items():
        ctx.at_most(f"stress-{key}", val, COEFF_TOL)

    with ctx.span("identities.suite"):
        reports = idn.run_suite(seed=item_seed, trials=1, degree=degree)
    for r in reports:
        ctx.holds(f"identity-{r.name}", r.passed, r.magnitude)

    with ctx.span("conformal.report"):
        phi, params = cf.random_conformal(np.random.default_rng(item_seed))
    with ctx.span("conformal.report"):
        relations = cf.relations_report(phi, params)
    with ctx.span("conformal.report"):
        classes = {r["model"]: r for r in cf.invariance_report(phi, params, mat)}
    for key, gap in relations.items():
        ctx.at_most(f"conformal-{key}", gap, COEFF_TOL)
    for name, model, ok in (
        ("modified-conformal-invariant", "modified-conformal", {"invariant"}),
        ("hd-density-constant", "hadjesfandiari-dargush", {"constant"}),
        ("indeterminate-sensitive-to-rotation", "indeterminate", {"constant", "sensitive"}),
    ):
        row = classes[model]
        ctx.holds(name, row["classification"] in ok, row["box_energy"])

    with ctx.span("tractions.compare"):
        cmp = tr.compare_double_forces(state, face)
    ctx.at_most("double-force-curl-vs-energetic", cmp["curl-vs-energetic"], COEFF_TOL)
    ctx.at_most("double-force-curl-plus-appendix", cmp["curl-plus-appendix"], COEFF_TOL)
    with ctx.span("tractions.face_work"):
        work = tr.face_work_comparison(state, face, tr.face_bump(face, direction=1))
    ctx.at_most("split-totals-agree", work["total_gap"], 1e-8)

    with ctx.span("lift.roundtrip"):
        corrected = lf.roundtrip_gap(u, "corrected")
    with ctx.span("lift.roundtrip"):
        printed = lf.roundtrip_gap(u, "printed")
    with ctx.span("lift.energy"):
        energy_gap = lf.verify_energy_equality(u, 1.0, 0.0, C)
    ctx.at_most("corrected-roundtrip", corrected, COEFF_TOL)
    ctx.above("printed-signs-fail-roundtrip", printed, 1e-6)
    ctx.at_most("lift-energy-equality", energy_gap, COEFF_TOL)

    for name in go.operator_names():
        with ctx.span("gridoracle.check"):
            rep = go.check_operator(name, u)
        ctx.holds(f"gridoracle.{name}", rep.passed, rep.errors)

    return {"totals": totals, "five_form": eq_gap, "grioli": gr}


def _field_terms(u):
    return {"components": [[[list(k), v] for k, v in sorted(p.coef.items())]
                           for p in u]}


def _calculus_cross_check(field_u, results, scratch):
    """energy-table on the first field must reproduce the sweep's figures."""
    mine = results["d3#0"]
    report, code = run_cli("energy-table", {"field": _field_terms(field_u)}, 0, scratch)
    problems = _expect_exit(code, report)
    for name, _, total in report["table"]["rows"]:
        problems += _compare(f"energy-table {name}", total, mine["totals"][name])
    checks = {c["name"]: c["value"] for c in report["checks"]}
    problems += _compare("energy-table five-form", checks["five-form-equivalence"],
                         mine["five_form"])
    problems += _compare("energy-table grioli", checks["grioli-map"], mine["grioli"])
    return problems


def calculus_sweep(seed, n_fields=30):
    """Seeded random fields, an equal share at degrees 3, 4 and 5."""
    rng = np.random.default_rng(seed)
    mat = en.Material()
    C = lf.sixth_order_isotropic(1.0, 0.0)
    items = []
    for i in range(n_fields):
        degree = (3, 4, 5)[i % 3]
        u = pf.random_vec_field(rng, degree)
        item_seed = int(rng.integers(2**31))
        face = tr.ALL_FACES[i % len(tr.ALL_FACES)]
        if i == 0:
            first = u
        items.append(Item(f"d{degree}#{i // 3}", f"d{degree}", None,
                          partial(_field_item, u, degree, item_seed, face, mat, C)))
    return Workload(
        "calculus-sweep", items,
        {"item_s.small": "d3", "item_s.mid": "d4", "item_s.large": "d5"},
        "field_ms", "ms", ("d3", "d4", "d5"),
        partial(_calculus_cross_check, first),
    )


# --- galerkin-solve -------------------------------------------------------------

SOLVE_MATERIAL = en.Material(1.0, 1.0, 1.0, 0.0, 1.0)  # the CLI's solve default


def _assemble_both(ctx, basis, mat):
    with ctx.span("solver.assemble"):
        asm_curl = sv.assemble(basis, mat, "curl")
    with ctx.span("solver.assemble"):
        asm_axl = sv.assemble(basis, mat, "axl")
    kmax = max(1.0, float(np.max(np.abs(asm_curl.K))))
    k_gap = float(np.max(np.abs(asm_curl.K - asm_axl.K))) / kmax
    ctx.at_most("formulations-match-entrywise", k_gap, COEFF_TOL)
    return asm_curl, k_gap


def _solve_checks(ctx, rep):
    ctx.holds("stiffness-spd", rep.min_eigenvalue > 0.0, rep.min_eigenvalue)
    ctx.at_most("solve-residual", rep.residual, 1e-10)


def _bubble_item(order, item_seed, ctx):
    mat = SOLVE_MATERIAL
    with ctx.span("solver.basis"):
        basis = sv.bubble_basis(order)
    asm, k_gap = _assemble_both(ctx, basis, mat)
    c_star = np.random.default_rng(item_seed).uniform(-1.0, 1.0, len(basis))
    with ctx.span("solver.load"):
        u_star = sv.displacement(basis, c_star)
        _, b = sv.manufactured_load(basis, u_star, mat)
    with ctx.span("solver.solve"):
        rep = sv.solve(asm, b)
    with ctx.span("solver.recovery"):
        rec = sv.recovery_error(basis, rep.coefficients, u_star)
    _solve_checks(ctx, rep)
    ctx.at_most("manufactured-recovery", rec, 1e-8)
    return {
        "solver.cond_K": float(np.linalg.cond(asm.K)),
        "solver.min_eig": rep.min_eigenvalue,
        "solver.residual": rep.residual,
        "solver.recovery_err": rec,
        "solver.k_gap": k_gap,
        "solver.load_gap": float(np.linalg.norm(b - asm.K @ c_star) / np.linalg.norm(b)),
        "energy": rep.energy,
        "dim": rep.dim,
    }


def _sine_load():
    return pf.as_vec([TrigPoly.sine_mode((1, 1, 1)),
                      TrigPoly.sine_mode((2, 1, 1), 0.5),
                      TrigPoly.sine_mode((1, 1, 2), -0.5)])


def _sine_item(order, ctx):
    mat = SOLVE_MATERIAL
    with ctx.span("solver.basis"):
        basis = sv.sine_basis(order)
    asm, k_gap = _assemble_both(ctx, basis, mat)
    with ctx.span("solver.load"):
        b = sv.load_vector(basis, _sine_load())
    with ctx.span("solver.solve"):
        rep = sv.solve(asm, b)
    _solve_checks(ctx, rep)
    return {
        "solver.cond_K": float(np.linalg.cond(asm.K)),
        "solver.min_eig": rep.min_eigenvalue,
        "solver.residual": rep.residual,
        "solver.k_gap": k_gap,
    }


def _galerkin_cross_check(cli_seed, results, scratch):
    """solve at order 2 with the first order-2 item's seed."""
    mine = results["o2#0"]
    report, code = run_cli("solve", {"basis_order": 2}, cli_seed, scratch)
    problems = _expect_exit(code, report)
    _, dim, min_eig, energy, residual, rec = report["table"]["rows"][0]
    problems += _compare("solve dim", dim, mine["dim"])
    problems += _compare("solve min_eigenvalue", min_eig, mine["solver.min_eig"])
    problems += _compare("solve energy", energy, mine["energy"])
    problems += _compare("solve residual", residual, mine["solver.residual"])
    problems += _compare("solve recovery", rec, mine["solver.recovery_err"])
    problems += _compare("solve stiffness_gap", report["stiffness_gap"], mine["solver.k_gap"])
    return problems


def galerkin_solve(seed, n_manufactured=3, orders=(1, 2, 3, 4), sine_orders=(2, 3)):
    """Manufactured solves at every bubble order, then sine-basis solves."""
    rng = np.random.default_rng(seed)
    items = []
    seeds = {}
    for j in range(n_manufactured):
        for order in orders:
            item_seed = int(rng.integers(2**31))
            seeds[(order, j)] = item_seed
            items.append(Item(f"o{order}#{j}", f"o{order}", f"o{order}",
                              partial(_bubble_item, order, item_seed)))
    for order in sine_orders:
        items.append(Item(f"sine-o{order}", f"sine-o{order}", f"sine-o{order}",
                          partial(_sine_item, order)))
    return Workload(
        "galerkin-solve", items,
        {"item_s.small": "o2", "item_s.mid": "o3", "item_s.large": "o4"},
        "solve_s", "s", ("o2", "o3", "o4", "sine-o3"),
        partial(_galerkin_cross_check, seeds[(2, 0)]),
    )


# --- penalty-ladder --------------------------------------------------------------


def _candidate_count(model, basis):
    """Companion candidates before pruning: shaped bubbles plus constraint images."""
    gens = {"skew": 3, "sym": 6, "full": 9}[mm.companion_class(model)]
    return basis.order**3 * gens + len(basis)


def _generic_load():
    """The limit-study subcommand's load (y + 1, z - 2, x)."""
    x = [pf.Poly3.variable(ax) for ax in range(3)]
    return pf.as_vec([x[1] + 1.0, x[2] - 2.0, x[0]])


def _study_item(model, order, ctx):
    params = mm.MicromorphicParams()
    f = _generic_load()
    with ctx.span("solver.basis"):
        basis = sv.bubble_basis(order)
    with ctx.span("micromorphic.companion"):
        companion = mm.companion_basis(model, basis)
    with ctx.span("micromorphic.grams"):
        grams = mm.coupled_operator_grams(model, basis, companion)
    with ctx.span("micromorphic.reference"):
        ref = mm.constrained_reference(model, params, basis, f)
    rows = []
    min_eig = math.inf
    for pen in LADDER:
        with ctx.span("micromorphic.rung"):
            _, rep = mm.coupled_solve(model, params.with_penalty(pen), basis, f,
                                      companion_fields=companion, grams=grams)
        min_eig = min(min_eig, rep["min_eigenvalue"])
        row = {"penalty": pen, "violation": rep["violation"], "energy": rep["energy"],
               "energy_gap": ref.energy - rep["energy"], "residual": rep["residual"]}
        if rows and rows[-1]["violation"] > 0:
            row["violation_ratio"] = rep["violation"] / rows[-1]["violation"]
        rows.append(row)

    violations = [r["violation"] for r in rows]
    energies = [r["energy"] for r in rows]
    e_con = ref.energy
    slack = 1e-10 * max(1.0, abs(e_con))
    ctx.holds(f"{model}-violation-decreasing",
              all(b < a for a, b in zip(violations, violations[1:])), violations)
    ctx.holds(f"{model}-energy-increasing",
              all(b > a - 1e-13 for a, b in zip(energies, energies[1:])), energies)
    ctx.holds(f"{model}-bounded-by-constrained",
              all(e <= e_con + slack for e in energies), energies + [e_con])
    residual_max = max(r["residual"] for r in rows)
    ctx.at_most(f"{model}-solve-residual", residual_max, 1e-10)
    return {
        "micromorphic.keep_ratio": len(companion) / _candidate_count(model, basis),
        "micromorphic.violation_ratio.last": rows[-1].get("violation_ratio", math.nan),
        "micromorphic.min_eig": min_eig,
        "micromorphic.residual_max": residual_max,
        "micromorphic.energy_gap.last": rows[-1]["energy_gap"],
        "study": {"constrained_energy": e_con, "rows": rows},
    }


def _penalty_cross_check(results, scratch):
    """limit-study at order 2 runs cosserat and microstrain like the ladder."""
    report, code = run_cli("limit-study", {"basis_order": 2}, 0, scratch,
                           ["--format", "json"])
    problems = _expect_exit(code, report)
    for model in ("cosserat", "microstrain"):
        theirs = report["studies"][model]
        mine = results[f"{model}-o2"]["study"]
        problems += _compare(f"{model} constrained_energy",
                             theirs["constrained_energy"], mine["constrained_energy"])
        if len(theirs["rows"]) != len(mine["rows"]):
            problems.append(f"{model}: {len(theirs['rows'])} rungs, expected {len(mine['rows'])}")
        for r_cli, r_mine in zip(theirs["rows"], mine["rows"]):
            for key in ("violation", "energy", "energy_gap", "residual"):
                problems += _compare(f"{model} rung {r_mine['penalty']:g} {key}",
                                     r_cli[key], r_mine[key])
    return problems


def penalty_ladder(seed, studies=(("cosserat", 2), ("microstrain", 2), ("cosserat", 3))):
    """Limit studies on the CLI's generic load; the seed has nothing to vary.

    The studies are deterministic: the ladder, material and load are the
    CLI defaults, so every seed measures the same inputs.
    """
    items = [Item(f"{m}-o{o}", f"{m}-o{o}", f"{m}-o{o}", partial(_study_item, m, o))
             for m, o in studies]
    return Workload(
        "penalty-ladder", items,
        {"item_s.small": "cosserat-o2", "item_s.mid": "microstrain-o2",
         "item_s.large": "cosserat-o3"},
        "study_s", "s", tuple(item.tier for item in items),
        _penalty_cross_check,
    )


WORKLOADS = {
    "calculus-sweep": calculus_sweep,
    "galerkin-solve": galerkin_solve,
    "penalty-ladder": penalty_ladder,
}


# --- CLI cross-checks --------------------------------------------------------------


def run_cli(command, config, seed, scratch, extra=()):
    """Run cli.main in-process; return its parsed JSON report and exit code."""
    path = os.path.join(scratch, f"{command}-config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", path, "--seed", str(seed), *extra])
    text = out.getvalue()
    return json.loads(text[text.index("\n{") + 1:]), code


def _expect_exit(code, report):
    expected = 0 if all(c["passed"] for c in report["checks"]) else 1
    if code != expected:
        return [f"{report['command']}: exit {code}, expected {expected}"]
    return []


def _compare(label, theirs, mine, rel=1e-9, abs_tol=1e-15):
    if math.isclose(float(theirs), float(mine), rel_tol=rel, abs_tol=abs_tol):
        return []
    return [f"{label}: cli {theirs!r} vs benchmark {mine!r}"]


# --- polyfield probes ----------------------------------------------------------------


def poly_probes(seed, degrees=(4, 8), batches=5, batch_s=0.01):
    """Median microseconds per Poly3 operation at each degree."""
    import time

    rng = np.random.default_rng(seed)
    out = {}
    for d in degrees:
        p, q = pf.random_poly(rng, d), pf.random_poly(rng, d)
        u = pf.random_vec_field(rng, d)
        ops = {
            "mul": lambda: p * q,
            "diff": lambda: p.diff(0),
            "integrate": p.integrate,
            "eval": lambda: p.eval(go.BASE_LATTICE),
            "jac": lambda: pf.jac(u),
        }
        for name, op in ops.items():
            t0 = time.perf_counter()
            op()
            reps = max(1, int(batch_s / max(time.perf_counter() - t0, 1e-7)))
            samples = []
            for _ in range(batches):
                t0 = time.perf_counter()
                for _ in range(reps):
                    op()
                samples.append((time.perf_counter() - t0) / reps * 1e6)
            out[f"polyfield.{name}_us.d{d}"] = float(np.median(samples))
    return out
