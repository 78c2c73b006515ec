"""Benchmark of the couplestress package: one workload per run, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload calculus-sweep --seed 1 --seconds 20 --trace 0

The run builds its inputs from --seed, runs the workload's items for
about --seconds (one full pass, then repeats), times them in units of the
host's speed (see hostspeed), re-checks every contract, cross-checks one
item against ``cli.main``, and prints human-readable lines followed by one
JSON object as the last line.
With --trace 0 that object holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 every item runs once untraced and once traced, the object
holds the per-layer metrics, and the spans are written as JSON lines to
.perfbench/trace-<workload>-seed<seed>.jsonl.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

# The single-threaded baseline: pin BLAS and OpenMP pools before numpy loads.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

SETUP_PROBES = 5  # fresh-interpreter set-ups per run, whose median is setup_s
OUT_DIR = ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build inputs, print the seconds taken, exit")
    return parser.parse_args(argv)


def setup(workload, seed):
    """Import the package and build the workload's inputs; (workload, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; "
                         f"one of {', '.join(workloads.WORKLOADS)}")
    built = workloads.WORKLOADS[workload](seed)
    return built, time.perf_counter() - t0


def probe_setup(args, clock):
    """One set-up in a fresh interpreter, in units of the host's speed.

    The child reports its own seconds; they are scaled by the host's speed
    around the child, as the clock measured it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    done, wall, scaled = clock.time(
        lambda: subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True),
        sample=False)
    return float(done.stdout.split()[-1]) * scaled / wall


def machine_facts(seed):
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in _THREAD_VARS},
        "seed": seed,
    }


def execute(item, tracer, stats):
    """Run one item once; return (figures or None, check rows)."""
    import workloads

    ctx = workloads.ItemContext(tracer, item)
    stats["attempted"] += 1
    try:
        with tracer.span("bench.item", item.id, item.tag):
            figures = item.run(ctx)
    except Exception:  # a failing item is reported and the run goes on
        print(f"item {item.id} raised:\n{traceback.format_exc()}", file=sys.stderr)
        stats["failed"] += 1
        return None, ctx.checks
    unexpected = [name for name, ok in ctx.checks
                  if not ok and (item.tier, name) not in workloads.KNOWN_FAILURES]
    if unexpected:
        print(f"item {item.id}: unexpected contract failures {unexpected}", file=sys.stderr)
        stats["failed"] += 1
    return figures, ctx.checks


def _next_item(wl, cursor, counts, tier_s, last, time_left):
    """The next item of the tier with the fewest samples whose run fits.

    Of tiers with as many samples, the one that has taken the least time
    goes first. Items of one tier take turns, so every input of the tier
    is repeated.
    """
    for tier in sorted(cursor, key=lambda t: (counts[t], tier_s[t])):
        members = [item for item in wl.items if item.tier == tier]
        item = members[cursor[tier] % len(members)]
        if last[item.id] <= time_left:
            cursor[tier] += 1
            return item
    return None


@dataclass
class Samples:
    plain: dict  # item id -> seconds of each untraced execution
    scaled: dict  # item id -> the same executions in units of the host's speed
    traced: dict  # item id -> number of traced executions
    tracer: object  # the Tracer that recorded the traced executions
    first: dict  # item id -> (figures, contract checks) of its first execution
    stats: dict  # attempted and failed executions
    reference: list  # seconds of every host-speed reference time


def measure(wl, seconds, trace, clock):
    """One pass in order, then repeats of the tiers of the item_s metrics.

    After the pass the run repeats items of the metric tier that has the
    fewest samples so far, so that every tier's figure rests on about as
    many samples; other tiers run once. An item starts only if its last
    execution still fits in the time left, so the run ends within about
    --seconds. The untraced executions are timed by the HostClock.
    """
    from spans import Tracer

    off = Tracer(False)
    out = Samples({item.id: [] for item in wl.items}, {item.id: [] for item in wl.items},
                  {item.id: 0 for item in wl.items}, Tracer(True), {},
                  {"attempted": 0, "failed": 0}, clock.references)
    cursor = dict.fromkeys(wl.tiers.values(), 0)
    counts = dict.fromkeys(cursor, 0)
    tier_s = dict.fromkeys(cursor, 0.0)
    last = {}
    start = time.perf_counter()
    queue = list(wl.items)
    while True:
        if queue:
            item = queue.pop(0)
        else:
            time_left = seconds - (time.perf_counter() - start)
            item = _next_item(wl, cursor, counts, tier_s, last, time_left)
            if item is None:
                break
        t0 = time.perf_counter()
        gc.collect()  # every execution starts from the same collector state
        (figures, checks), dt, scaled = clock.time(lambda: execute(item, off, out.stats))
        out.first.setdefault(item.id, (figures, checks))
        out.plain[item.id].append(dt)
        out.scaled[item.id].append(scaled)
        if trace:
            execute(item, out.tracer, out.stats)
            out.traced[item.id] += 1
            clock.refresh()
        last[item.id] = time.perf_counter() - t0
        if item.tier in tier_s:
            counts[item.tier] += 1
            tier_s[item.tier] += last[item.id]
    return out


def contract_counts(wl, first):
    evaluated = failed = 0
    failures = {}
    for item in wl.items:
        for name, ok in first[item.id][1]:
            evaluated += 1
            if not ok:
                failed += 1
                key = (item.tier, name)
                failures[key] = failures.get(key, 0) + 1
    return evaluated, failed, failures


def central(values):
    """The mean of the middle half of the values; their median up to four."""
    values = sorted(values)
    if len(values) <= 4:
        return statistics.median(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(wl, samples, setup_samples):
    """Tier times are the central value (see central) over every repeat of
    the tier's items of the execution time in units of the host's speed.

    The items of one tier do the same work on different inputs (fields of
    one degree, solves of one order, one study). On a shared host other
    load slows everything, in bursts and in stretches longer than a run,
    and the reference kernel slows with it: see hostspeed. The figures
    stay close to seconds on a quiet host. ``run_s`` is one pass at those
    per-item times.
    """
    by_tier, scaled = {}, {}
    for item in wl.items:
        by_tier.setdefault(item.tier, []).extend(samples.plain[item.id])
        scaled.setdefault(item.tier, []).extend(samples.scaled[item.id])
    tier_s = {tier: central(times) for tier, times in scaled.items()}
    values = {
        "setup_s": statistics.median(setup_samples),
        "run_s": sum(tier_s[item.tier] for item in wl.items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for metric, tier in wl.tiers.items():
        values[metric] = tier_s[tier]
    return values, by_tier, tier_s


def per_layer(wl, samples, cli_seconds, probes, contracts):
    tracer, traced = samples.tracer, samples.traced
    stage, _ = tracer.totals_by(
        lambda s: f"{s['name']}_ms" + (f".{s['tag']}" if s["tag"] else ""), traced)
    module_s, module_calls = tracer.totals_by(lambda s: s["name"].split(".")[0], traced)
    values = {k: v * 1e3 for k, v in stage.items()}
    for module, secs in module_s.items():
        values[f"{module}.self_ms"] = secs * 1e3
        values[f"{module}.calls"] = module_calls[module]
    untraced = sum(statistics.fmean(samples.plain[item.id]) for item in wl.items)
    traced_run = sum(module_s.values())
    values.update({
        "trace.run_s": traced_run,
        "trace.untraced_run_s": untraced,
        "trace.overhead_s": traced_run - untraced,
        "cli.main_ms": cli_seconds * 1e3,
        "host.reference_ms": statistics.median(samples.reference) * 1e3,
    })
    values.update(probes)
    evaluated, failed, _ = contracts
    values.update({"contracts.evaluated": evaluated, "contracts.failed": failed,
                   "contract_fail_frac": failed / evaluated})
    health = {}
    for item in wl.items:
        figures = samples.first[item.id][0] or {}
        for key, v in figures.items():
            if not key.startswith(("solver.", "micromorphic.")):
                continue
            name = f"{key}.{item.tag}"
            worst = min if key.endswith("min_eig") else max
            health[name] = worst(health[name], v) if name in health else v
    values.update(health)
    return values


def emit(spec_metrics, values, correct, stats):
    """Print the result line: every declared metric, absent ones as 0.

    JSON has no place for a non-finite number: such a metric is printed as
    0 and makes the run incorrect.
    """
    metrics = {}
    for m in spec_metrics:
        value = float(values.get(m["name"], 0.0))
        if not math.isfinite(value):
            print(f"metric {m['name']} is not finite: {value}", file=sys.stderr)
            correct, value = False, 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "couplestress", "__init__.py")):
        print("perfbench: no package sources at ./src/couplestress; "
              "run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wl, setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import hostspeed
    import workloads

    clock = hostspeed.HostClock()
    setup_samples = [probe_setup(args, clock) for _ in range(SETUP_PROBES)]

    facts = machine_facts(args.seed)
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))

    samples = measure(wl, args.seconds, bool(args.trace), clock)
    stats = samples.stats

    os.makedirs(OUT_DIR, exist_ok=True)
    results = {item_id: figures for item_id, (figures, _) in samples.first.items()}
    t0 = time.perf_counter()
    if any(figures is None for figures in results.values()):
        problems = ["cross-check skipped: an item raised"]
    else:
        problems = wl.cross_check(results, OUT_DIR)
    cli_seconds = time.perf_counter() - t0
    for p in problems:
        print(f"cross-check mismatch: {p}", file=sys.stderr)
    print(f"cross-check against cli.main: {'agree' if not problems else 'MISMATCH'}")

    contracts = contract_counts(wl, samples.first)
    evaluated, failed, failures = contracts
    print(f"contract_fail_frac = {failed / evaluated:.6g} "
          f"({failed} failed of {evaluated} evaluated, one pass)")
    for (tier, name), count in sorted(failures.items()):
        known = " (known)" if (tier, name) in workloads.KNOWN_FAILURES else ""
        print(f"  FAIL {name}@{tier} x{count}{known}")

    correct = stats["failed"] == 0 and not problems
    e2e, by_tier, tier_s = end_to_end(wl, samples, setup_samples)
    print(f"host speed: reference kernel median {statistics.median(samples.reference) * 1e3:.4g}"
          f" ms of {len(samples.reference)}; the tier times are in units of it")
    unit = 1e3 if wl.report_unit == "ms" else 1.0
    for tier in wl.report_tiers:
        times = by_tier[tier]
        print(f"{wl.report_prefix}.{tier} = {tier_s[tier] * unit:.6g} {wl.report_unit} "
              f"(raw median of {len(times)}: {statistics.median(times) * unit:.6g})")
    for name in ("setup_s", "run_s", "peak_rss_mb"):
        print(f"{name} = {e2e[name]:.6g}")

    if not args.trace:
        emit(spec["end_to_end"], e2e, correct, stats)
        return 0

    probes = workloads.poly_probes(args.seed)
    values = per_layer(wl, samples, cli_seconds, probes, contracts)
    path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.jsonl")
    samples.tracer.write_jsonl(path, {"workload": wl.name, "machine": facts, "metrics": values})
    print(f"trace: {len(samples.tracer.spans)} spans written to {path}")
    emit(spec["per_layer"], values, correct, stats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
