"""Benchmark driver for tracegeo.

    python3 perfbench/run.py --workload {cli-cold,lattice,fields} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src.
Every pass of the workload runs in a fresh interpreter, so lazy caches
start cold as they do for a CLI or script user, and one caller runs one
operation after another (a closed loop).  --seconds sets how many passes
run: as many as fill it at the reference host speed (REF_PASS_S), and at
least two.  The count depends on nothing measured, so every run of a
workload has the same number of latency samples and reports its tail at
the same percentile.  Each operation's answer is checked against an
independent expectation after its clock stops; failures are counted and
listed, not raised.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  Their times
are scaled to a reference host speed: a fixed pure-Python loop
(ops.canary_ms) runs between operations at least every 0.25 s, outside
the timed regions, and each time is multiplied by CANARY_REF_MS over the
loop's time next to it.  On a shared host the CPU speed drifts by tens
of percent within a minute; the loop follows that drift (correlation
0.89 with tracegeo work on a 2-core sandbox) and scaling halves the
spread between runs.  The driver and every process it starts stay on
one CPU, so the loop and the work share a core.  The unscaled times are
in the report line.

--trace 1 alternates untraced and traced passes and prints the
per-layer metrics: spans recorded around the benchmark's own calls into
each tracegeo module, import times from `python -X importtime`, and the
tracing overhead; the spans are written to perfbench/out/.  Per-layer
times are not scaled, except that trace.overhead_s compares the scaled
walls of the traced and untraced passes.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the lines before it give the run context (versions, commit, a canary
loop timed at start and end to show host-speed drift) and a report
naming every failed operation.  `correct` is false when an operation
fails that is not one of the known defects in ops.KNOWN_DEFECTS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

import clicold
from ops import KNOWN_DEFECTS, canary_ms, run_pass
from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-cold", "lattice", "fields")
IMPORT_REPS = 3
# Canary time on a quiet host; end-to-end times are scaled to it.
CANARY_REF_MS = 10.0
# A pass's time, canary-scaled to the reference speed, at the commit
# that defined the benchmark.
REF_PASS_S = {"cli-cold": 12.5, "lattice": 8.5, "fields": 4.2}
MIN_PASSES = 2
PASS_TIMEOUT_S = 150
MODULES = ("root_datum", "invariants_k", "nilpotent_orbits",
           "parabolic_lattice", "local_data", "error_budget", "arithmetic",
           "oracles", "mellin_fp")
COUNTERS = ("root_datum.roots", "invariants_k.routes_null",
            "invariants_k.disagree", "nilpotent_orbits.orbits",
            "parabolic_lattice.subsets", "error_budget.surd_draws",
            "oracles.matrices", "mellin_fp.evals")
SUB_BUSY = ("local_data.small", "local_data.large", "error_budget.beta_max",
            "error_budget.lambda_min", "error_budget.exponents")
CLI_SUBS = ("k", "orbits", "parabolics", "discriminant", "index", "levels",
            "mellin-fp", "budget", "error")
IMPORTED = ("tracegeo", "sympy", "scipy", "numpy")


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def _child(argv: list[str], env: dict, timeout: float):
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv[:4])} exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return done


def _pin_to_one_cpu() -> int | None:
    """Keep this process and the children it starts on one CPU, so the
    canary and the work it scales see the same core's speed."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _context(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            **{name: metadata.version(name)
               for name in ("numpy", "scipy", "sympy")},
            "commit": commit, "src_sha256": digest.hexdigest()}


def _import_times(env: dict) -> dict[str, float]:
    """Seconds per package from one `python -X importtime` run: the
    cumulative time for tracegeo, the summed self time of each
    dependency's modules."""
    done = _child([sys.executable, "-X", "importtime", "-c",
                   "import tracegeo"], env, 60)
    out = dict.fromkeys(IMPORTED, 0.0)
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        top = name.split(".")[0]
        if name == "tracegeo":
            out["tracegeo"] = int(parts[1]) / 1e6
        elif top in out and top != "tracegeo":
            out[top] += int(parts[0].split(":")[1]) / 1e6
    return out


def _worker_pass(env: dict, workload: str, seed: int, traced: bool) -> dict:
    done = _child([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--trace", str(int(traced))], env, PASS_TIMEOUT_S)
    return json.loads(done.stdout)


def _cli_pass(env: dict, seed: int, traced: bool) -> dict:
    tracer = Tracer(traced)
    records = run_pass(clicold.ops(seed, env, str(ROOT)), tracer)
    return {"records": records, "spans": tracer.spans,
            "counters": tracer.counters}


def _wall(p: dict) -> float:
    return sum(r["s"] for r in p["records"])


def _scaled(seconds: float, canary: float) -> float:
    """A time scaled to the reference host speed by the canary timed
    next to it."""
    return seconds * CANARY_REF_MS / canary


def _median_wall(passes: list[dict], scaled: bool) -> float:
    """The sequence's time from each operation's median over the passes,
    so a slow spell of the host in one pass counts only where it fell."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for r in p["records"]:
            times.setdefault(r["id"], []).append(
                _scaled(r["s"], r["canary_ms"]) if scaled else r["s"])
    return sum(statistics.median(t) for t in times.values())


def _tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it, by
    nearest rank, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(0, math.floor(100 * (1 - 10 / n)))
    return pct, ordered[max(0, math.ceil(pct * n / 100) - 1)]


def _layer_metrics(p: dict) -> dict[str, tuple[float, str]]:
    """Per-layer values of one traced pass; busy time is self time."""
    spans = p["spans"]
    busy: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for span, own in zip(spans, self_times(spans)):
        if span[0] == "op":
            continue
        module, call = span[0].split(".", 1)
        calls[module] += 1
        busy[module] += own
        busy[f"{module}.{call}"] += own
        if span[1]:
            busy[f"{module}.{span[1]}"] += own
    failed = Counter(r["module"] for r in p["records"] if r["error"])
    out: dict[str, tuple[float, str]] = {}
    for m in MODULES:
        out[f"{m}.calls"] = (calls[m], "count")
        out[f"{m}.busy_s"] = (busy[m], "s")
        out[f"{m}.failed"] = (failed[m], "count")
    for name in COUNTERS:
        out[name] = (p["counters"].get(name, 0), "count")
    for name in SUB_BUSY:
        out[f"{name}.busy_s"] = (busy[name], "s")
    for sub in CLI_SUBS:
        walls = [r["s"] * 1000 for r in p["records"]
                 if r["module"] == "cli" and r["kind"].split(".")[1] == sub]
        out[f"cli.{sub}.wall_ms"] = (statistics.median(walls)
                                     if walls else 0.0, "ms")
    out["cli.failed"] = (failed["cli"], "count")
    out["trace.uncovered_s"] = (_wall(p) - sum(
        v for k, v in busy.items() if "." not in k), "s")
    return out


def _median_metrics(rows: list[dict]) -> dict[str, tuple[float, str]]:
    return {name: (statistics.median(row[name][0] for row in rows), unit)
            for name, (_, unit) in rows[0].items()}


def run(args) -> tuple[list[dict], dict]:
    """Run one benchmark; returns the lines to print before the result
    and the result."""
    if not (ROOT / "src" / "tracegeo" / "__init__.py").is_file():
        raise BenchError(f"no tracegeo package under {ROOT / 'src'}")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    context = _context(args)
    context["cpu"] = _pin_to_one_cpu()
    context["canary_start_ms"] = canary_ms()
    setup, imports = [], []
    for _ in range(IMPORT_REPS):
        if args.trace:
            imports.append(_import_times(env))
        else:
            before = canary_ms()
            start = perf_counter()
            _child([sys.executable, "-c", "import tracegeo"], env, 60)
            elapsed = perf_counter() - start
            setup.append((elapsed, (before + canary_ms()) / 2))

    passes: list[tuple[bool, dict]] = []
    n_passes = max(MIN_PASSES,
                   round(args.seconds / REF_PASS_S[args.workload]))
    for i in range(n_passes):
        traced = bool(args.trace) and i % 2 == 1
        if args.workload == "cli-cold":
            passes.append((traced, _cli_pass(env, args.seed, traced)))
        else:
            passes.append((traced, _worker_pass(env, args.workload,
                                                args.seed, traced)))
    context["canary_end_ms"] = canary_ms()

    untraced = [p for traced, p in passes if not traced]
    traced_passes = [p for traced, p in passes if traced]
    records = [r for _, p in passes for r in p["records"]]
    failures: dict[str, dict] = {}
    for r in records:
        if r["error"]:
            entry = failures.setdefault(r["id"], {
                "kind": r["kind"], "error": r["error"], "count": 0,
                "known_defect": KNOWN_DEFECTS.get(r["kind"])})
            entry["count"] += 1
    failed = sum(f["count"] for f in failures.values())
    untraced_records = [r for p in untraced for r in p["records"]]
    latencies = [_scaled(r["s"], r["canary_ms"]) for r in untraced_records]
    pct, tail = _tail(latencies)
    report = {"passes": len(passes), "traced_passes": len(traced_passes),
              "pass_wall_s": [_wall(p) for _, p in passes],
              "ops_per_pass": len(passes[0][1]["records"]),
              "latency_samples": len(latencies), "tail_percentile": pct,
              "fail_ratio": failed / len(records), "failures": failures,
              "canary_median_ms": statistics.median(
                  r["canary_ms"] for r in records)}

    if args.trace:
        metrics = _median_metrics([_layer_metrics(p) for p in traced_passes])
        for name in IMPORTED:
            metrics[f"import.{name}_s"] = (
                statistics.median(t[name] for t in imports), "s")
        traced_wall = _median_wall(traced_passes, scaled=False)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (
            _median_wall(traced_passes, scaled=True)
            - _median_wall(untraced, scaled=True), "s")
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        trace_file = out / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"context": context, "passes": [
                {"spans": p["spans"], "counters": p["counters"]}
                for p in traced_passes]}))
        report["trace_file"] = trace_file.relative_to(ROOT).as_posix()
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(_scaled(*s) for s in setup), "s"),
            "wall_s": (_median_wall(untraced, scaled=True), "s"),
            "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "op_tail_ms": (tail * 1000, "ms"),
            "peak_rss_mb": (rss / 1024, "MB"),
            # 1 - fail_ratio, which reads 0 on a workload without failures
            "ok_ratio": (1 - report["fail_ratio"], "ratio")}
        raw = [r["s"] for r in untraced_records]
        report["unscaled"] = {
            "setup_s": statistics.median(s for s, _ in setup),
            "wall_s": _median_wall(untraced, scaled=False),
            "op_p50_ms": statistics.median(raw) * 1000,
            "op_tail_ms": _tail(raw)[1] * 1000}
    result = {
        "correct": all(f["known_defect"] for f in failures.values()),
        "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())}}
    return [{"context": context}, {"report": report}], result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
