"""Benchmark entry point: one workload, one process, one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the package from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A human-readable
summary goes to standard error.  Exit code 0 means every answer was
right; 1 means a wrong answer or an unstable memo count (the job is
named on standard error); 2 means the package is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from harness import (
    BenchmarkError,
    Checker,
    Phase,
    Runner,
    Speedometer,
    load_program,
    measure,
    percentile,
)
from tracer import Tracer
from workloads import WORKLOADS, build_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

# set-up is repeated this many times per run and its median reported
SETUPS = 5

# span name -> per-layer self-time metric (cli.solve_ms is the total)
TIME_METRICS = {
    "formats.parse": "formats.parse_ms",
    "formats.serialize": "formats.serialize_ms",
    "decomposition.build": "decomposition.build_ms",
    "decomposition.validate": "decomposition.validate_ms",
    "fpt_indegree.solve": "fpt_indegree.solve_ms",
    "fpt_budget.solve": "fpt_budget.solve_ms",
    "oracle.solve": "oracle.solve_ms",
    "graph.check": "graph.check_ms",
    "cli.solve": "cli.self_ms",
}
LAYERS = ("formats", "decomposition", "fpt_indegree", "fpt_budget", "oracle", "graph", "cli")
COUNT_METRICS = {
    "fpt-indegree": {"memo_entries": "fpt_indegree.memo_entries", "memo_hits": "fpt_indegree.memo_hits"},
    "fpt-budget": {
        "memo_color_entries": "fpt_budget.color_entries",
        "memo_distribute_entries": "fpt_budget.distribute_entries",
        "memo_hits": "fpt_budget.memo_hits",
    },
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end_metrics(phase: Phase, setup_times: list[float]) -> dict[str, tuple[float, str]]:
    latencies_ms = [s * 1000 for s in phase.job_latencies_s()]
    p50, _ = percentile(latencies_ms, 50)
    p90, _ = percentile(latencies_ms, 90)
    return {
        "wall_s": (sum(latencies_ms) / 1000, "s"),
        "job_ms_p50": (p50, "ms"),
        "job_ms_p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer_metrics(phase: Phase) -> dict[str, tuple[float, str]]:
    """Per-layer totals for finishing every job once, summed over the
    same execution of each job that wall_s counts."""
    totals: dict[str, float] = defaultdict(float)
    for execution in phase.representatives():
        ms = 1000 * execution.scale
        for name, (self_s, total_s, calls, failed) in execution.spans.items():
            totals[TIME_METRICS[name]] += ms * self_s
            if name == "cli.solve":
                totals["cli.solve_ms"] += ms * total_s
            layer = name.split(".")[0]
            totals[f"{layer}.calls"] += calls
            totals[f"{layer}.failed"] += failed
        outcome = execution.outcome
        if outcome is not None:
            for key, metric in COUNT_METRICS.get(outcome.method, {}).items():
                totals[metric] += outcome.counts[key]
            if execution.job.route == "cli":
                totals[f"cli.picked_{outcome.method.replace('-', '_')}"] += 1
        elif execution.job.route == "cli" and execution.error == "refused":
            totals["cli.refused"] += 1

    metrics: dict[str, tuple[float, str]] = {}
    for metric in (*TIME_METRICS.values(), "cli.solve_ms"):
        metrics[metric] = (totals[metric], "ms")
    for names in COUNT_METRICS.values():
        for metric in names.values():
            metrics[metric] = (totals[metric], "count")
    for method in ("exact", "fpt_indegree", "fpt_budget"):
        metrics[f"cli.picked_{method}"] = (totals[f"cli.picked_{method}"], "count")
    metrics["cli.refused"] = (totals["cli.refused"], "count")
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (totals[f"{layer}.calls"], "count")
        metrics[f"{layer}.failed"] = (totals[f"{layer}.failed"], "count")
    budget_entries = totals["fpt_budget.color_entries"] + totals["fpt_budget.distribute_entries"]
    metrics["fpt_budget.hit_ratio"] = (_ratio(totals["fpt_budget.memo_hits"], budget_entries), "ratio")
    metrics["fpt_indegree.hit_ratio"] = (
        _ratio(totals["fpt_indegree.memo_hits"], totals["fpt_indegree.memo_entries"]),
        "ratio",
    )
    return metrics


def _ratio(hits: float, entries: float) -> float:
    return hits / (hits + entries) if hits + entries else 0.0


def _summary(workload, phase: Phase) -> str:
    jobs = len(workload.jobs)
    chosen = phase.representatives()
    lines = [
        f"workload={workload.name} jobs={jobs} executions={len(phase.executions)} "
        f"executions_per_job={len(phase.executions) / jobs:.2f} failed={phase.failed} "
        f"percentile_samples={jobs} deadline_s={workload.deadline_s:g} "
        f"unscaled_wall_s={sum(ex.raw_s for ex in chosen):.4f} "
        f"median_scale={statistics.median(ex.scale for ex in chosen):.4f}"
    ]
    lines += [f"failed job={e.job.name} reason={e.error}" for e in phase.executions if e.error]
    return "\n".join(lines)


def run_workload(args) -> int:
    setup_times = []
    speed = Speedometer()
    for _ in range(SETUPS):
        speed.start()
        start = time.perf_counter()
        wc = load_program(SRC)
        files = WORK_DIR / f"{args.workload}-s{args.seed}"
        files.mkdir(parents=True, exist_ok=True)
        workload = build_workload(wc, args.workload, args.seed, files)
        elapsed = time.perf_counter() - start - speed.overhead_s
        setup_times.append(elapsed * speed.stop())
    # set-up objects live for the whole run: keep the per-job collection
    # from rescanning them
    gc.collect()
    gc.freeze()

    runner = Runner(wc, workload.deadline_s)
    checker = Checker(wc)
    phases: list[Phase] = []
    try:
        if not args.trace:
            phases += measure(workload, runner, checker, args.seconds)
            metrics = end_to_end_metrics(phases[0], setup_times)
        else:
            metrics = _traced_run(args, workload, runner, checker, phases)
    except BenchmarkError as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        attempted = max(1, sum(len(p.executions) for p in phases))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 0, "metrics": {}}))
        return 1
    for phase in phases:
        print(_summary(workload, phase), file=sys.stderr)
    result = {
        "correct": True,
        "attempted": sum(len(p.executions) for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _traced_run(args, workload, runner, checker, phases) -> dict[str, tuple[float, str]]:
    """Every job untraced and traced in turn, then the probes untraced."""
    tracer = Tracer(runner.wc)
    phases += measure(workload, runner, checker, args.seconds, tracer)
    tracer.write(WORK_DIR / f"trace-{args.workload}-s{args.seed}.json")
    untraced, traced = phases
    metrics = per_layer_metrics(traced)
    overhead = sum(traced.job_latencies_s()) - sum(untraced.job_latencies_s())
    metrics["trace.overhead_s"] = (overhead, "s")

    failed_probes = 0
    for job in workload.probes:
        execution = runner.run(job)
        checker.check(execution)
        failed_probes += execution.error is not None
        print(f"probe job={job.name} result={execution.error or 'ok'}", file=sys.stderr)
    metrics["probes.failed"] = (failed_probes, "count")
    return metrics


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    ok = True
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        result = json.loads(lines[-1])
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:9s} {metric:30s} {entry['value']:14.4f} {entry['unit']}", file=sys.stderr)
            merged["metrics"][f"{name}.{metric}"] = entry
    merged["correct"] = ok
    print(json.dumps(merged))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "wicolor" / "__init__.py").is_file():
        print(f"no package at {SRC / 'wicolor'}; run from a full checkout", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    raise SystemExit(main())
