"""Command line: ``run`` the workloads, ``compare`` two reports.

``python -m benchmarks.e2e run [--workload W] [--seed S] [--seconds T |
--repeats N] [--trace 0|1|both] [--quick] [-o OUT.json]`` prints every
metric by name and unit and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 1 when
an output differs from its reference or an operation failed, and 2 when
the benchmark cannot run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional

from . import harness
from .compare import compare
from .harness import PER_LAYER_UNITS, WORKLOADS, BenchError
from .stats import spread


def load_benchmark(root: str = harness.ROOT) -> Dict[str, Any]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _table(rows: List[List[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def render(workload: str, result: Dict[str, Any]) -> str:
    lines = [f"== {workload} =="]
    if "metrics" in result:
        rows = [["metric", "unit", "median", "q1", "q3", "n", "spread"]]
        for name, m in result["metrics"].items():
            rows.append([name, m["unit"], f"{m['median']:.6g}", f"{m['q1']:.6g}",
                         f"{m['q3']:.6g}", str(m["n"]), f"{spread(m):.1%}"])
        lines.append(_table(rows))
        tail = result["tail_percentile"]
        lines.append(f"req_tail_ms is p{tail['percentile']:.4g} over "
                     f"n={tail['n']} requests per run")
    if "layers" in result:
        rows = [["layer metric", "unit", "value"]]
        for name, value in result["layers"].items():
            rows.append([name, PER_LAYER_UNITS[name], f"{value:.6g}"])
        lines.append(_table(rows))
        named = 1.0 - result["layers"]["external.self_share"]
        lines.append(f"profiled time in named repro layers: {named:.1%}")
    lines.append(
        f"outputs_mismatched {result['outputs_mismatched']}  "
        f"fail_frac {result['fail_frac']:.4g} "
        f"({result['failed']}/{result['attempted']})"
    )
    return "\n".join(lines)


def result_line(results: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The result object printed last; with several workloads, metric
    names are prefixed by the workload."""
    metrics: Dict[str, Any] = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for name, m in result.get("metrics", {}).items():
            metrics[prefix + name] = dict(value=m["median"], unit=m["unit"])
        for name, value in result.get("layers", {}).items():
            metrics[prefix + name] = dict(value=value, unit=PER_LAYER_UNITS[name])
    return dict(
        correct=all(r["correct"] for r in results.values()),
        attempted=sum(r["attempted"] for r in results.values()),
        failed=sum(r["failed"] for r in results.values()),
        metrics=metrics,
    )


def cmd_run(args) -> int:
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    repeats = 1 if args.quick and args.repeats is None else args.repeats
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    started = time.perf_counter()
    ctx = harness.prepare(args.seed, args.quick)
    results: Dict[str, Dict[str, Any]] = {}
    try:
        for workload in workloads:
            budget = harness.Budget(seconds, repeats,
                                    harness.MIN_RUNS.get(workload, 1))
            results[workload] = harness.run_workload(ctx, workload, args.trace, budget)
            print(render(workload, results[workload]), flush=True)
            for problem in (results[workload]["mismatches"]
                            + results[workload]["failures"])[:20]:
                print(f"  ! {problem.strip()}", file=sys.stderr)
    finally:
        harness.cleanup(ctx)
    total = time.perf_counter() - started
    print(f"total {total:.1f} s on {os.cpu_count()} cpus", flush=True)
    if args.output:
        report = dict(
            schema=1,
            host=dict(cpus=os.cpu_count(), python=platform.python_version(),
                      machine=platform.machine()),
            seed=args.seed, quick=args.quick, trace=args.trace,
            seconds=seconds, repeats=repeats, total_s=total,
            workloads=results,
        )
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    line = result_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def cmd_compare(args) -> int:
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    rows, regressions = compare(base, new, load_benchmark())
    print("\n".join(rows))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and check their outputs")
    run.add_argument("--workload", choices=WORKLOADS,
                     help="one workload (default: all four)")
    run.add_argument("--seed", type=int, default=1,
                     help="input seed (default 1; seed 2 is held out)")
    budget = run.add_mutually_exclusive_group()
    budget.add_argument("--seconds", type=float,
                        help="as many timed runs as bring the measured time "
                             "closest to T (default: BENCHMARK.json "
                             "run_seconds)")
    budget.add_argument("--repeats", type=int, help="exactly N timed runs")
    run.add_argument("--trace", choices=("0", "1", "both"), default="both",
                     help="0: timed runs, end-to-end metrics; 1: the traced "
                          "run, per-layer metrics; both (default)")
    run.add_argument("--quick", action="store_true",
                     help="one repeat of reduced workloads, same checks")
    run.add_argument("-o", "--output", help="write the full report here")
    cmp = sub.add_parser("compare", help="verdicts of NEW against BASE")
    cmp.add_argument("base")
    cmp.add_argument("new")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = parser().parse_args(argv)
    try:
        return cmd_run(args) if args.command == "run" else cmd_compare(args)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
