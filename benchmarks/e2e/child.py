"""One batch-workload run in a fresh interpreter.

``python -m benchmarks.e2e.child CONFIG_JSON`` imports what the CLI
imports, prints ``ready`` (the parent times set-up up to that line),
runs the workload with a cold run cache and prints one JSON line: wall
seconds, each request's time from the start of the run to its result
(every request of a batch workload is submitted at once), sha256
digests of every exported table, failures and, when traced, the
tracer's counters and the layer fold.
Spawn workers of the ``fig2_scale`` pool re-import this module, so it
does nothing at import time.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
import traceback
from typing import Any, Callable, Dict, List

#: experiments ``--quick`` runs: under a second that still reaches the
#: clustered, batch, steady and SST paths
QUICK_STUDY = ("fig5", "fig6", "fig11", "fig12", "fig_sst", "table4")


def digests(tables: Dict[str, Any]) -> Dict[str, str]:
    """sha256 of the exact bytes ``repro study --export`` writes."""
    from repro.core.export import to_csv, to_json

    out = {}
    for ident, table in tables.items():
        if table is None:
            continue
        for ext, render in (("csv", to_csv), ("json", to_json)):
            data = render(table).encode("utf-8")
            out[f"{ident}.{ext}"] = hashlib.sha256(data).hexdigest()
    return out


def _cache_counts() -> Dict[str, int]:
    from repro.core import runcache

    stats = runcache.CACHE.stats()
    return {k: stats[k] for k in ("hits", "misses", "stores", "prefix_hits")}


class CompletionClock(io.TextIOBase):
    """A ``progress_stream`` that timestamps each resolved pool task.

    :class:`repro.exec.ProgressPrinter` writes one ``  [done/total]``
    line per resolved task, in the parent, as the result arrives.
    """

    def __init__(self) -> None:
        super().__init__()
        self.times: List[float] = []

    def write(self, text: str) -> int:
        if text.startswith("  ["):
            self.times.append(time.perf_counter())
        return len(text)


def run_study(cfg: Dict[str, Any], measure: Callable) -> Dict[str, Any]:
    from repro.core.study import Study

    done: List[float] = []
    failures: List[str] = []

    def timed(ident: str, runner: Callable) -> Callable:
        def run():
            try:
                return runner()
            except Exception:
                failures.append(f"{ident}: {traceback.format_exc()}")
                return None
            finally:
                done.append(time.perf_counter())
        return run

    class TimedStudy(Study):
        """The real :meth:`Study.run`, with each experiment's result
        timestamped as it completes."""

        def experiments(self):
            return {ident: timed(ident, runner)
                    for ident, runner in super().experiments().items()}

    only = list(QUICK_STUDY) if cfg["quick"] else None
    study = TimedStudy(jobs=1)
    start = time.perf_counter()
    measure(lambda: study.run(only=only))
    wall = time.perf_counter() - start
    return dict(
        wall_s=wall,
        latencies=[t - start for t in done],
        attempted=len(done),
        failures=failures,
        digests=digests(study.results),
        cache=_cache_counts(),
    )


def run_fig2_scale(cfg: Dict[str, Any], measure: Callable) -> Dict[str, Any]:
    from repro.core.study import Study

    only = ["fig2a"] if cfg["quick"] else ["fig2a", "fig2b"]
    clock = CompletionClock()
    study = Study(full=True, jobs=cfg["jobs"], progress_stream=clock)
    failures: List[str] = []
    start = time.perf_counter()
    try:
        measure(lambda: study.run(only=only))
    except Exception:
        failures.append(traceback.format_exc())
    wall = time.perf_counter() - start
    out = dict(
        wall_s=wall,
        latencies=[t - start for t in clock.times] or [wall],
        attempted=len(clock.times) or len(only),
        failures=failures,
        digests=digests(study.results),
        cache=_cache_counts(),
    )
    report = study.run_report
    if report is not None:
        failures.extend(t["error"] or "quarantined" for t in report.quarantined)
        out["exec"] = dict(
            tasks=report.executed,
            retries=report.retries,
            quarantined=len(report.quarantined),
            pool_s=report.wall_seconds,
            replay_s=wall - report.wall_seconds,
            task_s_sum=sum(t["seconds"] for t in report.tasks),
            effective_jobs=report.effective_jobs,
        )
    return out


def run_chaos(cfg: Dict[str, Any], measure: Callable) -> Dict[str, Any]:
    from repro.chaos import run_campaign
    from repro.core import runcache

    done: List[float] = []
    failures: List[str] = []
    tables: Dict[str, Any] = {}
    cache = dict.fromkeys(("hits", "misses", "stores", "prefix_hits"), 0)

    def campaigns() -> None:
        for seed in cfg["seeds"]:
            # each campaign starts cold, as one ``repro chaos`` invocation
            for key, value in _cache_counts().items():
                cache[key] += value
            runcache.clear()
            try:
                results = run_campaign(seed=seed, fork=cfg["fork"])
            except Exception:
                failures.append(f"seed {seed}: {traceback.format_exc()}")
                results = {}
            done.append(time.perf_counter())
            tables.update({f"{seed}/{i}": t for i, t in results.items()})

    start = time.perf_counter()
    measure(campaigns)
    wall = time.perf_counter() - start
    for key, value in _cache_counts().items():
        cache[key] += value
    return dict(
        wall_s=wall,
        latencies=[t - start for t in done],
        attempted=len(cfg["seeds"]),
        failures=failures,
        digests=digests(tables),
        cache=cache,
    )


RUNNERS = {"study": run_study, "fig2_scale": run_fig2_scale, "chaos": run_chaos}


def main(argv: List[str]) -> int:
    cfg = json.loads(argv[0])
    import repro.__main__  # noqa: F401  (what ``python -m repro`` loads)
    if cfg["workload"] == "chaos":
        import repro.chaos.campaign  # noqa: F401
    print("ready", flush=True)
    if cfg.get("setup_only"):
        return 0
    runner = RUNNERS[cfg["workload"]]
    if not cfg.get("trace"):
        out = runner(cfg, lambda fn: fn())
    else:
        from repro.core import forkpoint

        from .tracing import Tracer, profiled

        profile: Dict[str, Any] = {}

        def measure(fn: Callable) -> Any:
            value, profile["layer_s"], profile["events"] = profiled(fn)
            return value

        with Tracer() as tracer:
            out = runner(cfg, measure)
        out.update(
            counters=dict(tracer.counters(), events=profile["events"]),
            layer_s=profile["layer_s"],
            forkpoint=forkpoint.STATS.stats(),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
