"""``repro.exec`` — the parallel study scheduler.

Four modules:

* :mod:`.plan`   — enumerate every experiment's ``run_coupled`` points
  into a deduplicated work-plan (content-addressed by the run cache's
  config key);
* :mod:`.pool`   — :class:`WorkerPool`, the one spawn worker pool: warm
  workers, crash retry and quarantine, recycling, per-point
  single-flight, graceful drain, sharing the on-disk run cache;
* :mod:`.flight` — :class:`~repro.exec.flight.SingleFlight`, coalescing
  concurrent identical computations onto one leader;
* :mod:`.report` — live progress/ETA plus the JSON run report.

:func:`execute_parallel` ties them together.  It never *produces* the
tables itself: worker results are seeded into the in-process run
cache, and the caller replays the experiments serially in canonical
order — every point a cache hit — so ``results/*`` are byte-identical
at any job count.  Planning runs repeat (bounded) because some points
hide behind data-dependent branches: round 1 captures the
unconditional sweep, round 2 re-plans against real results and
captures e.g. the Figure 3 remediation reruns that only happen after a
real failure.

The execution backend is pluggable.  By default every call starts one
:class:`WorkerPool`, runs all its planning rounds on it and shuts it
down; pass ``runner=`` anything with a ``run(tasks, progress=None) ->
outcomes`` method instead — the serve daemon passes its own started
:class:`WorkerPool`, and ``service=`` an address of a running
``python -m repro serve`` daemon is sugar for
:class:`repro.serve.client.ServiceRunner`, so batch campaigns share
the daemon's resident workers and cross-process cache.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Mapping, Optional, TextIO

from .plan import PlannedTask, WorkPlan, build_plan
from .pool import PoolInterrupted, TaskOutcome, WorkerPool, effective_jobs
from .report import ProgressPrinter, RunReport

__all__ = [
    "PlannedTask",
    "WorkPlan",
    "build_plan",
    "PoolInterrupted",
    "TaskOutcome",
    "WorkerPool",
    "effective_jobs",
    "ProgressPrinter",
    "RunReport",
    "execute_parallel",
]

#: planning rounds are cheap; two normally suffice (sweep + remediation)
MAX_ROUNDS = 3


def execute_parallel(
    experiments: Mapping[str, Callable[[], Any]],
    jobs: int,
    cache_dir: Optional[str] = None,
    report_path: Optional[str] = None,
    progress_stream: Optional[TextIO] = None,
    runner: Optional[Any] = None,
    service: Optional[str] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> RunReport:
    """Plan, execute and cache-seed the experiments' simulation points.

    Returns the :class:`RunReport`; the caller still runs every
    experiment afterwards (now against a warm cache) to build the
    actual tables.

    ``runner`` swaps the per-call :class:`WorkerPool` for a caller-owned
    backend (``run(tasks, progress=None) -> {key: TaskOutcome}``);
    ``service`` is shorthand for a :class:`repro.serve.client.ServiceRunner`
    bound to that daemon address.  ``progress`` receives every task
    event (plus one ``status="round"`` event per planning round)
    instead of the default stream printer — the daemon uses it to relay
    events to streaming clients.
    """
    if service is not None and runner is None:
        from ..serve.client import ServiceRunner

        runner = ServiceRunner(service)
    pool = None
    if runner is None:
        runner = pool = WorkerPool(jobs=jobs, cache_dir=cache_dir)
    try:
        report = _run_rounds(experiments, jobs, runner, progress_stream, progress)
    finally:
        if pool is not None:
            pool.shutdown()
    if report_path:
        report.write(report_path)
    return report


def _run_rounds(experiments, jobs, runner, progress_stream, progress) -> RunReport:
    from ..core import forkpoint, runcache

    start = time.monotonic()
    workers = getattr(runner, "effective", None) or effective_jobs(jobs)
    report = RunReport(jobs=jobs, effective_jobs=workers)
    for round_no in range(1, MAX_ROUNDS + 1):
        plan = build_plan(experiments)
        tasks = [t for t in plan.tasks if t.key not in report.quarantined_keys]
        if not tasks:
            if round_no == 1:
                report.absorb(round_no, plan, {})
                if progress is not None:
                    # streaming clients still get the planning summary
                    # ("0 points to simulate, N already cached")
                    progress(
                        dict(
                            status="round", round=round_no, total=0,
                            total_refs=plan.total_refs,
                            deduped_refs=plan.deduped_refs,
                            cache_hits=plan.cache_hits, workers=workers,
                        )
                    )
            break
        if progress is not None:
            progress(
                dict(
                    status="round",
                    round=round_no,
                    total=len(tasks),
                    total_refs=plan.total_refs,
                    deduped_refs=plan.deduped_refs,
                    cache_hits=plan.cache_hits,
                    workers=workers,
                )
            )
        elif progress_stream is not None:
            print(
                f"round {round_no}: {len(tasks)} points to simulate "
                f"({plan.total_refs} calls, {plan.deduped_refs} deduped, "
                f"{plan.cache_hits} already cached) on {workers} workers",
                file=progress_stream,
                flush=True,
            )
        on_event = progress or ProgressPrinter(len(tasks), progress_stream)
        outcomes = runner.run(tasks, progress=on_event)
        for key, outcome in outcomes.items():
            if outcome.result is not None:
                runcache.CACHE.seed(key, outcome.result)
        report.absorb(round_no, plan, outcomes,
                      batch_sizes=getattr(runner, "batch_sizes", []))
        if any(o.status == "cancelled" for o in outcomes.values()):
            break  # the runner is stopping: re-planning would resubmit
    report.wall_seconds = time.monotonic() - start
    report.runcache = runcache.CACHE.stats()
    report.forkpoint = forkpoint.STATS.stats()
    return report
