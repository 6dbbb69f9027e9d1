"""``repro.exec`` — the parallel study scheduler.

Three modules:

* :mod:`.plan`   — enumerate every experiment's ``run_coupled`` points
  into a deduplicated work-plan (content-addressed by each point's
  :attr:`~repro.workflows.driver.RunSpec.key`);
* :mod:`.pool`   — :class:`WorkerPool`, the one spawn worker pool: warm
  workers, crash retry and quarantine, recycling, graceful drain,
  sharing the on-disk run cache;
* :mod:`.report` — live progress/ETA plus the JSON run report.

:func:`build_tables` builds a campaign's tables (``Study.run``,
``repro chaos``, ``run_campaign``).  With ``jobs > 1`` or a daemon it
first has :func:`execute_parallel` seed the in-process run cache with
the points' results; it then replays every experiment serially in
catalog order, every point a cache hit, so ``results/*`` are
byte-identical at any job count.  Planning runs repeat (bounded)
because some points hide behind data-dependent branches: round 1
captures the unconditional sweep, round 2 re-plans against real results
and captures e.g. the Figure 3 remediation reruns that only happen
after a real failure.

The execution backend is pluggable.  By default every call starts one
:class:`WorkerPool`, runs all its planning rounds on it and shuts it
down; pass ``runner=`` anything with a ``run(tasks, progress=None) ->
outcomes`` method instead (a started :class:`WorkerPool` stays
started), and ``service=`` an address of a running ``python -m repro
serve`` daemon is sugar for :class:`repro.serve.client.ServiceRunner`,
so batch campaigns share the daemon's resident workers and
cross-process cache while planning and replay stay in the caller.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Mapping, Optional, TextIO, Tuple

from .plan import PlannedTask, WorkPlan, build_plan
from .report import ProgressPrinter, RunReport

# :mod:`.pool` (multiprocessing and its kin) is imported only by a run
# whose points go to a pool or a daemon: a serial build_tables, which
# every serial study and chaos campaign takes, never pays for it.
__all__ = [
    "PlannedTask",
    "WorkPlan",
    "build_plan",
    "ProgressPrinter",
    "RunReport",
    "build_tables",
    "execute_parallel",
]

#: planning rounds are cheap; two normally suffice (sweep + remediation)
MAX_ROUNDS = 3


def build_tables(
    experiments: Mapping[str, Callable[[], Any]],
    jobs: int = 1,
    service: Optional[str] = None,
    cache_dir: Optional[str] = None,
    report_path: Optional[str] = None,
    progress_stream: Optional[TextIO] = None,
) -> Tuple[Dict[str, Any], Optional[RunReport]]:
    """Build every experiment's table; returns ``(tables, run report)``.

    With ``jobs > 1`` or a ``service`` address the points are planned
    and executed first (:func:`execute_parallel`, which gets the other
    arguments); the report is None for a serial run.  Either way the
    tables come from one serial replay in catalog order, so the merge
    order, and every rendered byte, is the serial run's.
    """
    report = None
    if (jobs > 1 or service) and experiments:
        report = execute_parallel(
            experiments, jobs=jobs, cache_dir=cache_dir,
            report_path=report_path, progress_stream=progress_stream,
            service=service,
        )
    tables = {ident: runner() for ident, runner in experiments.items()}
    return tables, report


def execute_parallel(
    experiments: Mapping[str, Callable[[], Any]],
    jobs: int,
    cache_dir: Optional[str] = None,
    report_path: Optional[str] = None,
    progress_stream: Optional[TextIO] = None,
    runner: Optional[Any] = None,
    service: Optional[str] = None,
) -> RunReport:
    """Plan, execute and cache-seed the experiments' simulation points.

    Returns the :class:`RunReport`; :func:`build_tables` then runs every
    experiment (now against a warm cache) to build the actual tables.

    ``runner`` swaps the per-call :class:`WorkerPool` for a caller-owned
    backend (``run(tasks, progress=None) -> {key: TaskOutcome}``);
    ``service`` is shorthand for a :class:`repro.serve.client.ServiceRunner`
    bound to that daemon address.  Each round's summary and task lines
    go to ``progress_stream``.
    """
    if service is not None and runner is None:
        from ..serve.client import ServiceRunner

        runner = ServiceRunner(service)
    pool = None
    if runner is None:
        from .pool import WorkerPool

        runner = pool = WorkerPool(jobs=jobs, cache_dir=cache_dir)
    try:
        report = _run_rounds(experiments, jobs, runner, progress_stream)
    finally:
        if pool is not None:
            pool.shutdown()
    if report_path:
        report.write(report_path)
    return report


def _run_rounds(experiments, jobs, runner, progress_stream) -> RunReport:
    from ..core import forkpoint, runcache
    from .pool import effective_jobs

    start = time.monotonic()
    reported = getattr(runner, "effective", None)
    workers = reported or effective_jobs(jobs)
    # a pool keeps the count it was asked for; a runner that reports
    # only its own workers (a daemon's) was asked for none
    report = RunReport(jobs=getattr(runner, "jobs", reported or jobs),
                       effective_jobs=workers)
    for round_no in range(1, MAX_ROUNDS + 1):
        plan = build_plan(experiments)
        tasks = [t for t in plan.tasks if t.key not in report.quarantined_keys]
        if not tasks:
            if round_no == 1:
                report.absorb(round_no, plan, {})
            break
        if progress_stream is not None:
            print(
                f"round {round_no}: {len(tasks)} points to simulate "
                f"({plan.total_refs} calls, {plan.deduped_refs} deduped, "
                f"{plan.cache_hits} already cached) on {workers} workers",
                file=progress_stream,
                flush=True,
            )
        outcomes = runner.run(
            tasks, progress=ProgressPrinter(len(tasks), progress_stream)
        )
        for key, outcome in outcomes.items():
            if outcome.result is not None:
                runcache.CACHE.seed(key, outcome.result)
        report.absorb(round_no, plan, outcomes)
        if any(o.status == "cancelled" for o in outcomes.values()):
            break  # the runner is stopping: re-planning would resubmit
    report.wall_seconds = time.monotonic() - start
    report.runcache = runcache.CACHE.stats()
    report.forkpoint = forkpoint.STATS.stats()
    return report
