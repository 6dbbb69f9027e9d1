"""Run reporting for the parallel executor: progress, ETA, JSON.

:class:`ProgressPrinter` is the pool's live narrator — one line per
resolved task with a wall-clock ETA — and :class:`RunReport` is the
durable record: per-task attempts/seconds/status plus campaign-level
dedup, retry and quarantine counts, written as JSON next to the
exported results (the CI artifact).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TextIO

#: 1 -> 2: rounds gained ``batch_sizes`` (the dispatch-batching record)
#: 2 -> 3: records ``requested_jobs``/``effective_jobs`` (the cpu-count
#:         clamp of :func:`repro.exec.pool.effective_jobs`)
#: 3 -> 4: records ``runcache`` — the in-process cache's hit/miss/
#:         store/disk-hit counters at campaign end (the serving layer's
#:         shared-store observability)
#: 4 -> 5: records ``forkpoint`` — prefix-snapshot counters at campaign
#:         end (snapshots taken, prefix resumes as ``forks_served``,
#:         prefix declines by reason as ``fork_declines``) and
#:         per-round ``prefix_hits`` (points a resident steady-prefix
#:         entry serves, kept off the pool)
SCHEMA = 5


class ProgressPrinter:
    """Writes ``[done/total] label status seconds eta`` lines."""

    def __init__(self, total: int, stream: Optional[TextIO]) -> None:
        self.total = total
        self.stream = stream
        self.done = 0
        self.started = time.monotonic()

    def __call__(self, event: Dict[str, Any]) -> None:
        if event["status"] == "retrying":
            self._say(
                f"    retry {event['label']} (attempt {event['attempts']} "
                f"failed; backoff {event['backoff']:.2f}s)"
            )
            return
        self.done += 1
        elapsed = time.monotonic() - self.started
        rate = elapsed / self.done
        eta = rate * (self.total - self.done)
        suffix = "cache-hit" if event.get("cache_hit") else f"{event['seconds']:.1f}s"
        if event["status"] == "quarantined":
            suffix = f"QUARANTINED after {event['attempts']} attempts"
        self._say(
            f"  [{self.done}/{self.total}] {event['label']} {suffix} "
            f"(worker {event['worker']}, eta {eta:.0f}s)"
        )

    def _say(self, line: str) -> None:
        if self.stream is not None:
            print(line, file=self.stream, flush=True)


@dataclass
class RunReport:
    """The campaign's execution record, JSON-serializable."""

    jobs: int
    #: workers actually spawned after the cpu-count clamp (defaults to
    #: the requested count for callers that don't pass it)
    effective_jobs: Optional[int] = None
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    tasks: List[Dict[str, Any]] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: :meth:`repro.core.runcache.RunCache.stats` at campaign end
    runcache: Optional[Dict[str, int]] = None
    #: :meth:`repro.core.forkpoint.ForkpointStats.stats` at campaign end
    forkpoint: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.effective_jobs is None:
            self.effective_jobs = self.jobs

    def absorb(
        self,
        round_no: int,
        plan,
        outcomes: Dict[str, Any],
        batch_sizes: Optional[List[int]] = None,
    ) -> None:
        """Fold one planning round + its pool outcomes into the report."""
        self.rounds.append(
            dict(
                round=round_no,
                planned_tasks=len(plan.tasks),
                total_refs=plan.total_refs,
                cache_hits=plan.cache_hits,
                deduped_refs=plan.deduped_refs,
                unplanned=plan.unplanned,
                prefix_hits=plan.prefix_hits,
                plan_errors=dict(plan.errors),
                batch_sizes=list(batch_sizes or []),
            )
        )
        for outcome in outcomes.values():
            self.tasks.append(
                dict(
                    key=outcome.key,
                    label=outcome.label,
                    experiments=list(outcome.experiments),
                    round=round_no,
                    status=outcome.status,
                    attempts=outcome.attempts,
                    retried=outcome.retried,
                    cache_hit=outcome.cache_hit,
                    seconds=round(outcome.seconds, 3),
                    error=outcome.error,
                )
            )

    # -- aggregates ----------------------------------------------------

    @property
    def executed(self) -> int:
        return sum(1 for t in self.tasks if t["status"] == "ok")

    @property
    def retries(self) -> int:
        return sum(max(0, t["attempts"] - 1) for t in self.tasks)

    @property
    def quarantined(self) -> List[Dict[str, Any]]:
        return [t for t in self.tasks if t["status"] == "quarantined"]

    @property
    def quarantined_keys(self) -> set:
        return {t["key"] for t in self.quarantined}

    @property
    def cache_hits(self) -> int:
        plan_hits = sum(r["cache_hits"] for r in self.rounds)
        worker_hits = sum(1 for t in self.tasks if t["cache_hit"])
        return plan_hits + worker_hits

    @property
    def deduped_refs(self) -> int:
        return sum(r["deduped_refs"] for r in self.rounds)

    def summary(self) -> str:
        total_refs = self.rounds[0]["total_refs"] if self.rounds else 0
        workers = f"{self.effective_jobs} workers"
        if self.effective_jobs != self.jobs:
            workers += f" ({self.jobs} requested, clamped to cpu count)"
        line = (
            f"parallel executor: {self.executed}/{len(self.tasks)} points "
            f"simulated with {workers} in {self.wall_seconds:.1f}s "
            f"({total_refs} calls enumerated, {self.deduped_refs} deduped, "
            f"{self.cache_hits} cache hits, {self.retries} retries, "
            f"{len(self.quarantined)} quarantined, "
            f"{len(self.rounds)} planning rounds)"
        )
        return line

    def to_dict(self) -> Dict[str, Any]:
        return dict(
            schema=SCHEMA,
            jobs=self.jobs,
            requested_jobs=self.jobs,
            effective_jobs=self.effective_jobs,
            wall_seconds=round(self.wall_seconds, 3),
            executed=self.executed,
            retries=self.retries,
            quarantined=len(self.quarantined),
            cache_hits=self.cache_hits,
            deduped_refs=self.deduped_refs,
            runcache=self.runcache,
            forkpoint=self.forkpoint,
            rounds=self.rounds,
            tasks=self.tasks,
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
