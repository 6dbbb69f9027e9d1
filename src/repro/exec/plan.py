"""Work-plan construction: enumerate a study's simulation points.

The figures and tables are imperative functions calling
:func:`~repro.workflows.run_coupled`; nothing declares their sweep
up-front.  :func:`build_plan` therefore *records* the sweep: it runs
every selected experiment with the driver's plan-recorder hook
installed, so each ``run_coupled`` call resolves its
:class:`~repro.workflows.driver.RunSpec`, reports the spec's
content-addressed cache key, and returns a cheap placeholder instead of
simulating.  Points that several experiments
share collapse onto one :class:`PlannedTask` (same key), which is how
the scheduler simulates shared configurations once.

The plan is a *performance hint*, never a correctness contract:

* calls whose outcome is already cached return the real result during
  planning (counted as hits, not planned again);
* uncacheable calls (traced runs, ad-hoc machine/workflow specs) and
  points hidden behind data-dependent branches (e.g. the Figure 3
  remediation reruns, taken only after a real failure) are simply not
  in the plan — the serial replay computes them, and the executor's
  follow-up planning rounds pick up what the first round's results
  expose;
* an experiment that cannot stomach placeholder values raises during
  planning; the error is noted and the points recorded up to that
  moment are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..sim import TimeSeries
from ..workflows import driver
from ..workflows.driver import RunResult, RunSpec


@dataclass
class PlannedTask:
    """One deduplicated simulation point."""

    key: str
    #: the point's resolved inputs (catalog machine/workflow by name, so
    #: a worker looks them up in its own registries)
    spec: RunSpec
    #: experiment ids that reference this point
    experiments: List[str] = field(default_factory=list)
    #: how many run_coupled calls collapse onto it
    refs: int = 0
    #: test hooks a worker obeys before it runs the spec (``__crash__``,
    #: ``__sleep__``: see :func:`repro.exec.pool._execute_task`); never
    #: part of the key
    hooks: Dict[str, Any] = field(default_factory=dict)

    @property
    def weight(self) -> float:
        """Crude cost estimate used to schedule big tasks first."""
        s = self.spec
        return float(s.nsim + s.nana) * s.steps

    def label(self) -> str:
        s = self.spec
        return (
            f"{s.machine}/{s.workflow}/{s.method or 'baseline'}"
            f"({s.nsim},{s.nana})x{s.steps}"
        )


@dataclass
class WorkPlan:
    """Every point a set of experiments will simulate, deduplicated."""

    tasks: List[PlannedTask]
    #: run_coupled calls answered from the warm cache at plan time
    cache_hits: int
    #: total run_coupled calls observed
    total_refs: int
    #: uncacheable calls the serial replay will compute
    unplanned: int
    #: experiment id -> error message for planning passes that raised
    errors: Dict[str, str]

    @property
    def deduped_refs(self) -> int:
        """Calls saved purely by cross-experiment sharing."""
        return (self.total_refs - self.cache_hits - self.unplanned
                - len(self.tasks))


def placeholder_result(spec: RunSpec) -> RunResult:
    """A successful-looking stand-in result for the planning pass.

    Values are chosen so downstream table arithmetic is well-defined
    (finite times, non-empty peaks, positive staging time); the tables
    built from placeholders are discarded with the planning pass.
    """
    series = TimeSeries()
    return spec.new_result(
        end_to_end=1.0,
        sim_finish=1.0,
        ana_finish=1.0,
        put_time=0.5,
        get_time=0.5,
        bytes_staged=1.0,
        sim_memory=series,
        ana_memory=series,
        server_memory_peaks=[1],
        server_memory=series,
        nservers=spec.num_servers or 1,
    )


class Recorder:
    """The driver hook: collects keyed specs, answers placeholders."""

    def __init__(self) -> None:
        self.tasks: Dict[str, PlannedTask] = {}
        self.cache_hits = 0
        self.total_refs = 0
        self.unplanned = 0
        self.current: Optional[str] = None

    def intercept(self, cache_key: Optional[str], spec: RunSpec):
        self.total_refs += 1
        if cache_key is None:
            self.unplanned += 1
            return placeholder_result(spec)
        from ..core import runcache

        cached = runcache.CACHE.get(cache_key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        task = self.tasks.get(cache_key)
        if task is None:
            task = self.tasks[cache_key] = PlannedTask(key=cache_key, spec=spec)
        if self.current is not None and self.current not in task.experiments:
            task.experiments.append(self.current)
        task.refs += 1
        return placeholder_result(spec)


def build_plan(experiments: Mapping[str, Callable[[], Any]]) -> WorkPlan:
    """Record every selected experiment's simulation points.

    ``experiments`` maps experiment id -> zero-argument runner, exactly
    the shape of :meth:`repro.core.study.Study.experiments`.  Runners
    that do not call ``run_coupled`` (static tables, analytic figures)
    execute fully — they are cheap by construction.
    """
    recorder = Recorder()
    errors: Dict[str, str] = {}
    previous = driver.set_plan_recorder(recorder)
    try:
        for ident, runner in experiments.items():
            recorder.current = ident
            try:
                runner()
            except Exception as exc:  # partial plans are fine (see above)
                errors[ident] = f"{type(exc).__name__}: {exc}"
    finally:
        driver.set_plan_recorder(previous)
    tasks = sorted(recorder.tasks.values(), key=lambda t: -t.weight)
    return WorkPlan(
        tasks=tasks,
        cache_hits=recorder.cache_hits,
        total_refs=recorder.total_refs,
        unplanned=recorder.unplanned,
        errors=errors,
    )
