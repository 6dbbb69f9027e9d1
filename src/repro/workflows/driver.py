"""The coupled-workflow driver: simulation + staging + analytics.

:func:`run_coupled` is the single entry point every figure/table
experiment goes through: it boots a machine, instantiates a staging
method, runs ``steps`` coupled iterations and returns a
:class:`RunResult` with end-to-end time, per-component times, staging
statistics, memory timelines and (when the configuration cannot run at
the requested scale) the failure — never raising for the failure modes
the paper reports, so sweeps can tabulate "failed" cells exactly like
the paper's figures do.
"""

from __future__ import annotations

import gc
import inspect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..hpc.cluster import Cluster
from ..hpc.failures import HpcError
from ..hpc.machines import MachineSpec, get_machine
from ..sim import Environment, TimeSeries
from ..sim.engine import EXACT_TICK_LIMIT, _TICK
from ..staging import calibration as cal
from ..staging.base import StagingLibrary
from ..staging.decomposition import application_decomposition
from ..staging.factory import make_library
from ..staging.ndarray import Variable
from .catalog import WorkflowSpec, get_workflow
from .fidelity import FIDELITIES, resolve_fidelity
from .trace import ActivityTrace

#: simulated seconds of application initialization before the staging
#: servers come up — gives memory timelines the startup ramp the
#: paper's Figure 5 shows (the "spike ... marks the creation of
#: DataSpaces staging servers").
APP_INIT_SECONDS = 5.0

#: when set (see :mod:`repro.exec.plan`), :func:`run_coupled` records
#: the resolved configuration instead of simulating and returns the
#: recorder's placeholder — how the parallel scheduler enumerates a
#: study's simulation points without running them
_PLAN_RECORDER = None


def set_plan_recorder(recorder):
    """Install (or clear, with None) the planning hook; returns the
    previous recorder so callers can restore it."""
    global _PLAN_RECORDER
    previous = _PLAN_RECORDER
    _PLAN_RECORDER = recorder
    return previous


class _SteadyDiverged(Exception):
    """A confirmed steady orbit failed replay-time verification.

    Raised after the event loop returns when the boundary pair ending at
    the cutoff step no longer matches the engagement pair — the
    fast-forward would not have been bit-identical.  :func:`run_coupled`
    catches it and reruns the configuration without the fast-forward, so
    a false engagement can only ever cost time, never correctness.
    """


class _SteadyController:
    """Temporal memoization of the staged coupled step loop.

    Every actor reports its per-step phase end times; when all actors
    have completed step ``s`` the controller fingerprints the boundary:
    the pending-event queue (relative times), the library's normalized
    state (gate window, server memory, per-library resources), the
    put/get record stream and memory-series sample windows, and the
    client memory totals.  When two consecutive boundary fingerprints
    match modulo one clock translation Δ — every actor's phase times
    shifted by the *same* integer tick count Δ — the orbit provably
    repeats.  Boundary closes and phase ends are captured as integer
    ticks, so translation is literally ``t + Δ`` in 64-bit integers:
    no float-identity argument is needed, and projecting any translated
    tick back to seconds (one exact ``tick * 2**-32`` multiply below
    :data:`~repro.sim.engine.EXACT_TICK_LIMIT`) reproduces the floats
    an un-fast-forwarded run would have produced bit for bit.  The
    controller then stops the actors one step past the furthest actor's
    progress and the remaining iterations are replayed as exact
    translates.
    """

    def __init__(self, env, library, steps, warmup, n_actors,
                 series_fn, trackers):
        self.env = env
        self.library = library
        self.steps = steps
        self.warmup = warmup
        self.n_actors = n_actors
        #: lazily resolved: server series only exist after bootstrap
        self._series_fn = series_fn
        self.series = None
        self.trackers = trackers
        self.phases: Dict[str, list] = {}     # actor -> phase tuple per step
        self.done: Dict[int, int] = {}        # step -> actors completed
        self.boundaries: Dict[int, dict] = {}
        self.cutoff: Optional[int] = None
        self.delta: Optional[int] = None      # period, in integer ticks
        self._delta_f: float = 0.0            # exact seconds projection of delta
        self.confirm: Optional[int] = None    # step s of the matched pair (s-1, s)
        self.fail: Optional[str] = None       # permanent decline reason

    @property
    def engaged(self) -> bool:
        return self.cutoff is not None

    def stop(self, actor: str, step: int) -> bool:
        """Polled at the top of each actor step: past the cutoff?"""
        return self.cutoff is not None and step > self.cutoff

    def record(self, actor: str, step: int, phases: tuple) -> None:
        """An actor completed ``step``; its phase end times in order."""
        self.phases.setdefault(actor, []).append(phases)
        n = self.done.get(step, 0) + 1
        self.done[step] = n
        if n == self.n_actors and self.fail is None:
            self._close(step)

    def _capture(self, step: int) -> dict:
        if self.series is None:
            self.series = self._series_fn()
        return dict(
            close=self.env._now_tick,
            snapshot=self.env.steady_snapshot(),
            state=self.library.steady_state(step),
            totals=tuple(t.total for t in self.trackers),
            tap=len(self.library._steady_tap),
            series=tuple(len(s) for s in self.series),
        )

    def _close(self, step: int) -> None:
        self.boundaries[step] = self._capture(step)
        if self.cutoff is not None or step < self.warmup:
            return
        delta = self._match(step - 1, step)
        if delta is None:
            return
        # Pipelined actors may already be inside later steps (the gate
        # window lets writers run ahead); everyone stops before the
        # first step no actor has begun, so every live step closes.
        cutoff = max(self.done) + 1
        if cutoff > self.steps - 2:
            self.fail = "steady: orbit confirmed too late to skip any step"
            return
        if (self.env._now_tick + (self.steps - cutoff) * delta
                >= EXACT_TICK_LIMIT):
            self.fail = ("steady: fast-forward horizon exceeds the "
                         "exact-arithmetic window")
            return
        self.confirm = step
        self.delta = delta
        self._delta_f = delta * _TICK
        self.cutoff = cutoff

    def _match(self, a: int, b: int, strict: bool = True) -> Optional[int]:
        """Tick Δ if boundary ``b`` is boundary ``a`` translated, else None.

        ``strict`` additionally compares the pending-event queue, the
        library state and client memory totals — valid only while every
        actor is still live.  Replay-time verification runs non-strict:
        past the cutoff the controller itself emptied the queue, but a
        matching record stream then *proves* the post-engagement window
        equals the periodic one (nothing the exact run would interleave
        there is missing), which is exactly what the replay tiles.
        """
        fpa = self.boundaries.get(a)
        fpb = self.boundaries.get(b)
        if fpa is None or fpb is None:
            return None
        delta = fpb["close"] - fpa["close"]
        if delta <= 0:
            return None
        # One global Δ across every actor and phase: per-actor periods
        # that merely pair up per actor still drift relative to each
        # other and eventually collide at shared resources.
        for plist in self.phases.values():
            if len(plist) <= b:
                return None
            pa, pb = plist[a], plist[b]
            if len(pa) != len(pb):
                return None
            for ta, tb in zip(pa, pb):
                if ta + delta != tb:
                    return None
        if strict and (fpa["snapshot"] != fpb["snapshot"]
                       or fpa["state"] != fpb["state"]
                       or fpa["totals"] != fpb["totals"]):
            return None
        # The put/get record window and the tracked memory-series
        # windows must repeat verbatim (values) and translate (times).
        tap = self.library._steady_tap
        j0 = self.boundaries[a - 1]["tap"] if a > 0 else 0
        j1, j2 = fpa["tap"], fpb["tap"]
        if j1 - j0 != j2 - j1 or tap[j0:j1] != tap[j1:j2]:
            return None
        # Series timestamps are floats; Δ projects to seconds exactly
        # (one multiply), and adding that grid multiple to an on-grid
        # float is exact, so the float comparison decides exactly the
        # same predicate as its tick-domain counterpart.
        delta_f = delta * _TICK
        for k, s_obj in enumerate(self.series):
            i0 = self.boundaries[a - 1]["series"][k] if a > 0 else 0
            i1 = fpa["series"][k]
            i2 = fpb["series"][k]
            if i1 - i0 != i2 - i1:
                return None
            times, values = s_obj._times, s_obj._values
            for off in range(i1 - i0):
                if (times[i0 + off] + delta_f != times[i1 + off]
                        or values[i0 + off] != values[i1 + off]):
                    return None
        return delta

    def _phase_delta(self, a: int, b: int) -> Optional[int]:
        """Tick Δ from phase translation alone (no window comparisons)."""
        fpa = self.boundaries.get(a)
        fpb = self.boundaries.get(b)
        if fpa is None or fpb is None:
            return None
        delta = fpb["close"] - fpa["close"]
        if delta <= 0:
            return None
        for plist in self.phases.values():
            if len(plist) <= b or len(plist[a]) != len(plist[b]):
                return None
            for ta, tb in zip(plist[a], plist[b]):
                if ta + delta != tb:
                    return None
        return delta

    def finalize(self, finish: dict, library) -> float:
        """Replay the skipped steps; returns the end-to-end time.

        The stopped run is isomorphic to an exact run of ``cutoff + 1``
        steps: its last window lacks exactly the spill-over of steps it
        never began, the same truncation the exact run's *final* window
        has.  So verification demands full periodic windows for the
        boundary pairs up to ``cutoff - 1`` and a per-stream *prefix* of
        the periodic window at the cutoff, and the replay appends, per
        stream: the rest of the cutoff window, ``skipped - 1`` full
        periodic windows, and the final partial window — reproducing
        the exact run's addition/sample order fold for fold.  Everything
        translates by integer multiples of the tick Δ — a plain 64-bit
        shift — and only the final values are projected to seconds, one
        exact multiply each.
        """
        for b in range(self.confirm + 1, self.cutoff):
            if self._match(b - 1, b, strict=False) != self.delta:
                raise _SteadyDiverged(
                    f"boundary {b} diverged from the orbit confirmed at "
                    f"step {self.confirm}"
                )
        if self._phase_delta(self.cutoff - 1, self.cutoff) != self.delta:
            raise _SteadyDiverged(
                f"cutoff boundary {self.cutoff} left the orbit confirmed "
                f"at step {self.confirm}"
            )
        skipped = self.steps - 1 - self.cutoff
        delta = self.delta
        # Statistics: put and get records feed disjoint accumulators,
        # so each kind's stream replays independently in its own exact
        # order, through the same _record_* additions.
        tap = library._steady_tap
        j0 = self.boundaries[self.cutoff - 2]["tap"]
        j1 = self.boundaries[self.cutoff - 1]["tap"]
        j2 = self.boundaries[self.cutoff]["tap"]
        library._steady_tap = None
        for kind, record in (("put", library._record_put),
                             ("get", library._record_get)):
            full = [r for r in tap[j0:j1] if r[0] == kind]
            part = [r for r in tap[j1:j2] if r[0] == kind]
            if part != full[:len(part)]:
                raise _SteadyDiverged(
                    f"{kind}-record stream at the cutoff is not a prefix "
                    f"of the periodic window"
                )
            stream = full[len(part):] + full * (skipped - 1) + full[:len(part)]
            for _, nbytes, elapsed in stream:
                record(nbytes, elapsed)
        # Memory series: same shape, with timestamps translated by the
        # exact seconds projection of each accumulated tick shift.
        delta_f = self._delta_f
        for k, s_obj in enumerate(self.series):
            i0 = self.boundaries[self.cutoff - 2]["series"][k]
            i1 = self.boundaries[self.cutoff - 1]["series"][k]
            i2 = self.boundaries[self.cutoff]["series"][k]
            times, values = s_obj._times, s_obj._values
            part_n = i2 - i1
            if part_n > i1 - i0:
                raise _SteadyDiverged(
                    f"series {k} cutoff window exceeds the periodic window"
                )
            for off in range(part_n):
                if (times[i0 + off] + delta_f != times[i1 + off]
                        or values[i0 + off] != values[i1 + off]):
                    raise _SteadyDiverged(
                        f"series {k} cutoff window is not a prefix of the "
                        f"periodic window"
                    )
            w_times = times[i0:i1]
            w_values = values[i0:i1]
            shift = delta
            offset = shift * _TICK
            for t, v in zip(w_times[part_n:], w_values[part_n:]):
                s_obj.record(t + offset, v)
            for _ in range(skipped - 1):
                shift += delta
                offset = shift * _TICK
                for t, v in zip(w_times, w_values):
                    s_obj.record(t + offset, v)
            shift += delta
            offset = shift * _TICK
            for t, v in zip(w_times[:part_n], w_values[:part_n]):
                s_obj.record(t + offset, v)
        # Per-actor completion: one integer shift per actor, projected
        # to seconds with a single exact multiply.
        finish["sim"] = finish["ana"] = 0.0
        for actor, plist in self.phases.items():
            t = (plist[self.cutoff][-1] + skipped * delta) * _TICK
            key = "sim" if actor.startswith("sim") else "ana"
            finish[key] = max(finish[key], t)
        return max(finish["sim"], finish["ana"])


class _IndependentSteady:
    """Per-actor fast-forward for compute-only runs.

    Without a staging library the actors share nothing: each loop is a
    fixed compute timeout, so an actor's own period — two consecutive
    equal step durations past the warm-up — proves its orbit without a
    global cut, and sim/ana may fast-forward with different tick Δs.
    """

    fail: Optional[str] = None

    def __init__(self, steps: int, warmup: int = 1) -> None:
        self.steps = steps
        self.warmup = warmup
        self.ends: Dict[str, list] = {}       # actor -> end tick per step
        self.cutoffs: Dict[str, int] = {}
        self.deltas: Dict[str, int] = {}      # actor -> period in ticks
        self.engaged = False

    def stop(self, actor: str, step: int) -> bool:
        cutoff = self.cutoffs.get(actor)
        return cutoff is not None and step > cutoff

    def record(self, actor: str, step: int, phases: tuple) -> None:
        ends = self.ends.setdefault(actor, [])
        ends.append(phases[-1])
        if actor in self.cutoffs or step < self.warmup + 1:
            return
        d1 = ends[step] - ends[step - 1]
        d0 = ends[step - 1] - ends[step - 2]
        if d1 != d0 or d1 <= 0 or step + 1 > self.steps - 2:
            return
        if ends[step] + (self.steps - step) * d1 >= EXACT_TICK_LIMIT:
            return
        self.cutoffs[actor] = step + 1
        self.deltas[actor] = d1
        self.engaged = True

    def finalize(self, finish: dict, library) -> float:
        finish["sim"] = finish["ana"] = 0.0
        for actor, ends in self.ends.items():
            cutoff = self.cutoffs.get(actor)
            if cutoff is None:
                t = ends[-1] * _TICK
            else:
                delta = self.deltas[actor]
                if len(ends) <= cutoff or ends[cutoff] - ends[cutoff - 1] != delta:
                    raise _SteadyDiverged(f"{actor} period drifted after confirmation")
                t = (ends[cutoff] + (self.steps - 1 - cutoff) * delta) * _TICK
            key = "sim" if actor.startswith("sim") else "ana"
            finish[key] = max(finish[key], t)
        return max(finish["sim"], finish["ana"])


@dataclass
class RunResult:
    """Everything one coupled run measured, as plain data.

    The run's simulator dies with the run, so caches, pool workers and
    the daemon hold and ship the result as returned.
    """

    machine: str
    workflow: str
    method: Optional[str]
    nsim: int
    nana: int
    steps: int
    end_to_end: float = math.nan
    sim_finish: float = math.nan
    ana_finish: float = math.nan
    put_time: float = 0.0
    get_time: float = 0.0
    bytes_staged: float = 0.0
    failure: Optional[str] = None
    #: "exact" ran every actor every step; "steady" stopped simulating
    #: once the step loop provably entered a periodic orbit and replayed
    #: the rest by exact translation (requested via ``fidelity`` and
    #: engaged only when the fingerprint checks proved it bit-identical)
    fidelity: str = "exact"
    #: one ``"<tier>: <reason>"`` entry per requested tier that did not
    #: engage (see :mod:`repro.workflows.fidelity`); empty when the
    #: request engaged as asked, or nothing was requested
    fidelity_log: Tuple[str, ...] = ()
    #: inputs echoed into the result (the run's library does not outlive it)
    variable_nbytes: int = 0
    nservers: int = 0
    #: per-processor memory timeline of simulation/analytics rank 0
    sim_memory: Optional[TimeSeries] = None
    ana_memory: Optional[TimeSeries] = None
    #: per-server peaks and the first server's timeline
    server_memory_peaks: List[int] = field(default_factory=list)
    server_memory: Optional[TimeSeries] = None
    server_memory_breakdown: Dict[str, int] = field(default_factory=dict)
    #: chaos accounting — versions analytics never received, and
    #: recovery actions (restarts, reconnects, drains) taken
    versions_lost: int = 0
    recovery_events: int = 0
    #: simulated seconds spent inside recovery actions
    recovery_seconds: float = 0.0
    #: "prefix:…" when this result was resumed arithmetically from a
    #: steady-boundary snapshot (see :mod:`repro.core.forkpoint`);
    #: None for simulated runs
    forked: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def batch_fallback(self) -> Optional[str]:
        """Always None: no batch tier is left to decline.

        Kept only because ``benchmarks/e2e/tracing.py`` still reads it;
        remove it together with that read.
        """
        return None

    @property
    def staging_time(self) -> float:
        return self.put_time + self.get_time

    def summary(self) -> str:
        if not self.ok:
            return (
                f"{self.workflow}/{self.method or 'compute-only'} on "
                f"{self.machine} ({self.nsim},{self.nana}): FAILED {self.failure}"
            )
        return (
            f"{self.workflow}/{self.method or 'compute-only'} on "
            f"{self.machine} ({self.nsim},{self.nana}): "
            f"end-to-end {self.end_to_end:.1f} s "
            f"(staging {self.staging_time:.1f} s)"
        )


def run_coupled(
    machine: Union[str, MachineSpec] = "titan",
    workflow: Union[str, WorkflowSpec] = "lammps",
    method: Optional[str] = "dataspaces",
    nsim: int = 32,
    nana: int = 16,
    steps: int = 5,
    transport: Optional[str] = None,
    num_servers: Optional[int] = None,
    shared_nodes: bool = False,
    variable: Optional[Variable] = None,
    sim_step_seconds: Optional[float] = None,
    ana_step_seconds: Optional[float] = None,
    topology_overrides: Optional[dict] = None,
    config=None,
    app_axis: Optional[int] = None,
    trace: Optional[ActivityTrace] = None,
    fidelity: str = "exact",
    fault_plan=None,
    recovery=None,
) -> RunResult:
    """Run one coupled workflow configuration end to end.

    ``method=None`` runs the "simulation only"/"analytics only"
    baseline of Figure 2: pure compute, no staging.  Failures from the
    :mod:`repro.hpc.failures` taxonomy are captured in the result.

    ``fault_plan`` (a :class:`repro.chaos.faults.FaultPlan`) injects
    deterministic faults mid-run and bounds any resulting stall with a
    watchdog; ``recovery`` (a :class:`repro.chaos.faults.RecoveryPolicy`)
    overrides the library's default failure reaction.  Both are part of
    the run-cache key, so chaos runs never collide with clean ones.

    ``fidelity`` is one of :data:`~repro.workflows.fidelity.FIDELITIES`;
    anything else raises ``ValueError``.  ``fidelity="steady"`` asks the
    run to stop simulating once the coupled step loop provably enters a
    periodic orbit — two consecutive step boundaries matching in the
    full observable fingerprint modulo one exact clock translation Δ —
    and fast-forward the remaining iterations by exact translation (see
    :meth:`~repro.staging.base.StagingLibrary.steady_plan`).  It falls
    back to exact whenever the library declines a certificate or no
    boundary pair matches; check ``RunResult.fidelity`` for what
    actually ran.  Whether steady engages is decided by
    :func:`~repro.workflows.fidelity.resolve_fidelity`;
    ``RunResult.fidelity_log`` records why it did not.

    Results are memoized in :mod:`repro.core.runcache` keyed on every
    input that determines the outcome; traced runs bypass the cache.
    Cache misses first consult the steady-boundary *prefix* entries
    (see :mod:`repro.core.forkpoint`): a sibling run differing only in
    ``steps`` may have published its certified orbit, in which case the
    divergent suffix is replayed arithmetically instead of simulated.
    A faulted run has no prefix entry, so on a miss it simulates from
    t=0.
    """
    # locals() holds exactly the arguments: nothing is assigned above
    machine_spec, spec, point = _resolve_point(locals())
    cache_key = None if trace is not None else _cache_key(machine_spec, spec, point)

    if _PLAN_RECORDER is not None:
        # Planning pass: record the resolved point (when cacheable) and
        # hand back a placeholder — nothing simulates.  Traced and
        # uncacheable calls are left for the serial replay.
        return _PLAN_RECORDER.intercept(cache_key, point)

    if cache_key is not None:
        from ..core import runcache

        cached = runcache.CACHE.get(cache_key)
        if cached is not None:
            return cached

        from ..core import forkpoint

        pkey = forkpoint.prefix_key(point)
        if pkey is not None:
            snap = runcache.CACHE.get_prefix(pkey)
            if snap is not None:
                if snap.serves(steps):
                    restored = snap.resume(steps)
                    restored.forked = f"prefix:{pkey[:16]}"
                    forkpoint.STATS.forks_served += 1
                    runcache.CACHE.put(cache_key, restored)
                    return restored
                forkpoint.STATS.decline(snap.decline_reason(steps))

    def _attempt(run_point: dict) -> RunResult:
        result = RunResult(
            machine=machine_spec.name,
            workflow=spec.name,
            method=method,
            nsim=nsim,
            nana=nana,
            steps=steps,
            variable_nbytes=point["variable"].nbytes,
        )
        env = Environment()
        cluster = Cluster(env, machine_spec)
        if fault_plan is None:
            # no injector armed -> no pipe can be degraded mid-run, so
            # every pipe (OSTs, NICs, memory buses) may run its
            # eventless arithmetic chain
            cluster.freeze_rates()
        library = None
        try:
            library = _build_library(cluster, point)
            _execute(env, cluster, library, result, spec, run_point, trace)
        except HpcError as exc:
            result.failure = f"{type(exc).__name__}: {exc}"
            if fault_plan is not None:
                # Chaos runs keep their partial accounting: how far the
                # clock got and what the libraries managed to recover.
                result.end_to_end = env.now
                if library is not None:
                    result.versions_lost = library.versions_lost
                    result.recovery_events = library.recovery_events
                    result.recovery_seconds = library.recovery_seconds
        return result

    # The event loop allocates millions of short-lived objects whose
    # lifetimes end by refcount alone; the cycle collector's generation
    # scans over them cost ~15% of a run and never free anything until
    # the run is over (the only cycles are process/event back-references
    # that die with the environment).  Pause it for the simulation; the
    # survivors fall out of the next natural collection.
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        result = _attempt(point)
    except _SteadyDiverged as exc:
        # Safety net: the confirmed orbit failed replay-time
        # verification.  Rerun the whole configuration (fresh
        # environment, cluster and library) without the fast-forward
        # — a false engagement costs time, never correctness.
        result = _attempt(dict(point, fidelity="exact"))
        result.fidelity_log += (f"steady: {exc}",)
    finally:
        if was_enabled:
            gc.enable()

    snap = result.__dict__.pop("_forkpoint_snapshot", None)
    if cache_key is not None:
        from ..core import runcache

        if snap is not None:
            from ..core import forkpoint

            pkey = forkpoint.prefix_key(point)
            if pkey is not None:
                runcache.CACHE.put_prefix(pkey, snap)
                forkpoint.STATS.snapshots_taken += 1
            else:
                result.fidelity_log += ("prefix: point is not prefix-keyable",)
        runcache.CACHE.put(cache_key, result)
    elif snap is not None:
        result.fidelity_log += (
            "prefix: uncacheable configuration (ad-hoc spec)",
        )
    return result


_SIGNATURE = inspect.signature(run_coupled)
_DEFAULTS = {name: p.default for name, p in _SIGNATURE.parameters.items()}

#: ``run_coupled`` arguments that steer how a run executes, never what
#: it computes: they stay out of the point
_NOT_INPUTS = ("trace",)


def _resolve_point(args: dict):
    """Normalize ``run_coupled`` arguments to ``(machine_spec, spec, point)``.

    The point dict carries every input that determines the outcome,
    with machine/workflow reduced to catalog names and workflow-spec
    defaults applied, and its fidelity checked against
    :data:`~repro.workflows.fidelity.FIDELITIES`.  The cache key, the
    planning recorder, the forkpoint prefix key and the fidelity
    resolver all derive from it, so they always agree on what "the same
    configuration" means.
    """
    point = {k: args[k] for k in _SIGNATURE.parameters if k not in _NOT_INPUTS}
    workflow, machine = point["workflow"], point["machine"]
    spec = get_workflow(workflow) if isinstance(workflow, str) else workflow
    machine_spec = get_machine(machine) if isinstance(machine, str) else machine
    overrides = dict(
        sim_ranks_per_node=spec.sim_ranks_per_node,
        ana_ranks_per_node=spec.ana_ranks_per_node,
    )
    overrides.update(point["topology_overrides"] or {})
    if point["variable"] is None:
        point["variable"] = spec.variable(point["nsim"])
    for name in ("sim_step_seconds", "ana_step_seconds", "app_axis"):
        if point[name] is None:
            point[name] = getattr(spec, name)
    # Legacy spelling of "steady", still sent by the benchmark's whatif
    # request stream (benchmarks/e2e/stream.py); delete this alias once
    # that stream drops the spelling.
    if point["fidelity"] == "steady+clustered":
        point["fidelity"] = "steady"
    if point["fidelity"] not in FIDELITIES:
        raise ValueError(
            f"fidelity must be one of {', '.join(map(repr, FIDELITIES))}, "
            f"got {point['fidelity']!r}"
        )
    point.update(machine=machine_spec.name, workflow=spec.name,
                 topology_overrides=overrides)
    return machine_spec, spec, point


def point_key(**kwargs) -> Optional[str]:
    """The run-cache key ``run_coupled(**kwargs)`` would use.

    ``None`` when the configuration is uncacheable; ``ValueError`` for
    a fidelity ``run_coupled`` would refuse.  The serve daemon uses this
    to key point jobs (so it refuses a bad fidelity at submit time).
    """
    unknown = kwargs.keys() - _DEFAULTS.keys()
    if unknown:
        raise TypeError(f"not run_coupled arguments: {sorted(unknown)}")
    return _cache_key(*_resolve_point({**_DEFAULTS, **kwargs}))


def _cache_key(machine_spec, spec, point) -> Optional[str]:
    """The run-cache key, or None when the configuration is uncacheable.

    Only catalog machines and workflows can be keyed by name; ad-hoc
    spec objects (custom calibrations in tests) bypass the cache, as
    does anything :func:`repro.core.runcache.config_key` cannot
    canonicalize.
    """
    from ..core import runcache

    try:
        if get_machine(machine_spec.name) is not machine_spec:
            return None
        if get_workflow(spec.name) is not spec:
            return None
    except KeyError:
        return None
    try:
        return runcache.config_key(**point)
    except TypeError:
        return None


def _build_library(cluster, point) -> Optional[StagingLibrary]:
    method = point["method"]
    if method is None:
        return None
    kwargs = {}
    if method.lower().startswith(("dataspaces", "dimes")):
        kwargs["app_axis"] = point["app_axis"]
    return make_library(
        method, cluster, nsim=point["nsim"], nana=point["nana"],
        variable=point["variable"], steps=point["steps"],
        transport=point["transport"], num_servers=point["num_servers"],
        shared_nodes=point["shared_nodes"], config=point["config"],
        topology_overrides=point["topology_overrides"], **kwargs,
    )


def _execute(env, cluster, library, result, spec, point,
             trace: Optional[ActivityTrace]) -> None:
    machine = cluster.spec
    nsim, nana, steps = point["nsim"], point["nana"], point["steps"]
    var, axis = point["variable"], point["app_axis"]
    fault_plan, recovery = point["fault_plan"], point["recovery"]

    def mark(actor: str, activity: str, start: float) -> None:
        if trace is not None:
            trace.record(actor, activity, start, env.now)

    if library is not None and fault_plan is not None:
        from ..chaos.faults import DEFAULT_RECOVERY

        library.recovery = (
            recovery if recovery is not None
            else DEFAULT_RECOVERY.get(library.name)
        )
        if (library.recovery is not None
                and library.recovery.kind == "reconnect-backoff"
                and hasattr(library.transport, "credential_retry")):
            library.transport.credential_retry = (
                library.recovery.backoff, library.recovery.max_retries
            )

    if library is not None:
        topo = library.topology
        sim_actors, ana_actors = topo.sim_actors, topo.ana_actors
        placement = library.placement
        result.nservers = topo.nservers
    else:
        # Compute-only baseline: minimal placement, actors stand in for
        # weak-scaled processors.
        from ..hpc.cluster import Placement
        from ..staging.base import Topology

        topo = Topology(nsim=nsim, nana=nana, **point["topology_overrides"])
        sim_actors, ana_actors = topo.sim_actors, topo.ana_actors
        placement = Placement(cluster, shared_nodes=point["shared_nodes"])
        placement.place("simulation", sim_actors, ranks_per_node=1)
        placement.place("analytics", ana_actors, ranks_per_node=1)

    write_regions = application_decomposition(var, sim_actors, axis)
    read_regions = application_decomposition(var, ana_actors, axis)
    bytes_per_sim_proc = var.nbytes / nsim
    bytes_per_ana_proc = var.nbytes / nana

    decision = resolve_fidelity(point, library, traced=trace is not None)
    result.fidelity_log = decision.log

    sim_trackers = [
        placement.node_of("simulation", i).process_memory(f"simproc{i}")
        for i in range(sim_actors)
    ]
    ana_trackers = [
        placement.node_of("analytics", j).process_memory(f"anaproc{j}")
        for j in range(ana_actors)
    ]
    if library is not None:
        for i, tracker in enumerate(sim_trackers):
            library.register_client_tracker("sim", i, tracker)
        for j, tracker in enumerate(ana_trackers):
            library.register_client_tracker("ana", j, tracker)

    # Steady-state fast-forward: temporal memoization of the step loop.
    steady = None
    if decision.steady is not None and library is None:
        steady = _IndependentSteady(steps, decision.steady.warmup)
    elif decision.steady is not None:
        def _steady_series():
            tracked = [sim_trackers[0].series, ana_trackers[0].series]
            if library.servers:
                tracked.append(library.servers[0].memory.series)
            return tracked

        steady = _SteadyController(
            env, library, steps, decision.steady.warmup,
            n_actors=sim_actors + ana_actors,
            series_fn=_steady_series,
            trackers=sim_trackers + ana_trackers,
        )
        library._steady_tap = []

    # Per-step-invariant compute costs, hoisted out of the actor loops.
    sim_compute = machine.compute_time(point["sim_step_seconds"])
    ana_compute = machine.compute_time(point["ana_step_seconds"])

    finish = {"sim": 0.0, "ana": 0.0}
    boot_done = env.event()

    def booter(env):
        yield env.pause(APP_INIT_SECONDS)
        if library is not None:
            yield from library.bootstrap()
        boot_done.succeed()

    def sim_actor(i: int):
        name = f"sim{i}"
        tracker = sim_trackers[i]
        tracker.allocate(spec.sim_calc_bytes(bytes_per_sim_proc), "calculation")
        t0 = env.now
        yield boot_done
        mark(name, "init", t0)
        persistent_buffer = None
        if library is not None:
            tracker.allocate(cal.CLIENT_LIB_BASE, "staging-lib")
            if library.client_buffer_persistent:
                persistent_buffer = tracker.allocate(
                    library.client_buffer_mult * bytes_per_sim_proc,
                    "staging-lib",
                )
        for step in range(steps):
            if steady is not None and steady.stop(name, step):
                return  # remaining steps are replayed by translation
            if (library is not None and library.dead_ranks
                    and ("sim", i) in library.dead_ranks):
                mark(name, "fault", env.now)
                break
            t0 = env.now
            yield env.pause(sim_compute)
            mark(name, "compute", t0)
            compute_end = env._now_tick
            if library is not None:
                buffer = persistent_buffer or tracker.allocate(
                    library.client_buffer_mult * bytes_per_sim_proc,
                    "staging-lib",
                )
                t0 = env.now
                # Kept as a wrapped process (not ``yield from``): every
                # actor schedules its put before any put starts, which
                # fixes the arrival order at contended resources.
                yield env.process(library.put(i, write_regions[i], step))
                mark(name, "put", t0)
                if buffer is not persistent_buffer:
                    tracker.free(buffer)
            if steady is not None:
                steady.record(name, step, (compute_end, env._now_tick))
        finish["sim"] = max(finish["sim"], env.now)

    def ana_actor(j: int):
        name = f"ana{j}"
        tracker = ana_trackers[j]
        tracker.allocate(spec.ana_calc_bytes(bytes_per_ana_proc), "calculation")
        t0 = env.now
        yield boot_done
        mark(name, "init", t0)
        if library is not None:
            tracker.allocate(cal.CLIENT_LIB_BASE, "staging-lib")
        for step in range(steps):
            if steady is not None and steady.stop(name, step):
                return  # remaining steps are replayed by translation
            if (library is not None and library.dead_ranks
                    and ("ana", j) in library.dead_ranks):
                mark(name, "fault", env.now)
                break
            get_end = None
            if library is not None:
                buffer = tracker.allocate(
                    library.client_buffer_mult * bytes_per_ana_proc,
                    "staging-lib",
                )
                t0 = env.now
                yield env.process(library.get(j, read_regions[j], step))
                mark(name, "get", t0)
                get_end = env._now_tick
                tracker.free(buffer)
            t0 = env.now
            yield env.pause(ana_compute)
            mark(name, "compute", t0)
            if steady is not None:
                phases = (
                    (env._now_tick,) if get_end is None
                    else (get_end, env._now_tick)
                )
                steady.record(name, step, phases)
        finish["ana"] = max(finish["ana"], env.now)

    procs = [env.process(booter(env))]
    procs += [env.process(sim_actor(i)) for i in range(sim_actors)]
    procs += [env.process(ana_actor(j)) for j in range(ana_actors)]

    def main(env):
        yield env.all_of(procs)

    done = env.process(main(env))
    if fault_plan is not None:
        from ..chaos.faults import FaultInjector
        from ..hpc.failures import WorkflowHang

        injector = FaultInjector(env, cluster, library, fault_plan, trace)
        injector.start()
        # The pending watchdog timeout also keeps the event queue alive
        # when every actor blocks on a never-triggering event (the
        # DataSpaces no-failure-detection stall).
        watchdog = env.timeout(fault_plan.watchdog)
        try:
            env.run(until=env.any_of([done, watchdog]))
        except HpcError:
            mark("chaos", "aborted", env.now)
            raise
        if not done.triggered:
            mark("chaos", "aborted", env.now)
            raise WorkflowHang(
                f"workflow did not finish within the {fault_plan.watchdog:g}"
                f"-second watchdog after fault injection "
                f"(injected: {injector.describe()})"
            )
    else:
        env.run(until=done)

    steady_end = None
    fork_partial = None
    if steady is not None and steady.engaged:
        # Capture the certified boundary *before* finalize mutates the
        # library stats and series in place: the snapshot wants the
        # orbit as simulated, the replayed tail is per-steps.
        if library is None:
            result.fidelity_log += (
                "prefix: compute-only fast-forward has no boundary state",
            )
        else:
            from ..core import forkpoint

            fork_partial, decline = forkpoint.begin_capture(steady, library)
            if fork_partial is None:
                result.fidelity_log += (decline,)
        # Replay mutates the library stats and memory series in place,
        # so it must run before the result assembly below; on
        # divergence _SteadyDiverged propagates to run_coupled, which
        # reruns the configuration without the fast-forward.
        steady_end = steady.finalize(finish, library)
        result.fidelity = "steady"
    elif steady is not None:
        if library is not None:
            library._steady_tap = None
        result.fidelity_log += (steady.fail or "steady: no boundary pair matched",)

    result.end_to_end = env.now if steady_end is None else steady_end
    result.sim_finish = finish["sim"]
    result.ana_finish = finish["ana"]
    result.sim_memory = sim_trackers[0].series
    result.ana_memory = ana_trackers[0].series
    if library is not None:
        result.put_time = library.stats.put_time
        result.get_time = library.stats.get_time
        result.bytes_staged = library.stats.bytes_staged
        result.server_memory_peaks = library.server_memory_peaks()
        if library.servers:
            result.server_memory = library.servers[0].memory.series
            result.server_memory_breakdown = library.servers[0].memory.breakdown()
        result.versions_lost = library.versions_lost
        result.recovery_events = library.recovery_events
        result.recovery_seconds = library.recovery_seconds
        library.shutdown()
    if fork_partial is not None:
        from ..core import forkpoint

        # Fold the steps-independent result scalars into the snapshot
        # now that they are assembled; run_coupled publishes it.
        result._forkpoint_snapshot = forkpoint.finish_capture(
            fork_partial, result
        )
