"""Checkpoint-fork incremental simulation.

Every point in the fault x library x scale matrix re-simulates an
identical warm-up prefix before diverging.  This module captures that
prefix once and forks every variant run from it, along two mechanisms
matched to the two ways runs diverge:

**Steps variants — arithmetic restore.**  When the driver certifies the
first steady boundary (see ``_SteadyController``), the whole remaining
effect of the run on its :class:`~repro.workflows.driver.RunResult` is
closed-form: the boundary pair's record streams tile, the memory-series
windows translate by exact tick multiples, and per-actor finish times
are one integer shift each.  :func:`begin_capture`/:func:`finish_capture`
serialize exactly that — the staging statistics, the put/get record
windows, the memory-series tails and the per-actor boundary ticks —
into a :class:`SimSnapshot`,
content-addressed in the run cache as a *prefix entry* keyed by the
point spec minus ``(steps, fault_plan, recovery)``.  Any later run
sharing the prefix calls :meth:`SimSnapshot.resume` and replays only
the divergent suffix, reproducing the cold run's floats bit for bit
(the replay is the same arithmetic ``_SteadyController.finalize``
performs, folded in the same order).

**Fault variants — process forking.**  Chaos cells diverge *mid-prefix*
(a fault fires after k puts or at an absolute tick), where no certified
boundary exists yet; restoring state by value would need every live
generator frame.  :class:`ChaosForkHost` instead drives one *trunk*
simulation of the clean cell and ``os.fork()``\\ s a child at each
cell's exact trigger point — the operating system snapshots the whole
event loop for free.  The child arms the real
:class:`~repro.chaos.faults.FaultInjector` machinery in the positions
the cold run would have used (fault times are already integer ticks, so
quantized injection after the fork is exact; put-watchers re-arm before
the triggering put) and ships its stripped ``RunResult`` back over a
temp file.  Anything the protocol cannot reproduce byte-for-byte
declines honestly — multi-event plans, faults at t=0 (no shared
prefix), put triggers that overshoot inside one event step — and the
cell falls back to a cold run, so forking can only ever save time,
never change bytes.

Decline taxonomy (every reason lands in :data:`STATS` and, for
steps-prefix requests, in ``RunResult.fidelity_log``): traced runs,
steady orbit not certified (covers discard-mode SST), compute-only
baselines (per-actor fast-forward has no shared boundary), steps that
end inside the prefix, fast-forward horizons past the exact-arithmetic
window, and the chaos protocol declines above.
"""

from __future__ import annotations

import copy
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..sim.engine import EXACT_TICK_LIMIT, _TICK, _TICK_SCALE
from ..sim.events import Event
from ..sim.monitor import TimeSeries

#: prefix-entry keys exclude exactly these point-spec inputs: a prefix
#: is shared by every steps count and consumed before any fault fires
PREFIX_EXCLUDES = ("steps", "fault_plan", "recovery")

#: marker folded into the prefix content address so a prefix entry can
#: never collide with a full-run key built from the same inputs
PREFIX_TAG = "steady-boundary-prefix"


class ForkpointStats:
    """Process-wide fork/snapshot observability counters."""

    def __init__(self) -> None:
        self.snapshots_taken = 0
        self.forks_served = 0
        self.fork_declines: Dict[str, int] = {}

    def decline(self, reason: str) -> None:
        # Keyed by the reason's stable head (before any per-run detail)
        # so the report aggregates rather than explodes.
        key = reason.split(" (", 1)[0]
        self.fork_declines[key] = self.fork_declines.get(key, 0) + 1

    def stats(self) -> Dict[str, Any]:
        return dict(
            snapshots_taken=self.snapshots_taken,
            forks_served=self.forks_served,
            fork_declines=dict(sorted(self.fork_declines.items())),
        )

    def clear(self) -> None:
        self.snapshots_taken = 0
        self.forks_served = 0
        self.fork_declines.clear()


#: the singleton every layer (driver, campaign, exec report, daemon)
#: reads and bumps
STATS = ForkpointStats()


def prefix_key(spec: Dict[str, Any]) -> Optional[str]:
    """The prefix content address for one normalized point spec.

    ``spec`` is the same normalized kwargs dict the driver feeds
    :func:`repro.core.runcache.config_key` (catalog names resolved,
    overrides merged).  Returns None when the spec cannot share a
    prefix: chaos/recovery runs diverge inside it, compute-only
    baselines fast-forward per actor (no shared boundary), and only the
    steady fidelities ever certify one.
    """
    if spec.get("fault_plan") is not None or spec.get("recovery") is not None:
        return None
    if spec.get("method") is None:
        return None
    if spec.get("fidelity") not in ("steady", "steady+clustered"):
        return None
    from . import runcache

    base = {k: v for k, v in spec.items() if k not in PREFIX_EXCLUDES}
    try:
        return runcache.config_key(prefix=PREFIX_TAG, **base)
    except TypeError:
        return None


def can_serve(spec: Dict[str, Any]) -> bool:
    """Whether a resident prefix entry can serve this spec outright.

    The planner (:class:`repro.exec.plan.Recorder`) consults this
    before scheduling a full run on the worker pool: a serveable point
    costs microseconds in the serial replay, so shipping it to a worker
    would only pay process overhead.
    """
    key = prefix_key(spec)
    if key is None:
        return False
    from . import runcache

    snap = runcache.CACHE.get_prefix(key)
    return snap is not None and snap.serves(spec["steps"])


# --------------------------------------------------------------------------
# Steps variants: the arithmetic snapshot


@dataclass
class SimSnapshot:
    """Everything needed to replay a steady-prefix run at any steps count.

    Captured at the moment the event loop of an engaged steady run
    returns, *before* ``_SteadyController.finalize`` mutates the stats
    and series in place.  ``resume(steps)`` performs finalize's exact
    arithmetic for the new steps count and assembles a full
    ``RunResult`` — float for float what the cold run produces.
    """

    # -- identity / steps-independent result template -------------------
    machine: str
    workflow: str
    method: str
    nsim: int
    nana: int
    fidelity: str
    #: the publishing run's decision record: a restored result carries
    #: the same log as a cold run of the same point
    fidelity_log: Tuple[str, ...]
    variable_nbytes: int
    nservers: int
    server_memory_peaks: List[int]
    server_memory_breakdown: Dict[str, int]
    versions_lost: int
    recovery_events: int
    recovery_seconds: float
    # -- steady-boundary replay data ------------------------------------
    cutoff: int
    confirm: int
    delta: int
    confirm_close_tick: int
    stats: Dict[str, Any]
    stats_replicas: int
    put_full: List[Tuple[float, float]]
    put_part: List[Tuple[float, float]]
    get_full: List[Tuple[float, float]]
    get_part: List[Tuple[float, float]]
    #: per tracked series: name, prefix samples, window indices i0/i1/i2
    series: List[Dict[str, Any]]
    #: actor name -> last phase-end tick at the cutoff boundary
    actors: Dict[str, int]

    def serves(self, steps: int) -> bool:
        return self.decline_reason(steps) is None

    def decline_reason(self, steps: int) -> Optional[str]:
        """Why ``resume(steps)`` would not be byte-identical (None = ok).

        A cold run with fewer than ``cutoff + 2`` steps never engages
        the fast-forward (its actors hit the range bound first), and a
        horizon past the exact-arithmetic window makes the cold run
        decline engagement too — both must fall through to a cold run.
        """
        if steps < self.cutoff + 2:
            return (
                f"prefix: {steps} steps end inside the warm-up prefix "
                f"(cutoff {self.cutoff})"
            )
        if (self.confirm_close_tick + (steps - self.cutoff) * self.delta
                >= EXACT_TICK_LIMIT):
            return (
                "prefix: fast-forward horizon exceeds the "
                "exact-arithmetic window"
            )
        return None

    def resume(self, steps: int):
        """A full RunResult for ``steps``, or None when declining.

        The replay mirrors ``_SteadyController.finalize`` exactly: the
        same record-stream tiling folded through the same replicated
        additions, the same series windows translated by the same exact
        seconds projections, the same per-actor integer shifts.
        """
        if self.decline_reason(steps) is not None:
            return None
        from ..workflows.driver import RunResult

        skipped = steps - 1 - self.cutoff
        delta = self.delta

        # Statistics: fold each kind's tiled stream through the exact
        # replicated-addition order of StagingLibrary._record_put/_get.
        st = dict(self.stats)
        replicas = self.stats_replicas
        for full, part, bkey, tkey, ckey in (
            (self.put_full, self.put_part, "bytes_staged", "put_time", "puts"),
            (self.get_full, self.get_part, "bytes_retrieved", "get_time", "gets"),
        ):
            stream = full[len(part):] + full * (skipped - 1) + full[:len(part)]
            total_b = st[bkey]
            total_t = st[tkey]
            for nbytes, elapsed in stream:
                for _ in range(replicas):
                    total_b += nbytes
                    total_t += elapsed
                st[ckey] += replicas
            st[bkey] = total_b
            st[tkey] = total_t

        # Memory series: prefix verbatim, then the periodic window tiled
        # with per-tile exact seconds offsets.
        rebuilt: List[TimeSeries] = []
        for sdata in self.series:
            obj = TimeSeries(sdata["name"])
            obj._times = list(sdata["times"])
            obj._values = list(sdata["values"])
            i0, i1, i2 = sdata["i0"], sdata["i1"], sdata["i2"]
            w_times = sdata["times"][i0:i1]
            w_values = sdata["values"][i0:i1]
            part_n = i2 - i1
            shift = delta
            offset = shift * _TICK
            for t, v in zip(w_times[part_n:], w_values[part_n:]):
                obj.record(t + offset, v)
            for _ in range(skipped - 1):
                shift += delta
                offset = shift * _TICK
                for t, v in zip(w_times, w_values):
                    obj.record(t + offset, v)
            shift += delta
            offset = shift * _TICK
            for t, v in zip(w_times[:part_n], w_values[:part_n]):
                obj.record(t + offset, v)
            rebuilt.append(obj)

        finish = {"sim": 0.0, "ana": 0.0}
        for actor, last_tick in self.actors.items():
            t = (last_tick + skipped * delta) * _TICK
            key = "sim" if actor.startswith("sim") else "ana"
            finish[key] = max(finish[key], t)

        result = RunResult(
            machine=self.machine,
            workflow=self.workflow,
            method=self.method,
            nsim=self.nsim,
            nana=self.nana,
            steps=steps,
            variable_nbytes=self.variable_nbytes,
        )
        result.end_to_end = max(finish["sim"], finish["ana"])
        result.sim_finish = finish["sim"]
        result.ana_finish = finish["ana"]
        result.put_time = st["put_time"]
        result.get_time = st["get_time"]
        result.bytes_staged = st["bytes_staged"]
        result.fidelity = self.fidelity
        result.fidelity_log = self.fidelity_log
        result.nservers = self.nservers
        result.sim_memory = rebuilt[0]
        result.ana_memory = rebuilt[1]
        if len(rebuilt) > 2:
            result.server_memory = rebuilt[2]
        result.server_memory_peaks = list(self.server_memory_peaks)
        result.server_memory_breakdown = dict(self.server_memory_breakdown)
        result.versions_lost = self.versions_lost
        result.recovery_events = self.recovery_events
        result.recovery_seconds = self.recovery_seconds
        return result


def begin_capture(steady, library) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """Phase A: capture the pre-finalize boundary state of an engaged run.

    Called immediately before ``steady.finalize`` replays the skipped
    steps in place.  Returns ``(partial, None)`` on success or
    ``(None, reason)`` when the boundary data is not in the shape
    finalize's own verification demands — finalize will then raise
    ``_SteadyDiverged`` and the run falls back anyway.
    """
    boundaries = steady.boundaries
    cutoff = steady.cutoff
    try:
        j0 = boundaries[cutoff - 2]["tap"]
        j1 = boundaries[cutoff - 1]["tap"]
        j2 = boundaries[cutoff]["tap"]
    except KeyError:
        return None, "prefix: boundary records incomplete at the cutoff"
    tap = library._steady_tap
    if tap is None:
        return None, "prefix: record tap already retired"
    streams: Dict[str, Tuple[list, list]] = {}
    for kind in ("put", "get"):
        full = [(r[1], r[2]) for r in tap[j0:j1] if r[0] == kind]
        part = [(r[1], r[2]) for r in tap[j1:j2] if r[0] == kind]
        if part != full[:len(part)]:
            return None, "prefix: record streams not periodic at the cutoff"
        streams[kind] = (full, part)
    series_data: List[Dict[str, Any]] = []
    for k, s_obj in enumerate(steady.series):
        i0 = boundaries[cutoff - 2]["series"][k]
        i1 = boundaries[cutoff - 1]["series"][k]
        i2 = boundaries[cutoff]["series"][k]
        if len(s_obj) != i2 or i2 - i1 > i1 - i0:
            return None, "prefix: memory-series windows not periodic"
        series_data.append(dict(
            name=s_obj.name,
            times=list(s_obj._times),
            values=list(s_obj._values),
            i0=i0, i1=i1, i2=i2,
        ))
    stats = library.stats
    partial = dict(
        cutoff=cutoff,
        confirm=steady.confirm,
        delta=steady.delta,
        confirm_close_tick=boundaries[steady.confirm]["close"],
        stats=dict(
            bytes_staged=stats.bytes_staged,
            bytes_retrieved=stats.bytes_retrieved,
            put_time=stats.put_time,
            get_time=stats.get_time,
            puts=stats.puts,
            gets=stats.gets,
        ),
        stats_replicas=library.stats_replicas,
        put_full=streams["put"][0], put_part=streams["put"][1],
        get_full=streams["get"][0], get_part=streams["get"][1],
        series=series_data,
        actors={a: plist[cutoff][-1] for a, plist in steady.phases.items()},
    )
    return partial, None


def finish_capture(partial: Dict[str, Any], result) -> SimSnapshot:
    """Phase B: fold the steps-independent result scalars in.

    Runs after the driver's result-tail assembly (peaks tiled, breakdown
    read), none of which the finalize replay between the phases touches.
    """
    return SimSnapshot(
        machine=result.machine,
        workflow=result.workflow,
        method=result.method,
        nsim=result.nsim,
        nana=result.nana,
        fidelity=result.fidelity,
        fidelity_log=result.fidelity_log,
        variable_nbytes=result.variable_nbytes,
        nservers=result.nservers,
        server_memory_peaks=list(result.server_memory_peaks),
        server_memory_breakdown=dict(result.server_memory_breakdown),
        versions_lost=result.versions_lost,
        recovery_events=result.recovery_events,
        recovery_seconds=result.recovery_seconds,
        **partial,
    )


# --------------------------------------------------------------------------
# Fault variants: the chaos fork host


@dataclass
class ForkTrigger:
    """One faulted cell to fork off the trunk."""

    key: str                     # the cell's run-cache key
    plan: Any                    # FaultPlan (single event)
    recovery: Any = None         # explicit RecoveryPolicy or None
    #: put-count threshold (after_puts) or 0 for a time trigger
    after_puts: int = 0
    #: absolute fire tick for time triggers
    at_tick: int = 0
    forked: bool = False


def plan_trigger(plan, recovery=None, key: str = "") -> Tuple[Optional[ForkTrigger], Optional[str]]:
    """Build a trigger for a cell's fault plan, or a decline reason.

    The protocol handles exactly the shapes it can reproduce
    byte-for-byte: one event, firing strictly after the shared prefix
    began.  Everything else runs cold.
    """
    if len(plan.events) != 1:
        return None, "fork: multi-event plans interleave with the prefix"
    event = plan.events[0]
    if event.after_puts > 0:
        return ForkTrigger(key=key, plan=plan, recovery=recovery,
                           after_puts=event.after_puts), None
    tick = round(event.at * _TICK_SCALE)
    if tick <= 0:
        return None, "fork: fault fires at t=0 (no shared prefix exists)"
    return ForkTrigger(key=key, plan=plan, recovery=recovery,
                       at_tick=tick), None


class ChaosForkHost:
    """Drives one clean trunk and forks each faulted variant from it.

    Passed to ``run_coupled(..., fork_host=...)`` by the campaign's
    fork pass.  The trunk bypasses the cache read (it must actually
    simulate), suppresses the frozen-rate promise (children degrade
    pipes mid-run) and is itself byte-identical to the clean baseline,
    so its result seeds the baseline cache entry.  ``collect()`` reaps
    the children; any child that declined or died leaves its cell to a
    cold run — forking never changes bytes, only wall-clock.
    """

    def __init__(self, triggers: List[ForkTrigger]) -> None:
        self.triggers = triggers
        self.in_child = False
        self.declines: Dict[str, str] = {}
        self._children: List[Tuple[int, str, ForkTrigger]] = []
        self._child_trigger: Optional[ForkTrigger] = None
        self._child_path: Optional[str] = None
        self._puts_flag = 0
        self._watched_library = None

    # ------------------------------------------------------------ trunk

    def drive(self, env, done, library, cluster) -> None:
        """Run the trunk event loop, forking at each trigger point.

        Replicates ``env.run(until=done)`` step for step; the only
        additions are pure-Python trigger checks between events, so the
        trunk's simulation is bit-identical to the clean baseline's.
        The checks must stay cheap — they run once per event, and the
        trunk's whole point is costing no more than a clean run — so
        the loop guards on two scalars (the next put threshold and the
        next trigger tick) and only does per-trigger work when one of
        them trips.
        """
        if library is not None and any(t.after_puts for t in self.triggers):
            self._watch_puts(library)
        put_pending = sorted(
            (t for t in self.triggers if t.after_puts),
            key=lambda t: t.after_puts,
        )
        time_pending = sorted(
            (t for t in self.triggers if not t.after_puts),
            key=lambda t: t.at_tick,
        )
        step = env.step
        ticks = env._ticks
        from ..sim.engine import EmptySchedule

        next_puts = put_pending[0].after_puts - 1 if put_pending else None
        next_tick = time_pending[0].at_tick if time_pending else None
        while done.callbacks is not None:
            if next_puts is not None and self._puts_flag >= next_puts:
                trigger = put_pending.pop(0)
                self._fork(env, done, library, cluster, trigger)
                if self.in_child:
                    return
                next_puts = (put_pending[0].after_puts - 1
                             if put_pending else None)
                continue
            if next_tick is not None and ticks and ticks[0] >= next_tick:
                cur = env._current
                if (cur is None or env._pos >= len(cur)) \
                        and env._now_tick < next_tick:
                    trigger = time_pending.pop(0)
                    self._fork(env, done, library, cluster, trigger)
                    if self.in_child:
                        return
                    next_tick = (time_pending[0].at_tick
                                 if time_pending else None)
                    continue
            try:
                step()
            except EmptySchedule:
                raise RuntimeError(
                    "simulation ran out of events before the awaited "
                    "event triggered (deadlock?)"
                ) from None
        for trigger in put_pending + time_pending:
            if not trigger.forked:
                self.declines[trigger.key] = (
                    "fork: trunk finished before the trigger point"
                )
                STATS.decline("fork: trunk finished before the trigger point")

    def _watch_puts(self, library) -> None:
        # Inert observer: raises a host-side flag, never touches the
        # simulation — the trunk stays byte-identical to a clean run.
        host = self

        def trunk_watcher(puts: int) -> None:
            host._puts_flag = puts

        library._put_watchers.append(trunk_watcher)
        self._watched_library = library

    def _fork(self, env, done, library, cluster, trigger) -> None:
        trigger.forked = True
        fd, path = tempfile.mkstemp(prefix="forkpoint-", suffix=".pkl")
        os.close(fd)
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid:
            self._children.append((pid, path, trigger))
            return
        # Child: this process now *is* the faulted variant.
        self.in_child = True
        self._child_trigger = trigger
        self._child_path = path
        self._run_child(env, done, library, cluster, trigger)

    # ------------------------------------------------------------ child

    def _child_decline(self, reason: str) -> None:
        with open(self._child_path, "wb") as fh:
            pickle.dump({"__fork_decline__": reason}, fh)
        os._exit(0)

    def _run_child(self, env, done, library, cluster, trigger) -> None:
        """Arm the fault exactly as the cold run would have, then run.

        Every piece of chaos state the cold run wires at t=0 is applied
        here instead; all of it is only ever *read* after a fault fires,
        so arming at the fork point reproduces the cold run's post-fault
        behaviour exactly.  The armed events land in the cold run's
        bucket positions: a time fault prepends at its (not yet opened)
        tick bucket, matching the cold run's t=0 insertion order.
        """
        from ..chaos.faults import DEFAULT_RECOVERY, FaultInjector
        from ..hpc.failures import WorkflowHang

        plan = trigger.plan
        event = plan.events[0]
        if event.after_puts > 0 and library.stats.puts >= event.after_puts:
            # One event step advanced the put count past the threshold:
            # the cold run fired mid-step, which the fork cannot replay.
            self._child_decline(
                "fork: put trigger overshot inside one event step"
            )
        library.recovery = (
            trigger.recovery if trigger.recovery is not None
            else DEFAULT_RECOVERY.get(library.name)
        )
        if (library.recovery is not None
                and library.recovery.kind == "reconnect-backoff"
                and hasattr(library.transport, "credential_retry")):
            library.transport.credential_retry = (
                library.recovery.backoff, library.recovery.max_retries
            )
        injector = FaultInjector(env, cluster, library, plan, None)
        if event.after_puts > 0:
            library._put_watchers.clear()
            injector._arm_put_watcher(event)
        else:
            fire = Event(env)
            fire._ok = True
            fire._value = None
            fire.callbacks.append(lambda _ev, ev=event: injector._fire(ev))
            env.schedule_at_tick_front(fire, trigger.at_tick)
        watchdog = env.timeout_at_tick(round(plan.watchdog * _TICK_SCALE))
        env.run(until=env.any_of([done, watchdog]))
        if not done.triggered:
            raise WorkflowHang(
                f"workflow did not finish within the {plan.watchdog:g}"
                f"-second watchdog after fault injection "
                f"(injected: {injector.describe()})"
            )

    def finalize_run(self, result) -> None:
        """run_coupled hook, after the attempt and before the cache put.

        In a child: ship the stripped result to the parent and exit —
        the child must never reach the parent's cache or return to the
        campaign loop.  In the parent (trunk): drop the inert watcher
        so the trunk result carries no fork-host residue.
        """
        if self.in_child:
            stripped = copy.copy(result)
            stripped.library = None
            stripped.__dict__.pop("_forkpoint_snapshot", None)
            with open(self._child_path, "wb") as fh:
                pickle.dump(stripped, fh)
            os._exit(0)
        if self._watched_library is not None:
            self._watched_library._put_watchers.clear()
            self._watched_library = None

    def child_abort(self, exc: BaseException) -> None:
        """Last-resort child containment (run_coupled's BaseException net).

        A child whose exception escaped the normal HpcError handling
        must not unwind into the parent's calling code — that stack
        belongs to the campaign loop.  Record a decline (the cell runs
        cold, where the same exception surfaces visibly) and exit.
        """
        self._child_decline(f"fork: child crashed ({type(exc).__name__}: {exc})")

    # ----------------------------------------------------------- parent

    def collect(self) -> Dict[str, Any]:
        """Reap every child; cell key -> RunResult for the successes.

        Declined or crashed children register in :attr:`declines`; the
        campaign runs those cells cold.
        """
        results: Dict[str, Any] = {}
        for pid, path, trigger in self._children:
            _, status = os.waitpid(pid, 0)
            obj = None
            try:
                with open(path, "rb") as fh:
                    obj = pickle.load(fh)
            except Exception:
                obj = None
            try:
                os.unlink(path)
            except OSError:
                pass
            if isinstance(obj, dict) and "__fork_decline__" in obj:
                reason = obj["__fork_decline__"]
                self.declines[trigger.key] = reason
                STATS.decline(reason)
            elif obj is None or status != 0:
                reason = "fork: child did not ship a result"
                self.declines[trigger.key] = reason
                STATS.decline(reason)
            else:
                obj.forked = "chaos-trunk"
                results[trigger.key] = obj
                STATS.forks_served += 1
        self._children.clear()
        return results
