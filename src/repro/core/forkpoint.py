"""Steady-boundary prefix snapshots.

Every steps variant of a point re-simulates an identical warm-up
prefix before its step counts diverge.  When the driver certifies the
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
performs, folded in the same order).  Faulted runs share no prefix:
:func:`prefix_key` is None for any fault plan or recovery policy, so
every chaos cell simulates cold.

Decline taxonomy: a snapshot that cannot serve a steps count (steps
that end inside the prefix, fast-forward horizons past the
exact-arithmetic window) counts its reason in :data:`STATS`, and the
run simulates cold; an engaged steady run that cannot publish a
snapshot (compute-only baselines, whose per-actor fast-forward has no
shared boundary; boundary data that is not periodic; unkeyable points)
says why in ``RunResult.fidelity_log``.  A run whose steady orbit never
certifies (covers discard-mode SST) publishes nothing, and its steady
entry already explains why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..sim.engine import EXACT_TICK_LIMIT, _TICK
from ..sim.monitor import TimeSeries

#: prefix-entry keys exclude exactly these point-spec inputs: a prefix
#: is shared by every steps count and consumed before any fault fires
PREFIX_EXCLUDES = ("steps", "fault_plan", "recovery")

#: marker folded into the prefix content address so a prefix entry can
#: never collide with a full-run key built from the same inputs
PREFIX_TAG = "steady-boundary-prefix"


class ForkpointStats:
    """Process-wide prefix-snapshot observability counters.

    ``forks_served`` counts prefix resumes and ``fork_declines`` the
    reasons a resident snapshot declined a steps count; the names stay
    because the run report, the daemon ``stats`` verb and the
    benchmark harness read them.
    """

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


#: the singleton every layer (driver, exec report, daemon) reads and
#: bumps
STATS = ForkpointStats()


def prefix_key(spec: Dict[str, Any]) -> Optional[str]:
    """The prefix content address for one normalized point spec.

    ``spec`` is the same normalized kwargs dict the driver feeds
    :func:`repro.core.runcache.config_key` (catalog names resolved,
    overrides merged).  Returns None when the spec cannot share a
    prefix: chaos/recovery runs diverge inside it, compute-only
    baselines fast-forward per actor (no shared boundary), and only the
    steady fidelity ever certifies one.
    """
    if spec.get("fault_plan") is not None or spec.get("recovery") is not None:
        return None
    if spec.get("method") is None:
        return None
    if spec.get("fidelity") != "steady":
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
# The arithmetic snapshot


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
                f"prefix: steps end inside the warm-up prefix "
                f"({steps} steps, cutoff {self.cutoff})"
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
        same record-stream tiling folded through the same additions, the
        same series windows translated by the same exact seconds
        projections, the same per-actor integer shifts.  Only an engaged
        steady run with an empty decision record publishes a snapshot,
        so the restored result is labelled ``"steady"`` with an empty
        ``fidelity_log``, exactly like a cold run of the same point.
        """
        if self.decline_reason(steps) is not None:
            return None
        from ..workflows.driver import RunResult

        skipped = steps - 1 - self.cutoff
        delta = self.delta

        # Statistics: fold each kind's tiled stream in the exact
        # addition order of StagingLibrary._record_put/_get, one
        # addition per record.
        st = dict(self.stats)
        for full, part, bkey, tkey, ckey in (
            (self.put_full, self.put_part, "bytes_staged", "put_time", "puts"),
            (self.get_full, self.get_part, "bytes_retrieved", "get_time", "gets"),
        ):
            stream = full[len(part):] + full * (skipped - 1) + full[:len(part)]
            total_b = st[bkey]
            total_t = st[tkey]
            for nbytes, elapsed in stream:
                total_b += nbytes
                total_t += elapsed
            st[bkey] = total_b
            st[tkey] = total_t
            st[ckey] += len(stream)

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
        result.fidelity = "steady"
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
        put_full=streams["put"][0], put_part=streams["put"][1],
        get_full=streams["get"][0], get_part=streams["get"][1],
        series=series_data,
        actors={a: plist[cutoff][-1] for a, plist in steady.phases.items()},
    )
    return partial, None


def finish_capture(partial: Dict[str, Any], result) -> SimSnapshot:
    """Phase B: fold the steps-independent result scalars in.

    Runs after the driver's result-tail assembly (peaks and breakdown
    read), none of which the finalize replay between the phases touches.
    """
    return SimSnapshot(
        machine=result.machine,
        workflow=result.workflow,
        method=result.method,
        nsim=result.nsim,
        nana=result.nana,
        variable_nbytes=result.variable_nbytes,
        nservers=result.nservers,
        server_memory_peaks=list(result.server_memory_peaks),
        server_memory_breakdown=dict(result.server_memory_breakdown),
        versions_lost=result.versions_lost,
        recovery_events=result.recovery_events,
        recovery_seconds=result.recovery_seconds,
        **partial,
    )
