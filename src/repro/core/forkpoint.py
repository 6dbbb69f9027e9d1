"""Steady-boundary prefix snapshots: the one orbit replay.

Every steps variant of a point re-simulates an identical warm-up
prefix before its step counts diverge.  When the driver certifies a
steady orbit (see ``_SteadyController``) it stops the actors at a
cutoff, and the whole remaining effect of the run on its
:class:`~repro.workflows.driver.RunResult` is closed-form: the boundary
pair's record streams tile, every memory-series sample translates by
exact multiples of the period of the actor that produced it, and each
actor's finish time is one integer shift of its own period.
:func:`capture` verifies the stopped run against the certified orbit
and serializes exactly that — the staging statistics, the put/get
record windows, the memory-series windows with their per-sample
shifts, the per-actor periods and boundary ticks, and the horizon the
cross-rate bound proves — into a :class:`SimSnapshot`.
:meth:`SimSnapshot.resume` is the only code that turns an orbit into a
result: the cold run returns its own snapshot's ``resume(spec)``, and
publishes the snapshot in the run cache as a *prefix entry* under the
point's :attr:`~repro.workflows.driver.RunSpec.prefix_key`, which every
steps count shares, so any later run sharing the prefix replays only
its own suffix, float for float what a cold run produces.  Faulted runs
share no prefix: the prefix key is None for any fault plan or recovery
policy, so every chaos cell simulates cold.

Decline taxonomy: a snapshot that cannot serve a steps count (steps
that end inside the prefix or pass the cross-rate horizon, fast-forward
horizons past the exact-arithmetic window) counts its reason in
:data:`STATS`, and the run simulates cold — exactly when a cold run of
that steps count would not engage either.  A stopped run that fails
:func:`capture`'s checks reruns exact with a ``steady:`` entry in
``RunResult.fidelity_log``.  A run whose steady orbit never certifies
(covers discard-mode SST) publishes nothing, and its steady entry
already explains why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..sim.engine import EXACT_TICK_LIMIT, _TICK
from ..sim.monitor import TimeSeries


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


# --------------------------------------------------------------------------
# The arithmetic snapshot


@dataclass
class SimSnapshot:
    """Everything needed to replay a steady-prefix run at any steps count.

    Built by :func:`capture` once the event loop of an engaged steady
    run returns.  ``resume(spec)`` replays the skipped steps for the
    spec's steps count and assembles a full ``RunResult`` — float for
    float what an exact run produces.  The spec supplies the inputs the
    result echoes: any spec under this snapshot's prefix key has the
    captured run's.
    """

    # -- steps-independent measurements ---------------------------------
    nservers: int
    server_memory_peaks: List[int]
    server_memory_breakdown: Dict[str, int]
    # -- steady-boundary replay data ------------------------------------
    cutoff: int
    #: actor name -> its period Δᵢ, in integer ticks
    periods: Dict[str, int]
    #: actor name -> last phase-end tick at the cutoff boundary
    actors: Dict[str, int]
    confirm_close_tick: int
    #: the longest steps count the cross-rate bound proves (None: any)
    horizon: Optional[int]
    #: staging totals at the close of the tiled window
    bytes_staged: float
    put_time: float
    get_time: float
    #: the tiled window's records as ``(nbytes, elapsed, present)``:
    #: ``present`` is 1 when the stopped run already holds the next
    #: repeat (its step did not run past the cutoff)
    puts: List[Tuple[float, float, int]]
    gets: List[Tuple[float, float, int]]
    #: per tracked series: name, samples through the tiled window's
    #: close, and the window as ``(time, value, shift, present)``
    series: List[Dict[str, Any]]

    def serves(self, steps: int) -> bool:
        return self.decline_reason(steps) is None

    def decline_reason(self, steps: int) -> Optional[str]:
        """Why a resume at ``steps`` would not be byte-identical (None = ok).

        A cold run with fewer than ``cutoff + 2`` steps never engages
        the fast-forward (its actors hit the range bound first); a cold
        run past the cross-rate horizon, or whose horizon leaves the
        exact-arithmetic window, declines engagement too — all must fall
        through to a cold run.
        """
        if steps < self.cutoff + 2:
            return (
                f"prefix: steps end inside the warm-up prefix "
                f"({steps} steps, cutoff {self.cutoff})"
            )
        if self.horizon is not None and steps > self.horizon:
            return (
                f"prefix: steps pass the cross-rate horizon "
                f"({steps} steps, horizon {self.horizon})"
            )
        if (self.confirm_close_tick
                + (steps - self.cutoff) * max(self.periods.values())
                >= EXACT_TICK_LIMIT):
            return (
                "prefix: fast-forward horizon exceeds the "
                "exact-arithmetic window"
            )
        return None

    def resume(self, spec):
        """A full RunResult for ``spec.steps``, or None when declining.

        The one orbit replay: the cold run that captured the snapshot
        ends with it, and so does every prefix hit.  From the tiled
        window's close, each stream repeats the window tile by tile —
        entry by entry for as long as its own actor's steps last — which
        inside the certified horizon is the exact run's addition/sample
        order fold for fold.  Every entry moves by integer multiples of
        its own shift, and only the final values are projected to
        seconds, one exact multiply each.  Only an engaged steady run
        with an empty decision record captures a snapshot, so the
        result is labelled ``"steady"`` with an empty ``fidelity_log``.
        """
        steps = spec.steps
        if self.decline_reason(steps) is not None:
            return None
        skipped = steps - 1 - self.cutoff

        # Statistics: put and get records feed disjoint accumulators,
        # so each kind's tiled stream folds on its own, one addition per
        # record in the order StagingLibrary._record_put/_get adds them.
        bytes_staged = self.bytes_staged
        put_time, get_time = self.put_time, self.get_time
        for _, (nbytes, elapsed, _) in _tile(self.puts, skipped):
            bytes_staged += nbytes
            put_time += elapsed
        for _, (_, elapsed, _) in _tile(self.gets, skipped):
            get_time += elapsed

        # Memory series: the prefix verbatim, then the window tiled with
        # per-entry exact seconds offsets.
        rebuilt: List[TimeSeries] = []
        for sdata in self.series:
            obj = TimeSeries(sdata["name"])
            obj._times = list(sdata["times"])
            obj._values = list(sdata["values"])
            for k, (t, v, shift, _) in _tile(sdata["window"], skipped):
                obj.record(t + (k * shift) * _TICK, v)
            rebuilt.append(obj)

        # Per-actor completion: one integer shift per actor, projected
        # to seconds with a single exact multiply.
        finish = {"sim": 0.0, "ana": 0.0}
        for actor, last_tick in self.actors.items():
            t = (last_tick + skipped * self.periods[actor]) * _TICK
            key = "sim" if actor.startswith("sim") else "ana"
            finish[key] = max(finish[key], t)

        return spec.new_result(
            end_to_end=max(finish["sim"], finish["ana"]),
            sim_finish=finish["sim"],
            ana_finish=finish["ana"],
            put_time=put_time,
            get_time=get_time,
            bytes_staged=bytes_staged,
            fidelity="steady",
            nservers=self.nservers,
            sim_memory=rebuilt[0],
            ana_memory=rebuilt[1],
            server_memory=rebuilt[2] if len(rebuilt) > 2 else None,
            server_memory_peaks=list(self.server_memory_peaks),
            server_memory_breakdown=dict(self.server_memory_breakdown),
        )


def _tile(window: list, skipped: int):
    """``(k, entry)`` for the window's ``k``-th repeats, tile by tile.

    From the tiled window's close an entry repeats ``present +
    skipped`` times (``present`` is its last field): the stopped run
    ran every actor through the cutoff step, so an entry whose first
    repeat it holds comes from one step earlier than one whose first
    repeat it lacks."""
    for k in range(1, skipped + 2):
        for entry in window:
            if k <= entry[-1] + skipped:
                yield k, entry


def _present(window: list, shifts: list, part: list) -> Optional[list]:
    """Which window entries' next repeats the stopped window holds.

    ``part`` (the cutoff window of the stopped run) must be those
    repeats, in window order; it lacks exactly the repeats of steps the
    stopped actors never began.  None when it is not.
    """
    flags, j = [], 0
    for (tick, payload), shift in zip(window, shifts):
        if j < len(part) and part[j] == (tick + shift, payload):
            flags.append(1)
            j += 1
        else:
            flags.append(0)
    return flags if j == len(part) else None


def capture(steady, result) -> SimSnapshot:
    """Verify a stopped steady run and snapshot its certified orbit.

    Called once the event loop of an engaged run returns, with
    ``result`` holding what the stopped run measured.  The stopped run
    is an exact run of ``cutoff + 1`` steps: its last window lacks
    exactly the repeats of the steps it never began, the same truncation
    an exact run's *final* window has.  So every boundary pair up to
    ``cutoff - 1`` must still repeat the confirmed orbit with full
    windows, the cutoff boundary must move every actor by its period,
    and every record stream and memory series must end on repeats of
    its periodic window, in order — the shape
    :meth:`SimSnapshot.resume` completes.  Any failed check raises
    ``_SteadyDiverged``: the replay would not be bit-identical, and
    ``run_spec`` reruns the point exact.
    """
    from ..workflows.driver import _SteadyDiverged

    cutoff, confirm, orbit = steady.cutoff, steady.confirm, steady.orbit
    tiled = orbit
    for b in range(confirm + 1, cutoff):
        tiled = steady._match(b, strict=False)
        if tiled is None or not orbit.same_shape(tiled):
            raise _SteadyDiverged(
                f"boundary {b} diverged from the orbit confirmed at "
                f"step {confirm}"
            )
    if steady._periods(cutoff - 1, cutoff) != orbit.periods:
        raise _SteadyDiverged(
            f"cutoff boundary {cutoff} left the orbit confirmed at step "
            f"{confirm}"
        )
    fp1, fp2 = steady.boundaries[cutoff - 1], steady.boundaries[cutoff]
    records: Dict[str, list] = {}
    for kind in ("put", "get"):
        window, shifts = tiled.records[kind]
        flags = _present(window, shifts, steady.records(kind, fp1["tap"]))
        if flags is None or len(steady.library._steady_tap) != fp2["tap"]:
            raise _SteadyDiverged(
                f"{kind}-record stream at the cutoff does not repeat the "
                f"periodic window"
            )
        records[f"{kind}s"] = [(*payload, flag) for (_, payload), flag
                               in zip(window, flags)]
    series: List[Dict[str, Any]] = []
    for k, s_obj in enumerate(steady.series):
        window, shifts = tiled.series[k]
        i1 = fp1["series"][k]
        flags = _present(window, shifts, steady.samples(k, i1))
        if flags is None or len(s_obj) != fp2["series"][k]:
            raise _SteadyDiverged(
                f"series {k} cutoff window does not repeat the periodic "
                f"window"
            )
        series.append(dict(
            name=s_obj.name, times=s_obj._times[:i1],
            values=s_obj._values[:i1],
            window=[(tick * _TICK, v, shift, flag) for (tick, v), shift, flag
                    in zip(window, shifts, flags)],
        ))
    bytes_staged, put_time, get_time = fp1["stats"]
    return SimSnapshot(
        nservers=result.nservers,
        server_memory_peaks=result.server_memory_peaks,
        server_memory_breakdown=result.server_memory_breakdown,
        cutoff=cutoff,
        periods=dict(orbit.periods),
        actors={a: plist[cutoff][-1] for a, plist in steady.phases.items()},
        confirm_close_tick=steady.boundaries[confirm]["close"],
        horizon=orbit.horizon,
        bytes_staged=bytes_staged,
        put_time=put_time,
        get_time=get_time,
        series=series,
        **records,
    )
