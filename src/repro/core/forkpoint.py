"""Steady-boundary prefix snapshots: the one orbit replay.

Every steps variant of a point re-simulates an identical warm-up
prefix before its step counts diverge.  When the driver certifies a
steady orbit (see ``_SteadyController``) it stops the actors at a
cutoff, and the whole remaining effect of the run on its
:class:`~repro.workflows.driver.RunResult` is closed-form: the boundary
pair's record streams tile, the memory-series windows translate by
exact tick multiples, and per-actor finish times are one integer shift
each.  :func:`capture` verifies the stopped run against the certified
orbit and serializes exactly that — the staging statistics, the put/get
record windows, the memory-series tails and the per-actor boundary
ticks — into a :class:`SimSnapshot`.  :meth:`SimSnapshot.resume` is the
only code that turns an orbit into a result: the cold run returns its
own snapshot's ``resume(spec)``, and publishes the snapshot in the run
cache as a *prefix entry* under the point's
:attr:`~repro.workflows.driver.RunSpec.prefix_key`, which every steps
count shares, so any later run sharing the prefix replays only its own
suffix, float for float what a cold run produces.  Faulted runs share
no prefix: the prefix key is None for any fault plan or recovery
policy, so every chaos cell simulates cold.

Decline taxonomy: a snapshot that cannot serve a steps count (steps
that end inside the prefix, fast-forward horizons past the
exact-arithmetic window) counts its reason in :data:`STATS`, and the
run simulates cold.  A stopped run that fails :func:`capture`'s checks
reruns exact with a ``steady:`` entry in ``RunResult.fidelity_log``.  A
run whose steady orbit never certifies (covers discard-mode SST)
publishes nothing, and its steady entry already explains why.
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
    delta: int
    confirm_close_tick: int
    #: staging totals of the stopped run, before any replayed record
    bytes_staged: float
    put_time: float
    get_time: float
    #: (nbytes, elapsed) records of the periodic window and of the
    #: cutoff window, which is a prefix of it
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
        """Why a resume at ``steps`` would not be byte-identical (None = ok).

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

    def resume(self, spec):
        """A full RunResult for ``spec.steps``, or None when declining.

        The one orbit replay: the cold run that captured the snapshot
        ends with it, and so does every prefix hit.  Per stream it
        appends the rest of the cutoff window, ``skipped - 1`` full
        periodic windows and the final partial window — the exact run's
        addition/sample order fold for fold.  Everything translates by
        integer multiples of the tick Δ, and only the final values are
        projected to seconds, one exact multiply each.  Only an engaged
        steady run with an empty decision record captures a snapshot,
        so the result is labelled ``"steady"`` with an empty
        ``fidelity_log``.
        """
        steps = spec.steps
        if self.decline_reason(steps) is not None:
            return None
        skipped = steps - 1 - self.cutoff
        delta = self.delta

        # Statistics: put and get records feed disjoint accumulators,
        # so each kind's tiled stream folds on its own, one addition per
        # record in the order StagingLibrary._record_put/_get adds them.
        bytes_staged = self.bytes_staged
        put_time, get_time = self.put_time, self.get_time
        for nbytes, elapsed in _tile(self.put_full, self.put_part, skipped):
            bytes_staged += nbytes
            put_time += elapsed
        for _, elapsed in _tile(self.get_full, self.get_part, skipped):
            get_time += elapsed

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

        # Per-actor completion: one integer shift per actor, projected
        # to seconds with a single exact multiply.
        finish = {"sim": 0.0, "ana": 0.0}
        for actor, last_tick in self.actors.items():
            t = (last_tick + skipped * delta) * _TICK
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


def _tile(full: list, part: list, skipped: int) -> list:
    """The skipped steps' records: the rest of the cutoff window,
    ``skipped - 1`` full periodic windows, the final partial window."""
    return full[len(part):] + full * (skipped - 1) + full[:len(part)]


def capture(steady, result) -> SimSnapshot:
    """Verify a stopped steady run and snapshot its certified orbit.

    Called once the event loop of an engaged run returns, with
    ``result`` holding what the stopped run measured.  The stopped run
    is isomorphic to an exact run of ``cutoff + 1`` steps: its last
    window lacks exactly the spill-over of the steps it never began,
    the same truncation an exact run's *final* window has.  So every
    boundary pair up to ``cutoff - 1`` must still repeat the confirmed
    orbit with full windows, the cutoff boundary must translate every
    phase by the same Δ, and every record stream and memory series must
    end on a *prefix* of its periodic window — the shape
    :meth:`SimSnapshot.resume` completes.  Any failed check raises
    ``_SteadyDiverged``: the replay would not be bit-identical, and
    ``run_spec`` reruns the point exact.
    """
    from ..workflows.driver import _SteadyDiverged

    cutoff, delta, confirm = steady.cutoff, steady.delta, steady.confirm
    for b in range(confirm + 1, cutoff):
        if steady._match(b - 1, b, strict=False) != delta:
            raise _SteadyDiverged(
                f"boundary {b} diverged from the orbit confirmed at "
                f"step {confirm}"
            )
    if steady._phase_delta(cutoff - 1, cutoff) != delta:
        raise _SteadyDiverged(
            f"cutoff boundary {cutoff} left the orbit confirmed at step "
            f"{confirm}"
        )
    fp0, fp1, fp2 = (steady.boundaries[b]
                     for b in (cutoff - 2, cutoff - 1, cutoff))
    tap = steady.library._steady_tap
    records: Dict[str, list] = {}
    for kind in ("put", "get"):
        full = [r[1:] for r in tap[fp0["tap"]:fp1["tap"]] if r[0] == kind]
        part = [r[1:] for r in tap[fp1["tap"]:fp2["tap"]] if r[0] == kind]
        if part != full[:len(part)]:
            raise _SteadyDiverged(
                f"{kind}-record stream at the cutoff is not a prefix of "
                f"the periodic window"
            )
        records[f"{kind}_full"], records[f"{kind}_part"] = full, part
    # Series timestamps are on-grid floats, so adding Δ's exact seconds
    # projection decides the same predicate as its tick-domain twin.
    delta_f = delta * _TICK
    series: List[Dict[str, Any]] = []
    for k, s_obj in enumerate(steady.series):
        i0, i1, i2 = (fp["series"][k] for fp in (fp0, fp1, fp2))
        n = i2 - i1
        times, values = s_obj._times, s_obj._values
        if (len(s_obj) != i2 or n > i1 - i0
                or values[i1:i2] != values[i0:i0 + n]
                or any(t + delta_f != u
                       for t, u in zip(times[i0:i0 + n], times[i1:i2]))):
            raise _SteadyDiverged(
                f"series {k} cutoff window is not a prefix of the "
                f"periodic window"
            )
        series.append(dict(name=s_obj.name, times=times, values=values,
                           i0=i0, i1=i1, i2=i2))
    return SimSnapshot(
        nservers=result.nservers,
        server_memory_peaks=result.server_memory_peaks,
        server_memory_breakdown=result.server_memory_breakdown,
        cutoff=cutoff,
        delta=delta,
        confirm_close_tick=steady.boundaries[confirm]["close"],
        bytes_staged=result.bytes_staged,
        put_time=result.put_time,
        get_time=result.get_time,
        series=series,
        actors={a: plist[cutoff][-1] for a, plist in steady.phases.items()},
        **records,
    )
