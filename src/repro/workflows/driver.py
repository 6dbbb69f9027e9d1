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
import hashlib
import inspect
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple, Union

from ..chaos.faults import FaultPlan, RecoveryPolicy
from ..core import forkpoint, runcache
from ..hpc.cluster import Cluster
from ..hpc.failures import HpcError
from ..hpc.machines import MachineSpec, get_machine
from ..sim import Environment, TimeSeries
from ..sim.engine import EXACT_TICK_LIMIT, _TICK_SCALE
from ..staging import calibration as cal
from ..staging.base import StagingConfig, StagingLibrary
from ..staging.decomposition import application_decomposition
from ..staging.factory import make_library, method_spec
from ..staging.ndarray import Variable
from .catalog import WorkflowSpec, get_workflow
from .fidelity import FidelityDecision, resolve_fidelity
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
    """A stopped steady run failed its replay-time verification.

    Raised by :func:`repro.core.forkpoint.capture` when the boundaries
    the stopped run closed no longer repeat the engagement pair — the
    fast-forward would not have been bit-identical.  :func:`run_spec`
    catches it and reruns the configuration without the fast-forward, so
    a false engagement can only ever cost time, never correctness.
    """


#: the checks a boundary pair must pass, in the order they run; a run
#: whose orbit never certifies names the one its last pair failed
MATCH_CHECKS = (
    "actor phases", "pending events", "library state", "client memory",
    "record window", "series window", "cross-rate slack",
)


@dataclass(frozen=True)
class Orbit:
    """A certified boundary pair: each actor's period and each window
    entry's shift, in integer ticks.

    ``horizon`` is the longest steps count over which no interaction
    between actors of different periods changes its outcome (None when
    every actor keeps one period, or no such interaction closes in).
    """

    periods: Dict[str, int]
    #: per staging-record kind ("put", "get"): the window's entries as
    #: ``(tick, (nbytes, elapsed))``, and each entry's shift
    records: Dict[str, Tuple[list, list]]
    #: per tracked memory series: the window's ``(tick, value)`` entries
    #: and their shifts
    series: Tuple[Tuple[list, list], ...]
    horizon: Optional[int] = None

    def same_shape(self, other: "Orbit") -> bool:
        """Whether ``other`` repeats this orbit's periods and shifts."""
        return (self.periods == other.periods
                and all(self.records[k][1] == other.records[k][1]
                        for k in self.records)
                and [s for _, s in self.series]
                == [s for _, s in other.series])


class _SteadyController:
    """Temporal memoization of the staged coupled step loop.

    Every actor reports its per-step phase end times; when all actors
    have completed step ``s`` the controller fingerprints the boundary:
    the pending-event queue, the library's normalized state (gate
    window, server memory, per-library resources), the put/get record
    stream and memory-series sample windows, and the client memory
    totals.  Two consecutive boundaries match when every actor's phase
    ends translate by that actor's own period Δᵢ and every other entry
    moves by the shift measured for it — the period of whichever actor
    produced it.  When every Δᵢ is equal this is one clock translation
    of the whole state.  When they differ (a hop-scaled torus gives each
    writer its own put time) the actors' phases must repeat over two
    consecutive pairs, and a horizon bound over every contention
    decision the simulator took between them — chain claims, FIFO
    grants and gate wake-ups, logged in
    ``Environment._steady_log`` — plus the order of consecutive
    records and samples proves no outcome changes before the run's last
    step.  Boundary closes and phase ends are integer ticks, so every
    translation is exact in 64-bit integers, and projecting a
    translated tick back to seconds (one exact ``tick * 2**-32``
    multiply below :data:`~repro.sim.engine.EXACT_TICK_LIMIT`)
    reproduces the floats an un-fast-forwarded run would have produced
    bit for bit.  The controller then stops the actors one step past the
    furthest actor's progress; :func:`repro.core.forkpoint.capture`
    snapshots the orbit, and the snapshot's ``resume`` replays the
    remaining iterations as exact translates.
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
        self.orbit: Optional[Orbit] = None
        self.confirm: Optional[int] = None    # step s of the matched pair (s-1, s)
        self.fail: Optional[str] = None       # permanent decline reason
        self.miss: Optional[str] = None       # the last pair's failed check
        #: interactions are logged from the first boundary a several-
        #: period match reads (bootstrap and warm-up are never read)
        #: until the orbit certifies, trimmed to the windows the next
        #: match reads
        self._log_from = max(warmup, 2) - 2
        self._log_base = 0                    # log index of _steady_log[0]

    @property
    def engaged(self) -> bool:
        return self.cutoff is not None

    @property
    def decline(self) -> str:
        """The run's ``steady:`` entry when it never engaged."""
        return self.fail or (
            f"steady: no boundary pair matched "
            f"({self.miss or MATCH_CHECKS[0]})"
        )

    def stop(self, step: int) -> bool:
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
        stats = self.library.stats
        return dict(
            close=self.env._now_tick,
            snapshot=self.env.steady_snapshot(),
            state=self.library.steady_state(step),
            totals=tuple(t.total for t in self.trackers),
            tap=len(self.library._steady_tap),
            series=tuple(len(s) for s in self.series),
            log=self._log_base + len(self.env._steady_log or ()),
            stats=(stats.bytes_staged, stats.put_time, stats.get_time),
        )

    def _close(self, step: int) -> None:
        self.boundaries[step] = self._capture(step)
        if step == self._log_from:
            self.env._steady_log = []
        self._trim_log(step)
        if self.cutoff is not None or step < self.warmup:
            return
        # Pipelined actors may already be inside later steps (the gate
        # window lets writers run ahead); everyone stops before the
        # first step no actor has begun, so every live step closes.
        cutoff = max(self.done) + 1
        useful = self.miss
        orbit = self._match(step)
        if orbit is None:
            if cutoff > self.steps - 2 and useful is not None:
                # a pair this late could not skip a step (and the run's
                # ending perturbs it): the last one that could is named
                self.miss = useful
            return
        if cutoff > self.steps - 2:
            self._give_up("steady: orbit confirmed too late to skip any step")
            return
        if (self.env._now_tick
                + (self.steps - cutoff) * max(orbit.periods.values())
                >= EXACT_TICK_LIMIT):
            self._give_up("steady: fast-forward horizon exceeds the "
                          "exact-arithmetic window")
            return
        self.confirm = step
        self.orbit = orbit
        self.cutoff = cutoff
        self.env._steady_log = None

    def _give_up(self, reason: str) -> None:
        self.fail = reason
        self.env._steady_log = None

    def _trim_log(self, step: int) -> None:
        """Drop interactions no later match reads (before boundary
        ``step - 2``)."""
        log, prev = self.env._steady_log, self.boundaries.get(step - 2)
        if log is None or prev is None:
            return
        cut = prev["log"] - self._log_base
        if cut > 0:
            del log[:cut]
            self._log_base += cut

    def _match(self, b: int, strict: bool = True) -> Optional[Orbit]:
        """The orbit if boundary ``b`` repeats boundary ``b - 1``, else
        None with :attr:`miss` naming the failed check.

        ``strict`` additionally compares the pending-event queue, the
        library state and client memory totals, and bounds the
        cross-rate interactions — valid only while every actor is still
        live.  Replay-time verification runs non-strict: past the cutoff
        the controller itself emptied the queue, but matching phases
        and windows then *prove* the post-engagement window equals the
        periodic one (nothing the exact run would interleave there is
        missing), which is exactly what the replay tiles.
        """
        a = b - 1
        periods = self._periods(a, b)
        single = periods is not None and len(set(periods.values())) == 1
        # several periods: each actor must keep its own over two pairs
        if periods is None or not (single
                                   or periods == self._periods(a - 1, a)):
            return self._missed("actor phases")
        rates = set(periods.values())
        fpa, fpb = self.boundaries[a], self.boundaries[b]
        if strict:
            if not _pending_repeats(fpa["snapshot"], fpb["snapshot"], rates):
                return self._missed("pending events")
            if fpa["state"] != fpb["state"]:
                return self._missed("library state")
            if fpa["totals"] != fpb["totals"]:
                return self._missed("client memory")
        # The put/get record windows and the tracked memory-series
        # windows must repeat verbatim (values) and move each entry by
        # a measured actor period (times).
        before = self.boundaries.get(a - 1)
        records = {}
        for kind in ("put", "get"):
            j0 = before["tap"] if before is not None else 0
            second = self.records(kind, fpa["tap"], fpb["tap"])
            shifts = _shifts(self.records(kind, j0, fpa["tap"]), second, rates)
            if shifts is None:
                return self._missed("record window")
            records[kind] = (second, shifts)
        series = []
        for k in range(len(self.series)):
            i0 = before["series"][k] if before is not None else 0
            second = self.samples(k, fpa["series"][k], fpb["series"][k])
            shifts = _shifts(self.samples(k, i0, fpa["series"][k]), second,
                             rates)
            if shifts is None:
                return self._missed("series window")
            series.append((second, shifts))
        horizon = None
        if strict and not single:
            reach = min([self._interaction_reach(b, rates)]
                        + [_order_reach(*w) for w in records.values()]
                        + [_order_reach(*w) for w in series])
            if reach != math.inf:
                horizon = b + reach
                if self.steps > horizon:
                    return self._missed("cross-rate slack")
        return Orbit(periods, records, tuple(series), horizon)

    def records(self, kind: str, lo: int, hi: Optional[int] = None) -> list:
        """The ``kind`` ("put"/"get") staging records of tap slice
        ``[lo:hi]`` as ``(tick, (nbytes, elapsed))`` window entries."""
        return [(r[3], r[1:3]) for r in self.library._steady_tap[lo:hi]
                if r[0] == kind]

    def samples(self, k: int, lo: int, hi: Optional[int] = None) -> list:
        """Samples ``[lo:hi]`` of tracked series ``k`` as ``(tick,
        value)`` window entries (on-grid times scale to exact ticks)."""
        s_obj = self.series[k]
        return [(int(t * _TICK_SCALE), v)
                for t, v in zip(s_obj._times[lo:hi], s_obj._values[lo:hi])]

    def _missed(self, check: str) -> None:
        self.miss = check
        return None

    def _periods(self, a: int, b: int) -> Optional[Dict[str, int]]:
        """Each actor's period if all its phase ends of step ``b`` are
        those of step ``a`` moved by one positive tick count, else None."""
        if a < 0:
            return None
        periods = {}
        for actor, plist in self.phases.items():
            if len(plist) <= b or len(plist[a]) != len(plist[b]):
                return None
            delta = plist[b][-1] - plist[a][-1]
            if delta <= 0 or any(ta + delta != tb
                                 for ta, tb in zip(plist[a], plist[b])):
                return None
            periods[actor] = delta
        return periods

    def _interaction_reach(self, b: int, periods: set) -> float:
        """Further steps over which every logged interaction of the
        window pair ending at ``b`` keeps its outcome (0 when one does
        not repeat).

        Interactions pair up per site (a pipe chain, a resource, a gate
        side) in occurrence order.  Each has an arrival and a ready tick,
        each moving by an actor's period, and waited iff ready > arrival;
        the gap between them moves by the difference of their shifts
        every step, and must keep its sign for as long as the run lasts.
        """
        log = self.env._steady_log
        m0, m1, m2 = (self.boundaries[x]["log"] - self._log_base
                      for x in (b - 2, b - 1, b))
        first, second = _by_site(log[m0:m1]), _by_site(log[m1:m2])
        if first.keys() != second.keys():
            return 0
        reach = math.inf
        for site, pairs in second.items():
            earlier = first[site]
            if len(earlier) != len(pairs):
                return 0
            for (x1, y1), (x2, y2) in zip(earlier, pairs):
                if ((y1 > x1) != (y2 > x2) or x2 - x1 not in periods
                        or y2 - y1 not in periods):
                    return 0
                drift = (x2 - x1) - (y2 - y1)
                if y2 > x2:
                    reach = min(reach, _reach(y2 - x2, -drift))
                else:
                    reach = min(reach, _reach(x2 - y2, drift))
        return reach


def _pending_repeats(first: tuple, second: tuple, periods: set) -> bool:
    """Whether every pending event of ``second`` is one of ``first``'s
    moved by an actor period (events that never fire stay put)."""
    return len(first) == len(second) and all(
        t2 - t1 in periods or t1 == t2 == math.inf
        for t1, t2 in zip(first, second)
    )


def _shifts(first: list, second: list, periods: set) -> Optional[list]:
    """Per-entry tick shifts from window ``first`` to ``second``.

    Entries are ``(tick, payload)``.  None unless both windows hold the
    same payloads in the same order and every entry moves by one of the
    actors' ``periods``.
    """
    if len(first) != len(second):
        return None
    shifts = []
    for (t1, p1), (t2, p2) in zip(first, second):
        shift = t2 - t1
        if p1 != p2 or shift not in periods:
            return None
        shifts.append(shift)
    return shifts


def _reach(gap: int, drift: int) -> float:
    """Further steps over which ``gap`` (>= 0), moving by ``drift`` a
    step, stays positive: unbounded unless it shrinks."""
    if drift >= 0:
        return math.inf
    return max(0, (gap - 1) // -drift)


def _order_reach(window: list, shifts: list) -> float:
    """Further steps before two consecutive entries of a tiled window
    could swap, the last entry and the next tile's first included."""
    reach = math.inf
    n = len(window)
    for j in range(n):
        if j + 1 < n:
            later, later_shift = window[j + 1][0], shifts[j + 1]
        else:
            later, later_shift = window[0][0] + shifts[0], shifts[0]
        reach = min(reach, _reach(later - window[j][0],
                                  later_shift - shifts[j]))
    return reach


def _by_site(entries: list) -> Dict[Any, list]:
    """Logged interactions, flat ``site, arrival, ready`` triples,
    grouped per site in occurrence order."""
    sites: Dict[Any, list] = {}
    triples = iter(entries)
    for site, arrival, ready in zip(triples, triples, triples):
        sites.setdefault(site, []).append((arrival, ready))
    return sites


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
    #: the rest by exact translation (offered to every run, engaged only
    #: when the fingerprint checks proved it bit-identical)
    fidelity: str = "exact"
    #: one ``"<tier>: <reason>"`` entry per tier that did not engage
    #: (see :mod:`repro.workflows.fidelity`): an exact run carries
    #: exactly one ``steady:`` entry, an engaged run none
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
    #: "prefix:…" when this result was resumed from another run's
    #: steady-boundary snapshot (see :mod:`repro.core.forkpoint`); None
    #: when this call simulated
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


@dataclass(frozen=True)
class RunSpec:
    """Every input of one coupled run, resolved: what makes two runs one.

    :meth:`of` is the only code that validates and normalizes
    ``run_coupled`` arguments.  A catalog machine or workflow is held by
    name (an ad-hoc spec object as given), and the workflow fills in
    ``variable``, the step seconds, ``app_axis`` and, under
    ``topology_overrides``, its ranks per node.  :attr:`key` and
    :attr:`prefix_key` are the only run-cache and prefix-snapshot
    addresses, so the driver, the planner, the pool and the serve daemon
    agree on what "the same run" is.  ``trace`` and ``fidelity`` steer
    how a run executes, never what it computes: they are no fields.
    """

    machine: Union[str, MachineSpec]
    workflow: Union[str, WorkflowSpec]
    method: Optional[str]
    nsim: int
    nana: int
    steps: int
    transport: Optional[str]
    num_servers: Optional[int]
    shared_nodes: bool
    variable: Variable
    sim_step_seconds: float
    ana_step_seconds: float
    #: sorted ``(name, value)`` pairs, so the key ignores spelling order
    topology_overrides: Tuple[Tuple[str, Any], ...]
    config: Optional[StagingConfig]
    app_axis: int
    fault_plan: Optional[FaultPlan]
    recovery: Optional[RecoveryPolicy]

    @classmethod
    def of(cls, **kwargs) -> "RunSpec":
        """Resolve ``run_coupled`` keyword arguments (omitted ones take
        its defaults; ``fidelity`` is accepted and ignored).

        ``TypeError`` for an argument ``run_coupled`` does not take or a
        value of the wrong type, ``KeyError`` for an unknown catalog name,
        ``ValueError`` for an unknown staging method.
        """
        unknown = kwargs.keys() - _DEFAULTS.keys()
        if unknown:
            raise TypeError(f"not run_coupled arguments: {sorted(unknown)}")
        args = {**_DEFAULTS, **kwargs}
        del args["fidelity"]
        for name in ("nsim", "nana", "steps"):
            value = args[name]
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        # A value's repr is its part of the key, so only these types may
        # stand where an object goes.
        for name, kind in _OBJECT_INPUTS:
            if args[name] is not None and not isinstance(args[name], kind):
                raise TypeError(f"{name} must be a {kind.__name__}, "
                                f"got {args[name]!r}")
        method = args["method"]
        if method is not None:
            if not isinstance(method, str):
                raise TypeError(f"method must be a str, got {method!r}")
            method_spec(method)  # an unknown name fails here, not in a worker
        machine = _resolve(args["machine"], get_machine)
        wf = _resolve(args["workflow"], get_workflow)
        overrides = dict(
            sim_ranks_per_node=wf.sim_ranks_per_node,
            ana_ranks_per_node=wf.ana_ranks_per_node,
        )
        overrides.update(args["topology_overrides"] or {})
        if args["variable"] is None:
            args["variable"] = wf.variable(args["nsim"])
        for name in ("sim_step_seconds", "ana_step_seconds", "app_axis"):
            if args[name] is None:
                args[name] = getattr(wf, name)
        args.update(machine=_catalog_name(machine, get_machine),
                    workflow=_catalog_name(wf, get_workflow),
                    topology_overrides=tuple(sorted(overrides.items())))
        return cls(**args)

    @property
    def machine_spec(self) -> MachineSpec:
        return _resolve(self.machine, get_machine)

    @property
    def workflow_spec(self) -> WorkflowSpec:
        return _resolve(self.workflow, get_workflow)

    def new_result(self, **measured) -> RunResult:
        """A :class:`RunResult` echoing this run's inputs, plus ``measured``."""
        return RunResult(
            machine=self.machine_spec.name, workflow=self.workflow_spec.name,
            method=self.method, nsim=self.nsim, nana=self.nana,
            steps=self.steps, variable_nbytes=self.variable.nbytes, **measured,
        )

    @cached_property
    def key(self) -> Optional[str]:
        """The run-cache address; None when an ad-hoc machine or
        workflow spec makes the run uncacheable."""
        if isinstance(self.machine, str) and isinstance(self.workflow, str):
            return _address(self)
        return None

    @cached_property
    def prefix_key(self) -> Optional[str]:
        """The prefix-snapshot address every steps count of this point
        shares (see :mod:`repro.core.forkpoint`).

        None when the run shares no prefix: an uncacheable spec, a
        compute-only baseline (no orbit to certify), or a fault plan or
        recovery policy (the run diverges inside the prefix).  The tag
        keeps it apart from any full-run key.
        """
        if (self.key is None or self.method is None
                or self.fault_plan is not None or self.recovery is not None):
            return None
        return _address("steady-boundary-prefix", replace(self, steps=None))


#: inputs that hold objects, and the type each must be
_OBJECT_INPUTS = (
    ("variable", Variable), ("config", StagingConfig),
    ("fault_plan", FaultPlan), ("recovery", RecoveryPolicy),
)


def _resolve(entry, lookup):
    """A catalog entry by name, or the ad-hoc spec object given."""
    return lookup(entry) if isinstance(entry, str) else entry


def _catalog_name(entry, lookup):
    """A catalog entry's name; an ad-hoc spec object is kept as given."""
    try:
        return entry.name if lookup(entry.name) is entry else entry
    except KeyError:
        return entry


def _address(*parts) -> str:
    """sha256 over the repr of ``parts`` under the cache schema version."""
    payload = repr((runcache.SCHEMA_VERSION, *parts))
    return hashlib.sha256(payload.encode()).hexdigest()


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
    fidelity: Optional[str] = None,
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

    Every run is offered the steady fast-forward: it stops simulating
    once the coupled step loop provably enters a periodic orbit — two
    consecutive step boundaries matching in the full observable
    fingerprint with every actor moved by its own exact period, and no
    interaction between actors of different periods changing before the
    last step — and fast-forwards the remaining iterations by exact
    translation (see
    :meth:`~repro.staging.base.StagingLibrary.steady_plan`).  The
    result is bit-identical to simulating every step, so the choice is
    the code's, not the caller's: it runs exact whenever the library
    declines a certificate or no boundary pair matches.
    ``RunResult.fidelity`` says what ran; whether steady engages is
    decided by :func:`~repro.workflows.fidelity.resolve_fidelity`, and
    ``RunResult.fidelity_log`` records why it did not.  A traced run
    always simulates every step, so it is the exact reference.
    ``fidelity`` is accepted and ignored, for callers that still pass
    it.

    Results are memoized in :mod:`repro.core.runcache` under
    :attr:`RunSpec.key`; traced runs bypass the cache.
    Cache misses first consult the steady-boundary *prefix* entries
    (see :mod:`repro.core.forkpoint`): a sibling run differing only in
    ``steps`` may have published its certified orbit, in which case the
    divergent suffix is replayed arithmetically instead of simulated.
    An engaged steady run ends the same way: it captures its certified
    orbit into a snapshot, returns that snapshot's ``resume(spec)``
    and publishes the snapshot as the prefix entry — or, for an
    uncacheable ad-hoc spec, logs the one ``prefix:`` entry instead.
    A faulted run has no prefix entry, so on a miss it simulates from
    t=0.
    """
    args = locals()  # exactly the arguments: nothing is assigned above
    trace = args.pop("trace")
    return run_spec(RunSpec.of(**args), trace)


_DEFAULTS = {
    name: p.default
    for name, p in inspect.signature(run_coupled).parameters.items()
    if name != "trace"
}


def lookup(spec: RunSpec) -> Optional[RunResult]:
    """The run cache's answer for a cacheable ``spec``, or None.

    Its stored result; else, when a sibling differing only in ``steps``
    published a prefix snapshot that serves this steps count, the
    snapshot's resume, stored under the key.  :func:`run_spec` and the
    serve daemon resolve a point through this one sequence.
    """
    cached = runcache.CACHE.get(spec.key)
    if cached is not None:
        return cached
    pkey = spec.prefix_key
    snap = runcache.CACHE.get_prefix(pkey) if pkey is not None else None
    if snap is None:
        return None
    reason = snap.decline_reason(spec.steps)
    if reason is not None:
        forkpoint.STATS.decline(reason)
        return None
    restored = snap.resume(spec)
    restored.forked = f"prefix:{pkey[:16]}"
    forkpoint.STATS.forks_served += 1
    runcache.CACHE.put(spec.key, restored)
    return restored


def run_spec(spec: RunSpec, trace: Optional[ActivityTrace] = None) -> RunResult:
    """Run one resolved configuration: :func:`run_coupled` past its
    argument handling.  Pool workers run the spec they are sent here."""
    key = spec.key if trace is None else None

    if _PLAN_RECORDER is not None:
        # Planning pass: record the resolved point (when cacheable) and
        # hand back a placeholder — nothing simulates.  Traced and
        # uncacheable calls are left for the serial replay.
        return _PLAN_RECORDER.intercept(key, spec)

    if key is not None:
        cached = lookup(spec)
        if cached is not None:
            return cached

    machine_spec, fault_plan = spec.machine_spec, spec.fault_plan

    def _attempt(declined: Optional[str] = None):
        """One simulation: its result, and its snapshot if steady engaged.

        ``declined`` forces the run exact, with that ``steady:`` entry.
        """
        result = spec.new_result()
        env = Environment()
        cluster = Cluster(env, machine_spec)
        # only the fault plan's injector can degrade a pipe mid-run, and
        # only in the parts it names; every other pipe (all of them on a
        # clean run) runs its eventless arithmetic chain
        cluster.freeze_rates(
            () if fault_plan is None else fault_plan.degraded_parts
        )
        library = snap = None
        try:
            library = _build_library(cluster, spec)
            snap = _execute(env, cluster, library, result, spec, trace,
                            declined)
        except HpcError as exc:
            result.failure = f"{type(exc).__name__}: {exc}"
            if not result.fidelity_log:
                result.fidelity_log = (
                    "steady: run failed before any orbit was replayed",
                )
            if fault_plan is not None:
                # Chaos runs keep their partial accounting: how far the
                # clock got and what the libraries managed to recover.
                result.end_to_end = env.now
                if library is not None:
                    result.versions_lost = library.versions_lost
                    result.recovery_events = library.recovery_events
                    result.recovery_seconds = library.recovery_seconds
        if snap is not None:
            # The stopped run only certified the orbit: it ends the way
            # a prefix hit does, by resuming its own snapshot.
            result = snap.resume(spec)
        return result, snap

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
        result, snap = _attempt()
    except _SteadyDiverged as exc:
        # Safety net: the confirmed orbit failed replay-time
        # verification.  Rerun the whole configuration (fresh
        # environment, cluster and library) without the fast-forward
        # — a false engagement costs time, never correctness.
        result, snap = _attempt(declined=f"steady: {exc}")
    finally:
        if was_enabled:
            gc.enable()

    if key is None:
        if snap is not None:
            result.fidelity_log += (
                "prefix: uncacheable configuration (ad-hoc spec)",
            )
        return result
    if snap is not None:
        # Steady engages only on clean, staged points: exactly the ones
        # with a prefix key.
        runcache.CACHE.put_prefix(spec.prefix_key, snap)
        forkpoint.STATS.snapshots_taken += 1
    runcache.CACHE.put(key, result)
    return result


def _build_library(cluster, spec: RunSpec) -> Optional[StagingLibrary]:
    method = spec.method
    if method is None:
        return None
    kwargs = {}
    if method.lower().startswith(("dataspaces", "dimes")):
        kwargs["app_axis"] = spec.app_axis
    return make_library(
        method, cluster, nsim=spec.nsim, nana=spec.nana,
        variable=spec.variable, steps=spec.steps,
        transport=spec.transport, num_servers=spec.num_servers,
        shared_nodes=spec.shared_nodes, config=spec.config,
        topology_overrides=dict(spec.topology_overrides), **kwargs,
    )


def _execute(env, cluster, library, result, spec: RunSpec,
             trace: Optional[ActivityTrace], declined: Optional[str]):
    """Simulate one run into ``result``.

    Returns the run's prefix snapshot when steady engaged (``result``
    then holds the stopped run, the snapshot's template), else None.
    ``declined`` skips the fidelity decision: the run is exact and
    logs that one entry.
    """
    machine, workflow = cluster.spec, spec.workflow_spec
    nsim, nana, steps = spec.nsim, spec.nana, spec.steps
    var, axis = spec.variable, spec.app_axis
    fault_plan, recovery = spec.fault_plan, spec.recovery

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

        topo = Topology(nsim=nsim, nana=nana, **dict(spec.topology_overrides))
        sim_actors, ana_actors = topo.sim_actors, topo.ana_actors
        placement = Placement(cluster, shared_nodes=spec.shared_nodes)
        placement.place("simulation", sim_actors, ranks_per_node=1)
        placement.place("analytics", ana_actors, ranks_per_node=1)

    write_regions = application_decomposition(var, sim_actors, axis)
    read_regions = application_decomposition(var, ana_actors, axis)
    bytes_per_sim_proc = var.nbytes / nsim
    bytes_per_ana_proc = var.nbytes / nana

    decision = (
        resolve_fidelity(spec, library, traced=trace is not None)
        if declined is None else FidelityDecision(log=(declined,))
    )
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

    # Steady-state fast-forward: temporal memoization of the staged step
    # loop (a compute-only baseline never gets a certificate).
    steady = None
    if decision.steady is not None:
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
    sim_compute = machine.compute_time(spec.sim_step_seconds)
    ana_compute = machine.compute_time(spec.ana_step_seconds)

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
        tracker.allocate(workflow.sim_calc_bytes(bytes_per_sim_proc),
                         "calculation")
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
            if steady is not None and steady.stop(step):
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
        tracker.allocate(workflow.ana_calc_bytes(bytes_per_ana_proc),
                         "calculation")
        t0 = env.now
        yield boot_done
        mark(name, "init", t0)
        if library is not None:
            tracker.allocate(cal.CLIENT_LIB_BASE, "staging-lib")
        for step in range(steps):
            if steady is not None and steady.stop(step):
                return  # remaining steps are replayed by translation
            if (library is not None and library.dead_ranks
                    and ("ana", j) in library.dead_ranks):
                mark(name, "fault", env.now)
                break
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
                steady.record(name, step, (get_end, env._now_tick))
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

    result.end_to_end = env.now
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
    if steady is None:
        return None
    if not steady.engaged:
        result.fidelity_log += (steady.decline,)
        return None
    # On divergence _SteadyDiverged propagates to run_spec, which
    # reruns the configuration without the fast-forward.
    return forkpoint.capture(steady, result)
