"""Vectorized batch actors: whole-run compilation of clustered chains.

The clustered fidelity mode already proves that a run's actors split
into identical, resource-disjoint representative chains (see
:meth:`~repro.staging.base.StagingLibrary.clustering_plan`).  Under the
single-version gate window those chains are *fully sequenced*: every
tick of every step is a closed-form function of the previous phase
ends, so the per-rank generator machinery — one process per rank, one
event per hop — simulates nothing that integer arithmetic cannot
compute up front.

A library that can prove this issues a :class:`BatchPlan` certificate
from :meth:`~repro.staging.base.StagingLibrary.batch_plan`, and its
``batch_step`` compiler turns the whole run into a sorted list of
``(tick, side-effect)`` actions: per-class tick tables are carried as
``numpy`` int64 arrays, the gate becomes two arrays (publish tick and
reader-done tick per step), frozen pipes are claimed arithmetically and
each group phase lands in a single pooled event via
:meth:`~repro.sim.engine.Environment.schedule_batch`.  The side effects
call the *same* library methods (staging allocations, eviction sweeps,
stats records) at the *same* ticks in the *same* same-tick order as the
per-rank run, which is what makes the result byte-identical.

Compilation is two-phase so a decline is always safe: phase one runs
every tick recurrence against *shadow* pipe chains and raises
:class:`BatchDecline` without having mutated anything — the driver then
falls back to the exact per-rank chains in place; only a fully
validated schedule applies its pipe claims and counters.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..sim.engine import _TICK_SCALE


class BatchDecline(Exception):
    """A batch certificate failed its runtime (post-bootstrap) checks.

    Raised by a library's ``batch_plan`` certificate (before the run)
    or its ``batch_step`` compiler (at runtime, after which the driver
    spawns the exact per-rank chains instead).  Phase-one compilation
    mutates nothing, so declining is always safe.  Messages start with
    ``"batch: "`` and land verbatim in ``RunResult.fidelity_log``.
    """


@dataclass(frozen=True)
class BatchPlan:
    """Static certificate that a clustered run is batch-compilable.

    Issued by :meth:`~repro.staging.base.StagingLibrary.batch_plan`
    after structural checks that need no bootstrap state; the runtime
    checks that do (partition identity, redistribution shares, strict
    claim ordering) run inside ``batch_step`` and degrade to a
    :class:`BatchDecline`, never to a wrong answer.
    """

    library: str
    note: str = ""


@dataclass
class BatchContext:
    """Everything the driver knows that a ``batch_step`` compiler needs."""

    sim_count: int
    ana_count: int
    steps: int
    #: tick at which bootstrap completed (compilation time = now)
    boot_tick: int
    #: per-step compute pauses, quantized exactly as ``env.pause`` would
    sim_compute_ticks: int
    ana_compute_ticks: int
    write_regions: list
    read_regions: list
    sim_trackers: list
    ana_trackers: list
    #: per sim rep: the resident buffer allocation, or None (transient)
    persistent_buffers: list
    #: exact argument the driver's per-step ``allocate`` calls would pass
    sim_buffer_bytes: float
    ana_buffer_bytes: float


@dataclass
class BatchSchedule:
    """A compiled run: sorted actions plus the component finish ticks."""

    actions: List[Tuple[int, Callable[[], None]]]
    sim_finish_tick: int
    ana_finish_tick: int


class ActionBuilder:
    """Collects ``(tick, fn)`` actions and emits them schedule-ready.

    Emission order is the tie-breaker for same-tick actions, so
    compilers emit each step's phases in the per-rank run's same-tick
    cascade order (chain effects before buffer frees, frees before the
    next step's allocations); across *different* phases same-tick
    collisions only ever touch disjoint state (the strict inter-phase
    tick ordering below is part of every certificate).
    """

    def __init__(self) -> None:
        self._actions: List[Tuple[int, int, Callable[[], None]]] = []

    def add(self, tick: int, fn: Callable[[], None]) -> None:
        self._actions.append((tick, len(self._actions), fn))

    def build(self) -> List[Tuple[int, Callable[[], None]]]:
        self._actions.sort(key=lambda action: (action[0], action[1]))
        return [(tick, fn) for tick, _seq, fn in self._actions]


class ShadowChains:
    """Phase-one stand-in for the frozen pipes' arithmetic FIFO chains.

    Mirrors :meth:`~repro.hpc.network.BandwidthPipe.claim_frozen` tick
    for tick without touching the pipes, records every claim in call
    order, and enforces the FIFO-equivalence precondition: arrivals at
    any one pipe must be *strictly* increasing, because only then is the
    compiler's claim order provably the per-rank run's chronological
    claim order.  One relaxation: a caller may pass a ``cohort`` token
    to certify that same-tick arrivals within that cohort are issued in
    the per-rank run's spawn order (symmetric histories plus the
    calendar queue's same-tick FIFO, see
    :class:`~repro.sim.resources.Resource`), in which case exact ties
    *within* the cohort are accepted; a tie against a different cohort
    (or an uncertified claim) still declines.  ``apply`` replays the
    validated claims onto the real pipes (stats additions in the same
    per-pipe order as the per-rank run) once nothing can fail any more.
    """

    def __init__(self) -> None:
        self._ends = {}
        self._last_arrival = {}
        self._last_cohort = {}
        #: (pipe, nbytes, arrival, predicted end) in claim order
        self._claims: list = []

    def claim(self, pipe, nbytes: float, arrival: int, cohort=None) -> int:
        key = id(pipe)
        last = self._last_arrival.get(key)
        if last is not None and arrival <= last:
            certified = (
                arrival == last
                and cohort is not None
                and cohort == self._last_cohort.get(key)
            )
            if not certified:
                raise BatchDecline(
                    f"batch: pipe {pipe.name!r}: arrival tick {arrival} "
                    f"does not strictly follow {last}; claim order would "
                    "be ambiguous"
                )
        self._last_arrival[key] = arrival
        self._last_cohort[key] = cohort
        start = self._ends.get(key)
        if start is None:
            start = pipe._chain_end_tick
        if start < arrival:
            start = arrival
        duration = nbytes / pipe.rate
        end = start + round(duration * _TICK_SCALE)
        self._ends[key] = end
        self._claims.append((pipe, nbytes, arrival, end))
        return end

    def apply(self) -> None:
        for pipe, nbytes, arrival, end in self._claims:
            got = pipe.claim_frozen(nbytes, arrival)
            if got != end:
                raise RuntimeError(
                    f"batch replay drifted on pipe {pipe.name!r}: "
                    f"claimed {got}, compiled {end}"
                )


class SerialCpu:
    """Shadow of a capacity-1 Resource serving strictly ordered arrivals.

    Under the strict sequencing the certificates enforce, a grant is
    ``max(arrival, previous release)`` — the full request/queue protocol
    collapses to one integer per CPU.
    """

    __slots__ = ("free_tick", "_last_arrival")

    def __init__(self) -> None:
        self.free_tick = 0
        self._last_arrival: Optional[int] = None

    def run(self, arrival: int, busy_ticks: int, name: str = "cpu") -> int:
        if self._last_arrival is not None and arrival <= self._last_arrival:
            raise BatchDecline(
                f"batch: {name}: arrival tick {arrival} does not strictly "
                f"follow {self._last_arrival}; grant order would be "
                "ambiguous"
            )
        self._last_arrival = arrival
        grant = self.free_tick if self.free_tick > arrival else arrival
        end = grant + busy_ticks
        self.free_tick = end
        return end


class FifoQueue:
    """Shadow of a capacity-*k* FIFO :class:`~repro.sim.resources.Resource`.

    The real resource grants inline while fewer than ``capacity`` users
    hold slots and otherwise parks requesters in FIFO order, granting
    the queue head at each release tick (see
    :class:`~repro.sim.resources.Resource` — grant order is the
    request-call order, with same-tick calls served in call order by the
    calendar queue's FIFO tie-break).  When every request's arrival tick
    is known at compile time and arrivals are processed in certified
    chronological order, that protocol collapses to an exact online
    model: a min-heap of outstanding finish ticks where

    - finishes ``<= arrival`` have already released their slots,
    - a free slot grants at ``arrival``,
    - a full server grants at the earliest outstanding finish (the FIFO
      head's release tick — release order equals grant order because
      every earlier requester was granted no later than this one).

    Arrivals must be non-decreasing; an exact tie is accepted only when
    both requests carry the same ``cohort`` certificate (same-tick
    requests issued in spawn order), mirroring
    :meth:`ShadowChains.claim`.
    """

    __slots__ = ("capacity", "name", "_busy", "_last_arrival", "_last_cohort")

    def __init__(self, capacity: int, name: str = "queue") -> None:
        if capacity < 1:
            raise ValueError(f"{name}: capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._busy: List[int] = []
        self._last_arrival: Optional[int] = None
        self._last_cohort = None

    def run(self, arrival: int, busy_ticks: int, cohort=None) -> int:
        return self.serve(arrival, busy_ticks, cohort)[1]

    def serve(self, arrival: int, busy_ticks: int, cohort=None) -> tuple:
        """Serve one request; returns ``(grant_tick, finish_tick)``.

        Exposing the grant lets callers distinguish an inline grant
        (``grant == arrival`` — the real resource resumes the requester
        in the same event cascade) from a queued grant (the resume is
        scheduled at the release tick), which matters for same-tick
        ordering certificates in stream-merge compilers.
        """
        last = self._last_arrival
        if last is not None and arrival <= last:
            certified = (
                arrival == last
                and cohort is not None
                and cohort == self._last_cohort
            )
            if not certified:
                raise BatchDecline(
                    f"batch: {self.name}: arrival tick {arrival} does not "
                    f"strictly follow {last}; grant order would be ambiguous"
                )
        self._last_arrival = arrival
        self._last_cohort = cohort
        busy = self._busy
        while busy and busy[0] <= arrival:
            heapq.heappop(busy)
        if len(busy) >= self.capacity:
            grant = heapq.heappop(busy)
        else:
            grant = arrival
        end = grant + busy_ticks
        heapq.heappush(busy, end)
        return grant, end


def fifo_scan(arrivals, busy_ticks: int, capacity: int, name: str = "queue"):
    """Vectorized capacity-*k* FIFO queue under *uniform* service time.

    The max-plus recurrence ``grant[i] = max(arrival[i], finish[i-k])``,
    ``finish[i] = grant[i] + busy_ticks`` is exact when arrivals are
    sorted and service is uniform, because then finishes are
    non-decreasing in arrival order and the *(i-k)*-th finish is
    precisely the release that hands request *i* its slot (the
    :class:`FifoQueue` heap never holds anything older).  The k-cursor
    rolling max splits by residue class mod *k*: within class *c* the
    recurrence telescopes to a running maximum,

    ``finish[c::k][j] = max_{m<=j}(arrival[c::k][m] - m*s) + (j+1)*s``

    — one ``np.maximum.accumulate`` per class over int64 tick tables.
    Returns the finish-tick array; raises :class:`BatchDecline` if the
    arrivals are not sorted (caller certifies ties separately, via the
    cohort rules on the arrival-producing chains).
    """
    a = np.ascontiguousarray(arrivals, dtype=np.int64)
    n = a.shape[0]
    if n == 0:
        return a.copy()
    if np.any(a[1:] < a[:-1]):
        raise BatchDecline(
            f"batch: {name}: arrival ticks are not sorted; grant order would "
            "not be the FIFO request order"
        )
    k = int(capacity)
    s = int(busy_ticks)
    finish = np.empty(n, dtype=np.int64)
    for c in range(min(k, n)):
        sub = a[c::k]
        j = np.arange(sub.shape[0], dtype=np.int64)
        finish[c::k] = np.maximum.accumulate(sub - j * s) + (j + 1) * s
    return finish


def rpc_round_trip(
    shadow: ShadowChains,
    shared_pipe,
    nbytes: float,
    arrivals,
    delta_ticks,
    cohort,
    name: str = "rpc",
    cohort_ids=None,
    order_keys=None,
):
    """Claim a shared pipe's forward and reverse RPC crossings in the
    per-rank run's chronological call order.

    Each client's forward transfer claims ``shared_pipe`` (as the
    destination NIC) at its arrival tick; completion of that claim
    schedules the *reverse* transfer's source crossing of the same pipe
    ``delta_ticks`` later (the reverse move's op latency plus wire
    latency — an int, or a per-client int64 array when clients sit at
    different hop distances).  Early clients' reverse crossings
    interleave between later clients' forward crossings whenever
    queueing stagger exceeds the pipe busy time, so claim order must be
    resolved by an online merge — a heap keyed ``(tick, push order)``,
    which matches the engine's calendar-queue pop order as long as no
    forward crossing ties a reverse crossing on the exact tick
    (declined: the engine would order those by process spawn history
    the certificate does not cover).

    Forward arrivals are seeded in stable chronological order; a
    same-tick forward tie is certified through the claim cohort, which
    carries the caller's per-client history class (``cohort_ids``) —
    only full-history twins, whose engine events sit in spawn order in
    every bucket, may tie.  Twins sit in spawn order only until a gate
    wake reorders them; ``order_keys`` carries the caller's engine
    order within each class (park position after a wake), defaulting to
    client index.  Returns ``(fwd_ends, rev_ends)`` int64 arrays
    indexed like ``arrivals``.
    """
    n = len(arrivals)
    fwd = np.empty(n, dtype=np.int64)
    rev = np.empty(n, dtype=np.int64)
    scalar_delta = np.ndim(delta_ticks) == 0
    if order_keys is None:
        order = np.argsort(arrivals, kind="stable")
    else:
        order = np.lexsort((order_keys, arrivals))
    heap = [
        (int(arrivals[idx]), pos, 0, int(idx))
        for pos, idx in enumerate(order)
    ]
    heapq.heapify(heap)
    seq = n
    prev_tick = None
    prev_kind = None
    while heap:
        tick, _order, kind, i = heapq.heappop(heap)
        if tick == prev_tick and kind != prev_kind:
            raise BatchDecline(
                f"batch: {name}: forward and reverse crossings collide at "
                f"tick {tick}; claim order would depend on process history"
            )
        prev_tick = tick
        prev_kind = kind
        cid = 0 if cohort_ids is None else cohort_ids[i]
        if kind == 0:
            end = shadow.claim(
                shared_pipe, nbytes, tick, cohort=(cohort, "fwd", cid)
            )
            fwd[i] = end
            delta = delta_ticks if scalar_delta else int(delta_ticks[i])
            heapq.heappush(heap, (end + delta, seq, 1, i))
            seq += 1
        else:
            rev[i] = shadow.claim(
                shared_pipe, nbytes, tick, cohort=(cohort, "rev", cid)
            )
    return fwd, rev


def link_path(cluster, src_node, dst_node, overhead_factor: float):
    """The pipes and latency ticks one transfer crosses, compile-time.

    Mirrors :meth:`~repro.hpc.network.Link.send`: intra-node transfers
    cross one pipe with no latency pause; inter-node transfers pay the
    latency pause then claim the source and destination NIC pipes in
    order.  Looking the link up is side-effect free (links are cached,
    nodes already booted by tracker construction).
    """
    link = cluster.link(src_node, dst_node, overhead_factor=overhead_factor)
    if link.src is link.dst:
        return (link.src,), 0
    return (link.src, link.dst), round(link.latency * _TICK_SCALE)
