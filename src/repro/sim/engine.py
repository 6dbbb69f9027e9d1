"""The discrete-event simulation environment.

:class:`Environment` owns the simulated clock and the event queue.
Processes (see :class:`~repro.sim.process.Process`) advance the clock by
yielding events; the environment pops events in time order and runs
their callbacks.

Time representation
-------------------

Internally, time is a **64-bit integer tick count** on the 2**-TICK_BITS
second scheduling grid; floats exist only at the API boundary (``now``,
``timeout(delay)``, ``run(until=...)``).  Every delay was already being
snapped onto the grid before this, so the integer form changes no
timestamp: ``tick * 2**-32`` is an exact IEEE-754 double for every tick
below ``2**53``, and the float the old engine computed by adding
grid-multiple doubles is bit-for-bit the float :func:`time_of` computes
from the summed ticks.  What the integer form buys is the event queue:
keys become machine ints (no float compares, no tie-breaking tuples)
and clock arithmetic becomes integer addition.

The event queue is a **lazy calendar queue**: a bucket per occupied
tick (created on demand), a min-heap over the bucket keys as the
calendar index, and a spill list for events that can never fire
(infinite delay).  Same-tick ordering is FIFO by construction — events
append to their tick's bucket in schedule-call order, which *is* the
monotone event-id order the old binary heap used as its tie-break — so
the pop sequence is identical to a heap keyed on ``(tick, eid)``
without storing either.  The design is tuned for this engine's dense
short-horizon pattern: over half of all events are scheduled *at the
current tick* (event ``succeed()`` cascades, process kick-offs,
resource grants), and those never touch the heap at all — they append
to the bucket being drained and pop as a list walk.

Sparse streams (few same-tick collisions) used to pay a list
allocation plus an ``IndexError`` per event, which made the calendar
*slower* than the heap it replaced on uniform/wide synthetic streams.
Two refinements close that gap without touching dense-stream wins: a
tick whose bucket holds a single event stores the event **bare** in
the dict (a list is built only on collision — engine events are never
``None`` or ``list`` instances, so ``type(got) is list`` discriminates
safely), and drained bucket lists are pooled for reuse instead of
being re-allocated per occupied tick.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Iterable, Optional

from ._grid import (  # noqa: F401  (re-exported: the public home is here)
    EXACT_TICK_LIMIT,
    EXACT_TIME_LIMIT,
    Infinity,
    NEVER_TICK,
    TICK_BITS,
    _TICK,
    _TICK_SCALE,
    quantize,
    tick_of,
    time_of,
)
from .events import AllOf, AnyOf, Event, Timeout, _PooledEvent
from .process import Process


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class Environment:
    """A deterministic discrete-event simulation environment.

    Time is a 64-bit tick count (``now`` projects it to seconds).
    Determinism is guaranteed structurally: events scheduled for the
    same tick fire in schedule-call order (the calendar bucket is FIFO),
    which is exactly the monotone-event-id tie-break of a binary heap,
    so repeated runs of the same model produce identical traces.
    """

    __slots__ = (
        "_now", "_now_tick", "_buckets", "_ticks",
        "_current", "_pos", "_never", "_free", "_bfree",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._now_tick = tick_of(self._now)
        #: occupied tick -> its FIFO calendar page: a bare event when
        #: the tick holds exactly one (the sparse-stream common case),
        #: a list once a second event collides on the same tick
        self._buckets: dict = {}
        #: min-heap over the occupied ticks (the calendar index)
        self._ticks: list = []
        #: the bucket being drained (always the one at ``_now_tick``)
        self._current: Optional[list] = None
        self._pos = 0
        #: spill list: events with an infinite delay, which never fire
        self._never: list = []
        #: free list of recyclable :class:`_PooledEvent` objects —
        #: events were the top allocator in the fig2 profiles, and the
        #: internal yield-and-drop kinds (tick deadlines, process
        #: kick-offs) can be reused instead of constructed fresh.  The
        #: list self-bounds at the peak number of simultaneously
        #: pending pooled events.
        self._free: list = []
        #: free list of drained bucket lists, recycled on collision
        self._bfree: list = []

    @property
    def now(self) -> float:
        """The current simulated time in seconds."""
        return self._now

    @property
    def now_tick(self) -> int:
        """The current simulated time as an integer tick count."""
        return self._now_tick

    def _insert(self, tick: int, event: Event) -> None:
        """Append ``event`` to the calendar bucket at ``tick``."""
        if tick == self._now_tick and self._current is not None:
            # Same-tick fast path: the bucket being drained is a plain
            # list; appending keeps FIFO (= event-id) order and needs
            # neither the dict nor the heap.
            self._current.append(event)
            return
        buckets = self._buckets
        got = buckets.get(tick)
        if got is None:
            buckets[tick] = event
            heappush(self._ticks, tick)
        elif type(got) is list:
            got.append(event)
        else:
            bfree = self._bfree
            if bfree:
                bucket = bfree.pop()
                bucket.append(got)
                bucket.append(event)
            else:
                bucket = [got, event]
            buckets[tick] = bucket

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue ``event`` to be processed ``delay`` seconds from now.

        The delay is snapped onto the scheduling grid (see
        :data:`TICK_BITS`) so every timestamp in the queue is a grid
        multiple and clock arithmetic stays exact.
        """
        if delay == 0.0:
            tick = self._now_tick
            if self._current is not None:
                self._current.append(event)
                return
        elif delay > 0.0:
            if delay == Infinity:
                self._never.append(event)
                return
            tick = self._now_tick + round(delay * _TICK_SCALE)
        else:
            raise ValueError(f"negative delay {delay}")
        buckets = self._buckets
        got = buckets.get(tick)
        if got is None:
            buckets[tick] = event
            heappush(self._ticks, tick)
        elif type(got) is list:
            got.append(event)
        else:
            bfree = self._bfree
            if bfree:
                bucket = bfree.pop()
                bucket.append(got)
                bucket.append(event)
            else:
                bucket = [got, event]
            buckets[tick] = bucket

    def schedule_at_tick(self, event: Event, tick: int) -> None:
        """Queue ``event`` at the absolute tick ``tick`` (hot-path form)."""
        if tick < self._now_tick:
            raise ValueError(
                f"tick {tick} is in the past (now={self._now_tick})"
            )
        self._insert(tick, event)

    def process(self, generator: Generator) -> Process:
        """Spawn a new process executing ``generator``."""
        return Process(self, generator)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """An event that triggers at the absolute time ``when``.

        Lets a hot path collapse a run of consecutive delays into one
        event: the caller accumulates the end time, then schedules once.
        ``when == now`` is accepted (an accumulated end lands exactly on
        ``now`` after a run of zero-duration chunks); only a strictly
        past time is an error.  The offset from ``now`` is snapped onto
        the scheduling grid like every other delay.
        """
        offset = when - self._now
        if offset < 0.0:
            raise ValueError(f"timeout_at({when}) is in the past (now={self._now})")
        event = Event(self)
        event._ok = True
        event._value = value
        if offset == Infinity:
            self._never.append(event)
        else:
            self._insert(self._now_tick + round(offset * _TICK_SCALE), event)
        return event

    def timeout_at_tick(self, tick: int, value: Any = None) -> Event:
        """:meth:`timeout_at` for producers that already hold a tick.

        The integer twin of :meth:`timeout_at`: no float round-trip, no
        re-quantization — the tick *is* the deadline.  Used by the
        frozen-rate Lustre chains, whose per-OST completion times are
        tick arithmetic end to end.  Allocates from the free list:
        callers yield these events and drop them, so :meth:`step`
        recycles each one after its callbacks have run.
        """
        if tick < self._now_tick:
            raise ValueError(
                f"timeout_at_tick({tick}) is in the past (now={self._now_tick})"
            )
        free = self._free
        if free:
            event = free.pop()
            event.callbacks = []
            event._value = value
        else:
            event = _PooledEvent.__new__(_PooledEvent)
            event.env = self
            event.callbacks = []
            event._value = value
            event._ok = True
            event._defused = False
        self._insert(tick, event)
        return event

    def pause(self, delay: float, value: Any = None) -> Event:
        """A pooled :meth:`timeout`: for delays that are yielded and dropped.

        Identical semantics and tick arithmetic to
        :class:`~repro.sim.events.Timeout` — same quantization, same
        same-tick FIFO position — but the event comes from (and returns
        to) the environment's free list, so the hot fixed-latency sleeps
        (compute phases, RPC latencies, serialize costs) stop paying an
        allocation each.  Only for yield-and-drop uses: callers must not
        store the event or read it after it fires.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        free = self._free
        if free:
            event = free.pop()
            event.callbacks = []
            event._value = value
        else:
            event = _PooledEvent.__new__(_PooledEvent)
            event.env = self
            event.callbacks = []
            event._value = value
            event._ok = True
            event._defused = False
        if delay == 0.0:
            cur = self._current
            if cur is not None:
                cur.append(event)
                return event
            tick = self._now_tick
        elif delay == Infinity:
            self._never.append(event)
            return event
        else:
            tick = self._now_tick + round(delay * _TICK_SCALE)
        buckets = self._buckets
        got = buckets.get(tick)
        if got is None:
            buckets[tick] = event
            heappush(self._ticks, tick)
        elif type(got) is list:
            got.append(event)
        else:
            bfree = self._bfree
            if bfree:
                bucket = bfree.pop()
                bucket.append(got)
                bucket.append(event)
            else:
                bucket = [got, event]
            buckets[tick] = bucket
        return event

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def at(self, when: float, fn) -> Event:
        """Run ``fn()`` when the clock reaches the absolute time ``when``.

        The fault-injection hook: ``fn`` runs as an event callback, so
        an exception it raises propagates out of :meth:`step` /
        :meth:`run` like any unhandled event failure.  The time is
        quantized onto the tick grid like every other deadline.  Returns
        the underlying event (useful for cancellation via ``callbacks``).
        """
        event = self.timeout_at(max(when, self._now))
        event.callbacks.append(lambda _ev: fn())
        return event

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, list(events))

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        if self._current is not None and self._pos < len(self._current):
            return self._now
        if self._ticks:
            return self._ticks[0] * _TICK
        return Infinity

    def steady_snapshot(self) -> tuple:
        """The pending-event multiset, as ticks relative to ``now``.

        Part of the steady-state boundary fingerprint: two step
        boundaries with identical snapshots have the same in-flight
        timeouts at the same phase offsets, which (together with the
        resource-queue and library state) pins the dynamical state of
        the simulation modulo a clock translation.  Pure observation:
        no event is created or consumed, so taking a snapshot never
        perturbs same-tick ordering.
        """
        now_tick = self._now_tick
        rel: list = []
        if self._current is not None and self._pos < len(self._current):
            rel.extend([0] * (len(self._current) - self._pos))
        for tick, got in self._buckets.items():
            count = len(got) if type(got) is list else 1
            rel.extend([tick - now_tick] * count)
        rel.sort()
        if self._never:
            rel.extend([Infinity] * len(self._never))
        return tuple(rel)

    def step(self) -> None:
        """Process the next scheduled event."""
        pos = self._pos
        cur = self._current
        if cur is not None and pos < len(cur):
            # The common case — the current bucket still has events —
            # is a bare indexed load behind one bounds check (cheaper
            # than the per-event IndexError sparse streams used to pay).
            event = cur[pos]
            self._pos = pos + 1
        else:
            # Bucket drained (or no bucket yet): advance the calendar
            # to the next occupied tick, recycling the drained list.
            if cur is not None:
                del cur[:]
                self._bfree.append(cur)
                self._current = None
            ticks = self._ticks
            if not ticks:
                raise EmptySchedule()
            tick = heappop(ticks)
            got = self._buckets.pop(tick)
            self._now_tick = tick
            self._now = tick * _TICK
            if type(got) is list:
                self._current = got
                self._pos = 1
                event = got[0]
            else:
                # Singleton bucket: the event was stored bare.  Leave
                # _current None so a zero-delay push during its
                # callbacks opens a fresh bucket at this tick, which
                # pops before any later tick — same-tick FIFO holds.
                self._pos = 0
                event = got

        callbacks = event.callbacks
        if callbacks is None:
            return
        event.callbacks = None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure: surface it to the caller of run().
            raise event._value

        if event._pool:
            # Pooled events are yield-and-drop by contract: once their
            # callbacks have run nothing holds a reference, so they go
            # back on the free list for the next pause/timeout_at_tick.
            event._value = None
            self._free.append(event)

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until ``until`` (a time, an event, or queue exhaustion).

        If ``until`` is an :class:`Event`, returns that event's value
        once it triggers (re-raising its exception if it failed).
        """
        step = self.step
        if until is None:
            # Exhaust the schedule (events that never fire don't count).
            try:
                while True:
                    step()
            except EmptySchedule:
                return None

        if isinstance(until, Event):
            until_event = until
            if until_event.processed:
                if until_event.ok:
                    return until_event.value
                raise until_event.value
            # Waiting on an event: run until it is processed or the
            # schedule runs dry (events that never fire don't help).
            try:
                while until_event.callbacks is not None:
                    step()
            except EmptySchedule:
                raise RuntimeError(
                    "simulation ran out of events before the awaited "
                    "event triggered (deadlock?)"
                ) from None
            if until_event._ok:
                return until_event._value
            raise until_event._value

        until_time = float(until)
        if until_time < self._now:
            raise ValueError(f"until ({until_time}) is in the past")
        if until_time == Infinity:
            until_tick = NEVER_TICK
        else:
            # The largest tick whose time is <= until_time, so the tick
            # comparison below decides exactly like the old float one.
            until_tick = round(until_time * _TICK_SCALE)
            if until_tick * _TICK > until_time:
                until_tick -= 1
        while True:
            if self._current is not None and self._pos < len(self._current):
                step()
                continue
            if not self._ticks or self._ticks[0] > until_tick:
                break
            step()
        if until_time != Infinity:
            self._now = until_time
            self._now_tick = until_tick
        return None
