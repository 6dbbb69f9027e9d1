"""Event primitives for the discrete-event simulation kernel.

The design follows the classic process-interaction style (as popularized
by SimPy): simulation processes are Python generators that ``yield``
:class:`Event` objects and are resumed by the environment when those
events trigger.  An event can either *succeed* (carrying a value) or
*fail* (carrying an exception that is thrown into every waiting
process).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ._grid import Infinity, _TICK_SCALE

PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *pending*; it is *triggered* once :meth:`succeed` or
    :meth:`fail` is called, at which point it is scheduled and its
    callbacks run at the current simulation time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    #: class flag (not a slot: set per *class*, read per instance) —
    #: True only for :class:`_PooledEvent`, whose instances return to
    #: the environment's free list once their callbacks have run.
    _pool = False

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been succeeded or failed."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined same-tick fast path of Environment.schedule(delay=0):
        # a succeed() always fires at the current tick, and appending to
        # the bucket being drained preserves FIFO order.  succeed() is
        # called once per grant/handshake — hot enough that the method
        # call shows up in profiles.
        env = self.env
        cur = env._current
        if cur is not None:
            cur.append(self)
        else:
            env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Every process waiting on the event will have ``exception``
        thrown into it.  If nobody waits, the failure is re-raised by
        the environment unless :meth:`defuse` was called.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled even if nobody waits on it."""
        self._defused = True

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class _PooledEvent(Event):
    """A recyclable pre-succeeded event (the environment's free list).

    Allocated only by internal hot paths whose events are yielded and
    dropped — :meth:`~repro.sim.engine.Environment.timeout_at_tick`,
    :meth:`~repro.sim.engine.Environment.pause` and process kick-offs —
    never by anything that stores an event or reads it after it fired.
    ``Environment.step`` appends these back to the free list after
    running their callbacks; the next allocation re-initializes
    ``callbacks`` and ``_value`` (``_ok``/``_defused`` never change on
    a pre-succeeded event, so they keep their birth values).
    """

    __slots__ = ()

    _pool = True


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self._ok = True  # born triggered
        self._value = value
        self._delay = delay
        if delay == Infinity:
            env._never.append(self)
        else:
            env._insert(env._now_tick + round(delay * _TICK_SCALE), self)

    @property
    def triggered(self) -> bool:
        return True


class Condition(Event):
    """Base for composite events over several sub-events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: List[Event]) -> None:  # noqa: F821
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {
            event: event.value
            for event in self._events
            if event.triggered and event.processed
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                event.defuse()
            return
        self._count += 1
        if not event.ok:
            event.defuse()
            self.fail(event.value)
        elif self._satisfied():
            self.succeed(self._collect())


class AllOf(Condition):
    """Triggers once all sub-events have triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self._events)


class AnyOf(Condition):
    """Triggers as soon as any sub-event has triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None
