"""Shared resources for simulation processes.

Three classic resource kinds:

* :class:`Resource` — a fixed number of usage slots (e.g. a metadata
  server that handles one RPC at a time has ``capacity=1``).
* :class:`Container` — a pool of continuous/discrete tokens (e.g. bytes
  of RDMA-registrable memory on a node).
* :class:`Store` — a FIFO of Python objects (e.g. a message queue).

All waiting is FIFO and deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from .events import PENDING, Event


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource", "tick")

    def __init__(self, resource: "Resource") -> None:
        # Inlined Event.__init__ plus the immediate-grant path of
        # Resource._do_request: every pipe transfer starts with a
        # request, and on an uncontended pipe (the common case) the
        # grant fires at the current tick — written out flat, the whole
        # request/grant is two appends.
        env = resource.env
        self.env = env
        self.callbacks = []
        self.resource = resource
        self._defused = False
        users = resource._users
        if len(users) < resource._capacity:
            users.append(self)
            self._ok = True
            self._value = None
            log = env._steady_log
            if log is not None:
                log += (resource, env._now_tick, resource._free_tick)
            cur = env._current
            if cur is not None:
                cur.append(self)
            else:
                env.schedule(self)
        else:
            self._ok = None
            self._value = PENDING
            self.tick = env._now_tick
            resource._waiting.append(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        self.resource.release(self)
        return False


class Resource:
    """A resource with ``capacity`` usage slots and a FIFO wait queue.

    Grant order is exactly the ``request()`` call order: a call with a
    free slot grants inline at the current tick, a call against a full
    server parks in ``_waiting`` (a FIFO deque), and :meth:`release`
    grants the queue head at the release tick.  Two requests at the
    *same* tick are still ordered — the calendar queue fires same-tick
    events in insertion order, so processes resume (and call
    ``request()``) in the order their wake-up events were scheduled,
    which for symmetric actor cohorts is spawn order.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:  # noqa: F821
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self._users: List[Request] = []
        self._waiting: Deque[Request] = deque()
        #: tick of the last release: when a slot last came free
        self._free_tick = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def steady_state(self) -> tuple:
        """(slots in use, waiters) — the resource's boundary fingerprint."""
        return (len(self._users), len(self._waiting))

    def request(self) -> Request:
        """Claim a slot; the returned event triggers once granted."""
        return Request(self)

    def release(self, req: Request) -> None:
        """Return a slot previously granted to ``req``."""
        try:
            self._users.remove(req)
        except ValueError:
            # Releasing an ungranted request cancels it from the queue.
            try:
                self._waiting.remove(req)
            except ValueError:
                pass
            return
        env = self.env
        self._free_tick = env._now_tick
        log = env._steady_log
        while self._waiting and len(self._users) < self._capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            if log is not None:
                log += (self, nxt.tick, env._now_tick)
            nxt.succeed()


class ContainerError(Exception):
    """Raised for invalid container operations (e.g. overfill)."""


class Container:
    """A pool of tokens with blocking ``get`` and non-blocking ``put``.

    ``get(amount)`` returns an event that triggers once the pool holds
    at least ``amount``; gets are served strictly FIFO to avoid
    starvation of large requests.
    """

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity < 0 or init < 0 or init > capacity:
            raise ValueError(f"invalid capacity={capacity} init={init}")
        self.env = env
        self._capacity = capacity
        self._level = init
        self._getters: Deque[tuple] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        """Tokens currently available."""
        return self._level

    def try_get(self, amount: float) -> bool:
        """Take ``amount`` immediately; return False if unavailable."""
        if amount < 0:
            raise ContainerError(f"negative amount {amount}")
        if self._getters or self._level < amount:
            return False
        self._level -= amount
        return True

    def get(self, amount: float) -> Event:
        """An event that triggers once ``amount`` tokens were taken."""
        if amount < 0:
            raise ContainerError(f"negative amount {amount}")
        if amount > self._capacity:
            raise ContainerError(
                f"requested {amount} exceeds container capacity {self._capacity}"
            )
        event = Event(self.env)
        self._getters.append((event, amount))
        self._drain()
        return event

    def put(self, amount: float) -> None:
        """Return ``amount`` tokens to the pool."""
        if amount < 0:
            raise ContainerError(f"negative amount {amount}")
        if self._level + amount > self._capacity + 1e-9:
            raise ContainerError(
                f"put of {amount} would exceed capacity "
                f"({self._level}/{self._capacity})"
            )
        self._level = min(self._capacity, self._level + amount)
        self._drain()

    def _drain(self) -> None:
        while self._getters:
            event, amount = self._getters[0]
            if event.triggered:
                # Cancelled externally (e.g. failed by a timeout race).
                self._getters.popleft()
                continue
            if self._level < amount:
                return
            self._getters.popleft()
            self._level -= amount
            event.succeed(amount)


class Store:
    """An unbounded-or-bounded FIFO store of arbitrary items."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:  # noqa: F821
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[tuple] = deque()
        self._putters: Deque[tuple] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def items(self) -> List[Any]:
        """A snapshot of the queued items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> Event:
        """An event that triggers once ``item`` is accepted."""
        event = Event(self.env)
        self._putters.append((event, item))
        self._dispatch()
        return event

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """An event that triggers with the next (matching) item."""
        event = Event(self.env)
        self._getters.append((event, predicate))
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Move accepted puts into the buffer.
            while self._putters and len(self._items) < self._capacity:
                event, item = self._putters.popleft()
                if event.triggered:
                    continue
                self._items.append(item)
                event.succeed()
                progress = True
            # Serve getters from the buffer.
            served = []
            for idx, (event, predicate) in enumerate(self._getters):
                if event.triggered:
                    served.append(idx)
                    continue
                match = None
                for pos, item in enumerate(self._items):
                    if predicate is None or predicate(item):
                        match = pos
                        break
                if match is not None:
                    item = self._items[match]
                    del self._items[match]
                    event.succeed(item)
                    served.append(idx)
                    progress = True
            for idx in reversed(served):
                del self._getters[idx]
