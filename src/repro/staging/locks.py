"""The DataSpaces lock service.

DataSpaces coordinates readers and writers of the shared virtual space
with named reader/writer locks; Table I's runtime configuration pins
``lock_type=2``.  The three lock types of DataSpaces 1.x:

* ``lock_type=1`` — **generic** reader/writer lock: writers exclusive,
  readers shared, strict acquire/release around every access group;
* ``lock_type=2`` — **custom** (version-window) locking: writers may
  run ahead of readers by ``max_versions`` staged versions; the default
  the paper uses, implemented by
  :class:`~repro.staging.store.VersionGate`;
* ``lock_type=3`` — **cooperative** locking without reader blocking
  (readers see the newest consistent version; writers never wait).

:class:`LockService` implements type 1 (a real FIFO reader/writer lock
usable by clients) and dispatches type 2 to the version gate; type 3 is
the no-wait mode.  A DataSpaces run models type 2 only:
:class:`~repro.staging.base.StagingConfig` refuses the others.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, Optional, Tuple

from ..sim import Environment, Event
from . import calibration as cal
from .store import VersionGate


class LockError(Exception):
    """Raised on invalid lock usage (e.g. releasing an unheld lock)."""


class RwLock:
    """A FIFO reader/writer lock (the lock_type=1 primitive)."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._readers = 0
        self._writer = False
        #: queue of (event, is_writer) waiting in arrival order
        self._waiting: Deque[Tuple[Event, bool]] = deque()
        #: tick of the last release (a steady-log interaction's ready time)
        self._free_tick = 0

    @property
    def readers(self) -> int:
        return self._readers

    @property
    def write_locked(self) -> bool:
        return self._writer

    def _grantable(self, is_writer: bool) -> bool:
        if is_writer:
            return not self._writer and self._readers == 0
        return not self._writer

    def acquire(self, is_writer: bool) -> Generator:
        """Process: acquire in FIFO order (no reader/writer starvation)."""
        env = self.env
        arrival = env._now_tick
        if not self._waiting and self._grantable(is_writer):
            # Claim the lock *before* yielding: two same-instant
            # acquirers must not both pass the grantable check.
            if is_writer:
                self._writer = True
            else:
                self._readers += 1
            ready = self._free_tick
            yield env.pause(0)
        else:
            event = Event(env)
            self._waiting.append((event, is_writer))
            yield event
            # _drain applied the lock state before succeeding the event.
            ready = env._now_tick
        log = env._steady_log
        if log is not None:
            log += (self, arrival, ready)

    def release(self, is_writer: bool) -> None:
        if is_writer:
            if not self._writer:
                raise LockError("releasing a write lock that is not held")
            self._writer = False
        else:
            if self._readers <= 0:
                raise LockError("releasing a read lock that is not held")
            self._readers -= 1
        self._free_tick = self.env._now_tick
        self._drain()

    def _drain(self) -> None:
        # Grant the head of the queue; batch consecutive readers.
        while self._waiting:
            event, is_writer = self._waiting[0]
            if not self._grantable(is_writer):
                return
            self._waiting.popleft()
            if is_writer:
                self._writer = True
                event.succeed()
                return  # a writer is exclusive; stop granting
            self._readers += 1
            event.succeed()


class LockService:
    """Named locks over the staging space, parameterized by lock_type."""

    def __init__(
        self,
        env: Environment,
        lock_type: int = 2,
        gate: Optional[VersionGate] = None,
    ) -> None:
        if lock_type not in (1, 2, 3):
            raise ValueError(f"lock_type must be 1, 2 or 3, got {lock_type}")
        if lock_type == 2 and gate is None:
            raise ValueError("lock_type=2 requires a VersionGate")
        self.env = env
        self.lock_type = lock_type
        self.gate = gate
        self._locks: Dict[str, RwLock] = {}
        self.acquires = 0

    def _lock(self, name: str) -> RwLock:
        lock = self._locks.get(name)
        if lock is None:
            lock = RwLock(self.env)
            self._locks[name] = lock
        return lock

    def steady_state(self) -> tuple:
        """Per-lock occupancy — part of the steady boundary fingerprint.

        The gate's window state is fingerprinted separately; here only
        the type-1 reader/writer locks carry state of their own.
        """
        return tuple(sorted(
            (name, lk.readers, lk.write_locked, len(lk._waiting))
            for name, lk in self._locks.items()
        ))

    def lock_on_write(self, name: str, version: int) -> Generator:
        """Process: what ds_lock_on_write does under each lock_type."""
        self.acquires += 1
        env = self.env
        yield env.timeout_at_tick(  # the lock RPC itself
            env._now_tick + cal.RPC_LATENCY_TICKS
        )
        if self.lock_type == 1:
            yield from self._lock(name).acquire(is_writer=True)
        elif self.lock_type == 2:
            yield from self.gate.writer_acquire(version)
        # lock_type == 3: cooperative, writers never wait.

    def unlock_on_write(self, name: str, version: int) -> None:
        if self.lock_type == 1:
            self._lock(name).release(is_writer=True)
        elif self.lock_type == 2:
            self.gate.publish(version)
        # lock_type == 3: publish is implicit and non-blocking.

    def lock_on_read(self, name: str, version: int) -> Generator:
        """Process: what ds_lock_on_read does under each lock_type."""
        self.acquires += 1
        env = self.env
        yield env.timeout_at_tick(env._now_tick + cal.RPC_LATENCY_TICKS)
        if self.lock_type == 1:
            yield from self._lock(name).acquire(is_writer=False)
        elif self.lock_type == 2:
            yield from self.gate.reader_wait(version)
        # lock_type == 3: read the newest consistent version, no wait.

    def unlock_on_read(self, name: str, version: int) -> None:
        if self.lock_type == 1:
            self._lock(name).release(is_writer=False)
        elif self.lock_type == 2:
            self.gate.reader_done(version)
