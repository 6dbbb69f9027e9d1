"""Single-flight coalescing for the shared run cache.

:mod:`repro.core.runcache` gives two of the three sharing tiers: an
in-process memory layer and a cross-process disk store whose mkstemp +
``os.replace`` write discipline makes entries safe under any number of
concurrent writers.  The third tier is time: many callers asking for
the same configuration at the same moment.  Without coordination each
would simulate it; with :class:`SingleFlight` the first request becomes
the **leader** and every concurrent duplicate a **follower** that
simply waits for the leader's outcome.

:class:`repro.exec.pool.WorkerPool` applies it per simulation point:
two different figures planning an overlapping point share one worker
task.  (The serve daemon coalesces whole submissions the same way, on
its own job registry.)

Counters (``coalesced``, ``inflight_now``, ``resolved``) feed the
pool's ``stats`` — and through it the daemon's — alongside the
runcache's hit/miss/store counters; together they show that duplicate
concurrent submissions coalesce onto a single underlying run.

Thread-safe: leaders run on pool or replay threads, followers register
from asyncio handlers via ``run_in_executor`` threads.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional


class SingleFlight:
    """Coalesce concurrent identical computations onto one leader."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: key -> list of follower callbacks awaiting the leader
        self._inflight: Dict[str, List[Callable[[Any], None]]] = {}
        self.coalesced = 0
        self.resolved = 0

    def begin(
        self, key: str, follower: Optional[Callable[[Any], None]] = None
    ) -> bool:
        """Claim ``key``; True means the caller leads and must compute.

        False means an identical computation is already in flight: the
        ``follower`` callback (required then) was enqueued and will be
        invoked with the leader's outcome by :meth:`settle`.
        """
        with self._lock:
            followers = self._inflight.get(key)
            if followers is None:
                self._inflight[key] = []
                return True
            if follower is None:
                raise ValueError(f"{key!r} already in flight and no follower given")
            followers.append(follower)
            self.coalesced += 1
            return False

    def settle(self, key: str, outcome: Any) -> int:
        """The leader finished: release the key, feed every follower.

        Returns how many followers were resolved.  Followers run on
        the caller's thread, outside the lock (they typically just set
        an event or enqueue to an asyncio loop).
        """
        with self._lock:
            followers = self._inflight.pop(key, [])
            self.resolved += len(followers)
        for callback in followers:
            callback(outcome)
        return len(followers)

    def abandon(self, key: str) -> List[Callable[[Any], None]]:
        """Release ``key`` without an outcome (leader cancelled/crashed
        unrecoverably); returns the orphaned followers so the caller
        can fail or re-lead them."""
        with self._lock:
            return self._inflight.pop(key, [])

    @property
    def inflight_now(self) -> int:
        with self._lock:
            return len(self._inflight)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(
                coalesced=self.coalesced,
                resolved=self.resolved,
                inflight_now=len(self._inflight),
            )
