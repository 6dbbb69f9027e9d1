"""Versioned fragment storage and write/read coordination.

:class:`FragmentStore` is a *working* distributed-array store: staged
fragments (region + optional real numpy payload) can be re-assembled
into any requested region, so small-scale examples move real data
end-to-end while at-scale benchmarks pass ``data=None`` and only sizes
flow.

:class:`VersionGate` implements the version-window coordination all of
the studied libraries share in some form: DataSpaces' ``lock_type=2``
locks with ``max_versions=1``, Flexpath's ``queue_size=1`` publisher
queue, and Decaf's pipelined dataflow.  A writer may run at most
``window`` versions ahead of the slowest reader, which is what couples
simulation and analytics progress.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..sim import Environment, Event
from .ndarray import Region, Variable


class Fragment:
    """One staged piece of a variable version."""

    __slots__ = ("region", "data", "nbytes")

    def __init__(self, region: Region, nbytes: int, data: Optional[np.ndarray]) -> None:
        if data is not None and tuple(data.shape) != region.shape:
            raise ValueError(
                f"data shape {data.shape} does not match region {region}"
            )
        self.region = region
        self.nbytes = nbytes
        self.data = data


class FragmentStore:
    """Fragments of (variable, version) pairs with region reassembly."""

    def __init__(self) -> None:
        self._frags: Dict[Tuple[str, int], List[Fragment]] = {}

    def put(
        self,
        var: Variable,
        version: int,
        region: Region,
        data: Optional[np.ndarray] = None,
    ) -> Fragment:
        frag = Fragment(region, var.region_bytes(region), data)
        self._frags.setdefault((var.name, version), []).append(frag)
        return frag

    def fragments(self, var: Variable, version: int) -> List[Fragment]:
        return list(self._frags.get((var.name, version), []))

    def bytes_stored(self, var: Variable, version: int) -> int:
        return sum(f.nbytes for f in self.fragments(var, version))

    def _overlaps(
        self, var: Variable, version: int, region: Region
    ) -> List[Tuple[Fragment, Region]]:
        """Each stored fragment intersecting ``region``, with its overlap.

        Computed in one pass over the fragment list (no copy) so that
        ``covered`` + ``assemble`` callers intersect each fragment once
        instead of twice per call.
        """
        out = []
        for frag in self._frags.get((var.name, version), ()):
            overlap = frag.region.intersect(region)
            if overlap is not None:
                out.append((frag, overlap))
        return out

    def covered(self, var: Variable, version: int, region: Region) -> bool:
        """Whether stored fragments fully cover ``region``."""
        # Fragments never overlap each other (disjoint writer regions),
        # so summed overlap equals coverage.
        have = sum(o.num_elements for _, o in self._overlaps(var, version, region))
        return have >= region.num_elements

    def assemble(
        self, var: Variable, version: int, region: Region
    ) -> Optional[np.ndarray]:
        """Reconstruct ``region`` from stored fragments.

        Returns None when fragments were staged without payloads
        (performance-mode runs); raises KeyError when the region is not
        fully covered.
        """
        overlaps = self._overlaps(var, version, region)
        have = sum(o.num_elements for _, o in overlaps)
        if have < region.num_elements:
            raise KeyError(
                f"{var.name} v{version}: region {region} not fully staged"
            )
        if any(f.data is None for f, _ in overlaps):
            return None
        out = np.zeros(region.shape)
        for frag, overlap in overlaps:
            out[overlap.local_slices(region)] = frag.data[
                overlap.local_slices(frag.region)
            ]
        return out

    def evict(self, var: Variable, version: int) -> int:
        """Drop a version's fragments; returns bytes released."""
        frags = self._frags.pop((var.name, version), [])
        return sum(f.nbytes for f in frags)

    def versions(self, var: Variable) -> List[int]:
        return sorted(v for (name, v) in self._frags if name == var.name)


class VersionGate:
    """Bounded producer/consumer version window.

    * Writers call :meth:`writer_acquire` before staging version ``v``;
      it blocks while ``v >= consumed + window`` (the staging area may
      hold at most ``window`` unconsumed versions).
    * :meth:`publish` marks a version fully staged (by all writers).
    * Readers block in :meth:`reader_wait` until the version is
      published, then call :meth:`reader_done`; once every reader of the
      group finished, the version counts as consumed and the oldest
      writer waiting on the window is released.
    """

    def __init__(
        self,
        env: Environment,
        num_writers: int,
        num_readers: int,
        window: int = 1,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if num_writers < 1 or num_readers < 1:
            raise ValueError("need at least one writer and one reader")
        self.env = env
        self.window = window
        self.num_writers = num_writers
        self.num_readers = num_readers
        self._published: Dict[int, Event] = {}
        self._publish_count: Dict[int, int] = {}
        self._reader_count: Dict[int, int] = {}
        self._consumed = -1  # highest fully consumed version
        self._window_events: Dict[int, Event] = {}
        #: chaos: once released, no waiter ever blocks again
        self._released = False
        #: ticks each version was fully published / consumed at (the
        #: ready ticks of the steady controller's logged wake-ups)
        self._published_at: Dict[int, int] = {}
        self._consumed_at: Dict[int, int] = {}

    def _published_event(self, version: int) -> Event:
        event = self._published.get(version)
        if event is None:
            event = Event(self.env)
            if self._released and not event.triggered:
                event.succeed()
            self._published[version] = event
        return event

    def writer_acquire(self, version: int) -> Generator:
        """Process: block until ``version`` fits in the window."""
        arrival = self.env._now_tick
        while not self._released and version >= self._consumed + 1 + self.window:
            event = self._window_events.get(self._consumed)
            if event is None:
                event = Event(self.env)
                self._window_events[self._consumed] = event
            yield event
        log = self.env._steady_log
        if log is not None:
            # the writer waits for the consumption that opens its slot
            ready = self._consumed_at.get(version - self.window)
            if ready is not None:
                log += ((self, "acquire"), arrival, ready)

    def publish(self, version: int) -> None:
        """One writer finished staging ``version``."""
        count = self._publish_count.get(version, 0) + 1
        self._publish_count[version] = count
        # >= not ==: a writer death (writer_left) can shrink the group
        # below counts already accumulated.
        if count >= self.num_writers:
            event = self._published_event(version)
            if not event.triggered:
                self._published_at[version] = self.env._now_tick
                event.succeed()

    def reader_wait(self, version: int) -> Generator:
        """Process: block until ``version`` is fully published."""
        env = self.env
        arrival = env._now_tick
        event = self._published_event(version)
        if not event.triggered:
            yield event
        else:
            yield env.pause(0)
        log = env._steady_log
        if log is not None and version in self._published_at:
            log += ((self, "wait"), arrival, self._published_at[version])

    def reader_done(self, version: int) -> None:
        """One reader finished consuming ``version``."""
        count = self._reader_count.get(version, 0) + 1
        self._reader_count[version] = count
        if count >= self.num_readers:
            self._consumed_at.setdefault(version, self.env._now_tick)
            self._consumed = max(self._consumed, version)
            stale = self._window_events.pop(self._consumed - 1, None)
            if stale is not None and not stale.triggered:
                stale.succeed()
            current = self._window_events.pop(self._consumed, None)
            if current is not None and not current.triggered:
                current.succeed()

    @property
    def consumed(self) -> int:
        return self._consumed

    def steady_state(self, step: int) -> tuple:
        """The window's state normalized to ``step`` (boundary fingerprint).

        In a steady orbit the gate advances by exactly one version per
        step, so every version-keyed quantity is constant once expressed
        relative to the step counter.  Only versions still inside the
        active window matter; fully consumed history is dropped (its
        bookkeeping never blocks anyone again).
        """
        return (
            self.window,
            self.num_writers,
            self.num_readers,
            self._consumed - step,
            self._released,
            tuple(sorted(
                (v - step, c) for v, c in self._publish_count.items()
                if v > self._consumed
            )),
            tuple(sorted(
                (v - step, c) for v, c in self._reader_count.items()
                if v > self._consumed
            )),
            tuple(sorted(
                (v - step, e.triggered)
                for v, e in self._published.items() if v > self._consumed
            )),
            tuple(sorted(v - step for v in self._window_events)),
        )

    def highest_published(self) -> int:
        """Highest fully published version so far (-1 if none)."""
        published = [v for v, e in self._published.items() if e.triggered]
        return max(published, default=-1)

    # ------------------------------------------------------ chaos hooks

    def writer_left(self) -> None:
        """A writer died: shrink the group, re-check pending publishes.

        Versions every *surviving* writer already published become
        visible (Flexpath's serverless queues keep working); if no
        writer remains, every waiter is released so readers can drain
        what was staged and detect the EOF themselves.
        """
        self.num_writers -= 1
        if self.num_writers <= 0:
            self.release_all()
            return
        for version, event in list(self._published.items()):
            if (not event.triggered
                    and self._publish_count.get(version, 0) >= self.num_writers):
                event.succeed()

    def reader_left(self) -> None:
        """A reader died: shrink the group, re-check consumption."""
        self.num_readers -= 1
        if self.num_readers <= 0:
            self.release_all()
            return
        advanced = False
        for version in sorted(self._reader_count):
            if (version > self._consumed
                    and self._reader_count[version] >= self.num_readers):
                self._consumed = version
                advanced = True
        if advanced:
            # Spurious wake-ups are safe: writer_acquire re-checks its
            # window condition and blocks again if still outside it.
            for event in list(self._window_events.values()):
                if not event.triggered:
                    event.succeed()
            self._window_events.clear()

    def release_all(self) -> None:
        """Termination token: wake every current and future waiter."""
        self._released = True
        for event in self._published.values():
            if not event.triggered:
                event.succeed()
        for event in self._window_events.values():
            if not event.triggered:
                event.succeed()
        self._window_events.clear()
