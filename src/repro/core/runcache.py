"""Content-addressed cache for :func:`~repro.workflows.run_coupled`.

A coupled run is a pure function of its configuration: the simulation
is deterministic (time ties broken by event id), so two calls with the
same machine, workflow, method, scale, variable and staging settings
return bit-identical :class:`~repro.workflows.driver.RunResult` fields.
Several experiments re-run overlapping configurations (fig2/fig3/fig5/
fig7 and the findings verifiers); this cache makes each configuration
pay once.

The cache key is :attr:`repro.workflows.driver.RunSpec.key`: a sha256
over this module's :data:`SCHEMA_VERSION` and the repr of the resolved
spec, which holds every argument that feeds the simulation:

* machine name, workflow name, method, ``nsim``/``nana``/``steps``,
  transport, ``num_servers``, ``shared_nodes``;
* the variable's name, dims and element size (the paper's weak-scaled
  default or an explicit override);
* per-step compute seconds, ``topology_overrides``, ``app_axis``;
* every :class:`~repro.staging.base.StagingConfig` field, and the
  fault plan and recovery policy of a chaos run.

Deliberately **not** hashed: the ``trace`` argument (tracing mutates an
external object per event, so traced runs bypass the cache entirely),
the ignored ``fidelity`` keyword (whether the steady fast-forward
engages is the code's decision, and it never changes a result's
physics) and anything about the host (wall-clock, paths, library
versions).

Layers:

* **in-process** — always on; maps key -> the RunResult object.
  Callers treat results as read-only, so sharing is safe.
* **on disk** — opt-in via :func:`enable_disk` (the ``--cache DIR``
  flag of ``python -m repro study``); results are pickled as stored.

The disk layer is safe to share between concurrent processes (the
``--jobs N`` worker pool does): every write lands in a unique temp
file inside the cache directory and is published with an atomic
``os.replace``, so readers only ever see absent or complete entries,
and a corrupt or truncated entry is treated as a miss (the result is
recomputed) rather than an error.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Any, Dict, Optional

#: bump when simulation semantics change so stale disk entries miss
#: (3 -> 4: event times quantized to the 2^-32 s tick grid for the
#: steady-state fast-forward; pre-grid cached timings are stale.
#: 4 -> 5: the batch-compilation switch joined the key inputs and
#: results carry its decline reason; pre-batch pickles miss the field.
#: 5 -> 6: persistent-memory tier + SST streaming knobs
#: (``pmem_checkpoint``/``sst_discard``) feed the simulated timings
#: and results carry ``recovery_seconds``; pre-pmem pickles miss the
#: field.
#: 6 -> 7: checkpoint-fork incremental simulation — results carry
#: fork provenance and the cache grows prefix entries
#: (steady-boundary snapshots keyed by the point minus steps/fault
#: plan); pre-fork pickles miss the fields.
#: 7 -> 8: one decision record — results and prefix snapshots carry
#: ``fidelity_log`` in place of the three per-tier reason fields, and
#: the batch-compilation switch left the key inputs.
#: 8 -> 9: the batch-compilation tier is gone — the same keys now
#: carry steady labels and logs where they held the batch label, and
#: prefix snapshots drop the staging/event state records.
#: 9 -> 10: the representative-group tier is gone — its composed
#: spelling keys as "steady", and prefix snapshots drop their replica
#: count, label and decision record.
#: 10 -> 11: one orbit replay — prefix snapshots drop the confirm step
#: and the always-zero chaos counters and keep only the staging totals
#: the replay reads, and a compute-only steady request now runs exact
#: with a ``steady:`` decline.
#: 11 -> 12: steady is offered to every run — ``fidelity`` left the key
#: inputs, and a result stored under a key carries the label and log
#: the code chose, not those a request asked for.
#: 12 -> 13: one ``RunSpec`` keys every run — the hashed form is the
#: resolved spec's repr, so every key moved, and prefix snapshots drop
#: the inputs a resume now echoes from the spec.
#: 13 -> 14: per-actor orbits — prefix snapshots carry each actor's
#: period, per-entry window shifts and the cross-rate horizon in place
#: of one global Δ, and Titan points that ran exact now engage.
#: 14 -> 15: period-k orbits — prefix snapshots carry their lag, each
#: actor's last k phase ends and every window entry's step offset in
#: place of its ``present`` flag, and MPI-IO and DIMES points that ran
#: exact now engage)
SCHEMA_VERSION = 15


class RunCache:
    """Two-layer (memory + optional disk) RunResult cache."""

    def __init__(self, disk_dir: Optional[str] = None) -> None:
        self._memory: Dict[str, Any] = {}
        #: steady-boundary prefix snapshots (:mod:`repro.core.forkpoint`),
        #: keyed by the point spec minus (steps, fault plan, recovery)
        self._prefixes: Dict[str, Any] = {}
        self.disk_dir = disk_dir
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.seeds = 0
        #: hits answered by reading a published disk entry (a subset of
        #: ``hits``): the cross-process sharing actually paying off
        self.disk_hits = 0
        self.prefix_hits = 0
        self.prefix_misses = 0
        self.prefix_stores = 0

    def get(self, key: str) -> Optional[Any]:
        result = self._memory.get(key)
        if result is None and self.disk_dir is not None:
            result = self._read(f"{key}.pkl")
            if result is not None:
                self._memory[key] = result
                self.disk_hits += 1
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: Any) -> None:
        self._memory[key] = result
        self.stores += 1
        if self.disk_dir is not None:
            self._write(f"{key}.pkl", result)

    def get_prefix(self, key: str) -> Optional[Any]:
        """Fetch a steady-boundary prefix snapshot (or ``None``)."""
        snap = self._prefixes.get(key)
        if snap is None and self.disk_dir is not None:
            snap = self._read(f"px-{key}.pkl")
            if snap is not None:
                self._prefixes[key] = snap
        if snap is None:
            self.prefix_misses += 1
            return None
        self.prefix_hits += 1
        return snap

    def put_prefix(self, key: str, snap: Any) -> None:
        """Publish a steady-boundary prefix snapshot under ``key``."""
        self._prefixes[key] = snap
        self.prefix_stores += 1
        if self.disk_dir is not None:
            # "px-" keeps snapshot pickles distinguishable from RunResult
            # entries when a human lists the cache directory; keys are
            # sha256 hex so the namespaces cannot collide anyway.
            self._write(f"px-{key}.pkl", snap)

    def _read(self, name: str) -> Optional[Any]:
        """The disk entry ``name``.

        A missing, corrupt or truncated entry is a miss (None), never an
        error: the caller recomputes and overwrites it.
        """
        try:
            with open(os.path.join(self.disk_dir, name), "rb") as fh:
                return pickle.load(fh)
        except Exception:
            return None

    def _write(self, name: str, value: Any) -> None:
        """Publish ``value`` as the disk entry ``name``.

        A unique temp file per writer + atomic replace keeps concurrent
        processes (``--jobs N`` workers) from ever exposing a partial
        entry under the final name.  A failed write leaves the memory
        layer serving.
        """
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.disk_dir, prefix=f".{name}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh)
                os.replace(tmp, os.path.join(self.disk_dir, name))
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass

    def seed(self, key: str, result: Any) -> None:
        """Insert into the memory layer only (no disk write).

        The parallel executor uses this to publish worker-computed
        results to the in-process layer the serial replay reads.
        """
        self._memory[key] = result
        self.seeds += 1

    def stats(self) -> Dict[str, int]:
        """Observability counters (the run report and daemon ``stats``)."""
        return dict(
            hits=self.hits,
            misses=self.misses,
            stores=self.stores,
            seeds=self.seeds,
            disk_hits=self.disk_hits,
            entries=len(self._memory),
            prefix_hits=self.prefix_hits,
            prefix_misses=self.prefix_misses,
            prefix_stores=self.prefix_stores,
            prefix_entries=len(self._prefixes),
        )

    def clear(self) -> None:
        self._memory.clear()
        self._prefixes.clear()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.seeds = 0
        self.disk_hits = 0
        self.prefix_hits = 0
        self.prefix_misses = 0
        self.prefix_stores = 0


#: the process-wide cache every run_coupled call consults
CACHE = RunCache()


def enable_disk(directory: str) -> None:
    """Persist results under ``directory`` (and read back on misses)."""
    if os.path.exists(directory) and not os.path.isdir(directory):
        raise ValueError(f"cache path {directory!r} exists and is not a directory")
    CACHE.disk_dir = directory


def clear() -> None:
    """Drop the in-process layer (disk entries are kept)."""
    CACHE.clear()
