"""SST-style streaming staging: direct writer/reader step streams.

A sixth scenario family *beyond the paper's five libraries*, modeled on
the ADIOS2 SST engine (Logan et al., "Flexible, Performance-Portable
Streaming Couplings", and the staging lineage the paper studies in
Section II).  Like Flexpath it is serverless — data stays in writer
memory until readers pull it peer-to-peer — but the coupling contract
differs in two ways this module reproduces:

* **reader pacing** (default): each writer keeps a bounded queue of
  ``queue_size`` marshaled steps; when the reader falls that many steps
  behind, the writer *blocks* until the oldest queued step is consumed.
  The queue depth is the coupling window, exactly SST's
  ``QueueLimit``/``QueueFullPolicy=Block`` pair;
* **step discard** (``StagingConfig.sst_discard``): SST's
  ``QueueFullPolicy=Discard`` — latest-step-wins.  The writer never
  blocks; instead a step that is still unconsumed when it falls off the
  queue is dropped, and the reader observes the skip (``steps_discarded``
  counts them).  Analytics always sees the freshest data at the price of
  holes in the sequence.

SST can also mirror every queued step into the machine's
persistent-memory tier (``StagingConfig.pmem_checkpoint``), which arms
the ``restart-from-pmem`` recovery policy: a writer death no longer
loses the queue, the restarted rank re-reads its slab from the tier
(see :mod:`repro.hpc.pmem` and the extended chaos matrix).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..hpc.failures import DrcOverload, OutOfMemory
from ..hpc.units import fmt_bytes
from ..transport import RdmaTransport
from . import calibration as cal
from .base import StagingLibrary, SteadyPlan
from .ndarray import Region
from .store import FragmentStore


class Sst(StagingLibrary):
    """Streaming writer/reader coupling with a bounded step queue."""

    name = "sst"
    has_servers = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.global_store = FragmentStore()
        #: version -> [(writer_actor, region)] still held in writer queues
        self._published: Dict[int, List[Tuple[int, Region]]] = {}
        self._queue_allocs: Dict[Tuple[int, int], object] = {}
        #: discard mode: versions dropped before any reader opened them
        self._discarded: set = set()
        #: version -> readers currently pulling it (a reader holding a
        #: step pins it: SST never discards a locked step)
        self._reading: Dict[int, int] = {}
        self.steps_discarded = 0
        #: chaos: versions delivered with holes after a writer death
        self._lost_versions: set = set()
        #: chaos: a writer rank died and must re-read its pmem slab
        self._restart_pending = False

    # ---------------------------------------------------------- lifecycle

    def bootstrap(self) -> Generator:
        if self.variable is None:
            raise ValueError("SST requires the variable at bootstrap")
        yield from super().bootstrap()
        # Writer/reader rendezvous: each peer publishes one contact blob
        # through the coordinator and readers connect straight to the
        # writers they subscribe to.  No event-graph wiring on top (the
        # half of Flexpath's startup SST does not pay), so half the
        # per-peer cost; TCP still pays handshakes and portmapper
        # lookups per contact.
        setup_factor = 3.0 if self.transport.name == "tcp" else 1.0
        yield self.env.pause(
            (self.topology.nsim + self.topology.nana)
            * cal.PEER_SETUP_SECONDS
            * 0.5
            * setup_factor
        )

    def _gate_window(self) -> int:
        if self.config.sst_discard:
            # Latest-step-wins: the writer never blocks on the reader;
            # staleness is handled by dropping, not backpressure.
            return max(self.steps, 1)
        # Reader pacing: the step queue depth is the coupling window.
        return max(1, self.config.queue_size)

    def validate_at_scale(self) -> None:
        topo = self.topology
        node_spec = self.cluster.spec.node
        bytes_per_proc = self.variable.nbytes / topo.nsim

        if isinstance(self.transport, RdmaTransport) and self.cluster.drc is not None:
            burst = topo.nsim + topo.nana
            if burst > self.cluster.drc.max_pending:
                self.cluster.drc.requests_failed += burst
                raise DrcOverload(
                    f"{burst} concurrent DRC credential requests exceed "
                    f"the service capacity {self.cluster.drc.max_pending}"
                )

        # The step queue lives in simulation memory, one marshaled copy
        # per queued step (both pacing policies fill the queue first).
        queue_bytes = (
            topo.sim_ranks_per_node
            * bytes_per_proc
            * max(1, self.config.queue_size)
        )
        calc = cal.LAMMPS_CALC_BYTES * topo.sim_ranks_per_node
        if queue_bytes + calc > node_spec.ram_bytes:
            raise OutOfMemory(
                f"SST step queues need {fmt_bytes(queue_bytes)} per "
                f"simulation node (> RAM after the calculation)"
            )

    # ------------------------------------------------------ chaos hooks

    def rank_died(self, kind: str, actor: int) -> None:
        """A dead writer's queue dies with it — unless it was mirrored.

        With ``pmem_checkpoint`` staging and the restart-from-pmem
        policy the rank restarts and re-reads its slab from the
        persistent-memory tier (zero version loss, like MPI-IO's
        restart-from-file but without the MDS round-trip).  Otherwise
        SST behaves like the serverless pub/sub family: peers see the
        connection close, the group shrinks, readers drain what the
        survivors still hold.
        """
        policy = self.recovery
        if (policy is not None and kind == "sim"
                and policy.kind == "restart-from-pmem"
                and self.config.pmem_checkpoint
                and self.cluster.spec.pmem is not None):
            self._restart_pending = True
            return  # the rank comes back; not recorded as dead
        super().rank_died(kind, actor)
        if self.gate is not None:
            if kind == "sim":
                self.gate.writer_left()
            else:
                self.gate.reader_left()

    def _restart_from_pmem(self, sim_actor: int) -> Generator:
        """Process: the restarted writer re-reads its mirrored slab."""
        self._restart_pending = False
        self.recovery_events += 1
        t0 = self.env.now
        yield from self.cluster.pmem.read(("sim", sim_actor))
        self.recovery_seconds += self.env.now - t0

    # ----------------------------------------------- steady fast-forward

    def steady_plan(self):
        """Eligible only under reader pacing.

        With backpressure the queue recycles exactly one slot per step
        once full — every version-keyed behaviour repeats and the
        warm-up covers the fill.  In discard mode *which* steps get
        dropped depends on the absolute phase of writer arrivals
        against the reader cursor: hidden aperiodic state no boundary
        fingerprint pair can vouch for, so decline.
        """
        if self.config.sst_discard:
            return None
        return SteadyPlan(warmup=max(1, self.config.queue_size) + 1)

    def steady_state(self, step):
        state = super().steady_state(step) + (
            tuple(sorted(v - step for v in self._published)),
            tuple(sorted((a, v - step) for (a, v) in self._queue_allocs)),
            tuple(sorted(v - step for v in self._reading)),
            self.steps_discarded,
        )
        if self.config.pmem_checkpoint and self.cluster.pmem is not None:
            state += self.cluster.pmem.steady_state()
        return state

    # --------------------------------------------------------------- put

    def put(
        self,
        sim_actor: int,
        region: Region,
        version: int,
        data: Optional[np.ndarray] = None,
    ) -> Generator:
        var = self.variable
        start = self.env.now
        total = var.region_bytes(region)

        if self._restart_pending:
            yield from self._restart_from_pmem(sim_actor)

        # BP-marshal the step into the writer-side queue (the ADIOS
        # layer cost; parallel across the real processors).
        serialize = self._serialize_cost(total)
        if serialize > 0:
            yield self.env.pause(serialize)

        # Reader pacing: blocks while the queue is full.  In discard
        # mode the window never binds — staleness drops below instead.
        yield from self.gate.writer_acquire(version)

        tracker = self.client_tracker("sim", sim_actor)
        alloc = tracker.allocate(total / self.topology.sim_scale, "step-queue")
        qdepth = max(1, self.config.queue_size)
        old_version = version - qdepth
        old = self._queue_allocs.pop((sim_actor, old_version), None)
        if old is not None:
            tracker.free(old)
        self._queue_allocs[(sim_actor, version)] = alloc

        self._published.setdefault(version, []).append((sim_actor, region))
        self.global_store.put(var, version, region, data)

        if old_version >= 0:
            if self.config.sst_discard:
                # Latest-step-wins: a step still unconsumed when it
                # falls off the queue is dropped — unless a reader has
                # it open (SST never discards a locked step).
                if (old_version > self.gate.consumed
                        and old_version not in self._reading
                        and old_version not in self._discarded):
                    self._discarded.add(old_version)
                    self.steps_discarded += 1
                if (old_version in self._discarded
                        or old_version <= self.gate.consumed):
                    self._published.pop(old_version, None)
                    self.global_store.evict(var, old_version)
            else:
                # Pacing proved old_version consumed before the acquire
                # above returned; the slot recycles.
                self._published.pop(old_version, None)
                self.global_store.evict(var, old_version)

        if self.config.pmem_checkpoint and self.cluster.pmem is not None:
            # Mirror the marshaled step to the persistent-memory tier:
            # the premium restart-from-pmem collects on.
            yield self.env.process(
                self.cluster.pmem.write(("sim", sim_actor), version, int(total))
            )

        # Step-ready metadata to the subscribed readers: one message on
        # the private writer->reader connection.
        env = self.env
        yield env.timeout_at_tick(env._now_tick + cal.RPC_LATENCY_TICKS)
        self.gate.publish(version)
        self._record_put(total, self.env.now - start, version)

    # --------------------------------------------------------------- get

    def get(
        self,
        ana_actor: int,
        region: Region,
        version: int,
    ) -> Generator:
        var = self.variable
        start = self.env.now
        yield from self.gate.reader_wait(version)

        if version in self._discarded:
            # The writer dropped this step before any reader opened it;
            # the reader observes the skip and moves to fresher data.
            self.gate.reader_done(version)
            self._record_get(0.0, self.env.now - start, version)
            return 0.0, None

        self._reading[version] = self._reading.get(version, 0) + 1
        client = self.ana_endpoint(ana_actor)
        moved = 0.0
        for writer_actor, owned in self._published.get(version, []):
            overlap = owned.intersect(region)
            if overlap is None:
                continue
            writer = self.sim_endpoint(writer_actor)
            nbytes = var.region_bytes(overlap)
            yield from self.transport.move(
                writer, client, self._wire_bytes(nbytes),
                src_registered=True, dst_registered=True,
            )
            moved += nbytes
        count = self._reading[version] - 1
        if count:
            self._reading[version] = count
        else:
            del self._reading[version]

        total = var.region_bytes(region)
        if self.dead_ranks and not self.global_store.covered(var, version, region):
            # Drain semantics: deliver what the surviving writers still
            # queue, flag the hole, keep consuming.
            if version not in self._lost_versions:
                self._lost_versions.add(version)
                self.versions_lost += 1
                self.recovery_events += 1
            self.gate.reader_done(version)
            self._record_get(moved, self.env.now - start, version)
            return moved, None
        data = self.global_store.assemble(var, version, region)
        self.gate.reader_done(version)
        self._record_get(total, self.env.now - start, version)
        return total, data
