"""Flexpath: type-based publish/subscribe staging without servers.

"Flexpath stages data at the simulation side and uses the
subscription/publication mechanism to notify analytics with regard to
where and when to retrieve the staged data" (Section II-A).  Properties
reproduced here:

* no stand-alone staging servers ("for Flexpath, there are no
  stand-alone staging servers" — Figure 5 discussion);
* writers FFS-serialize each step into a bounded publisher queue
  (``queue_size=1`` per Table I) — the queue is the backpressure that
  couples simulation and analytics;
* readers are notified, then pull their regions *directly from the
  writers whose regions overlap* — a peer-to-peer N-to-N pattern, so
  the DataSpaces layout pathologies do not apply (Table V);
* transport goes through the EVPath abstraction (NNTI on Cray machines,
  TCP sockets as the portable fallback — Figure 10).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..hpc.failures import DrcOverload, OutOfMemory
from ..hpc.units import fmt_bytes
from ..transport import RdmaTransport
from . import calibration as cal
from .base import StagingLibrary, SteadyPlan
from .evpath import EvpathManager, Stone
from .ndarray import Region
from .store import FragmentStore


class Flexpath(StagingLibrary):
    """Flexpath through its EVPath transport stack."""

    name = "flexpath"
    has_servers = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.global_store = FragmentStore()
        #: version -> [(writer_actor, region)]
        self._published: Dict[int, List[Tuple[int, Region]]] = {}
        self._queue_allocs: Dict[Tuple[int, int], object] = {}
        self.evpath: Optional[EvpathManager] = None
        self._pub_stones: Dict[int, Stone] = {}
        self.notifications_delivered = 0
        #: chaos: versions delivered with holes after a writer death
        self._lost_versions: set = set()

    # ---------------------------------------------------------- lifecycle

    def bootstrap(self) -> Generator:
        if self.variable is None:
            raise ValueError("Flexpath requires the variable at bootstrap")
        yield from super().bootstrap()
        # Startup contact exchange: every real peer registers its FFS
        # formats and EVPath stones through the coordinator.  This
        # serialized phase is what grows Flexpath's end-to-end time by
        # ~60% across the Figure 2 processor sweep.  Over TCP each
        # contact needs handshakes and portmapper lookups on top (the
        # Figure 10 socket penalty: ~15.8% on LAMMPS, ~3.8% on the
        # longer-running Laplace).
        setup_factor = 3.0 if self.transport.name == "tcp" else 1.0
        yield self.env.pause(
            (self.topology.nsim + self.topology.nana)
            * cal.PEER_SETUP_SECONDS
            * setup_factor
        )
        # Wire the EVPath event graph: one source stone per publisher,
        # bridged to a terminal stone on every subscriber.
        self.evpath = EvpathManager(self.env, self.transport)
        sink_stones = []
        for reader in range(self.topology.ana_actors):
            stone = self.evpath.create_stone(self.ana_endpoint(reader))
            stone.set_handler(self._on_notification)
            sink_stones.append(stone)
        for writer in range(self.topology.sim_actors):
            stone = self.evpath.create_stone(self.sim_endpoint(writer))
            for sink in sink_stones:
                stone.link(sink)
            self._pub_stones[writer] = stone

    def _on_notification(self, event) -> None:
        self.notifications_delivered += 1

    def _gate_window(self) -> int:
        # The publisher queue depth is the coupling window.
        return max(1, self.config.queue_size)

    # ----------------------------------------------- steady fast-forward

    def steady_plan(self):
        """Eligible: serverless pub/sub recycles everything per version.

        Publisher-queue slots are freed exactly ``queue_size`` versions
        later, the EVPath notification fan-out touches every
        writer→reader edge each step (so all connection state is warm
        after step 0), and readers pull from the same overlapping
        writers every version.  Warm-up covers the queue fill.
        """
        return SteadyPlan(warmup=max(1, self.config.queue_size) + 1)

    def rank_died(self, kind: str, actor: int) -> None:
        """Serverless pub/sub detects peer EOF: the group shrinks.

        A dead writer's subscribers see its EVPath connection close;
        remaining publishes still become visible and readers drain what
        was staged (Table IV: readers can outlive a dead writer).
        """
        super().rank_died(kind, actor)
        if self.gate is not None:
            if kind == "sim":
                self.gate.writer_left()
            else:
                self.gate.reader_left()

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

        # Publisher queues live in simulation memory.
        queue_bytes = (
            topo.sim_ranks_per_node
            * bytes_per_proc
            * max(1, self.config.queue_size)
        )
        calc = cal.LAMMPS_CALC_BYTES * topo.sim_ranks_per_node
        if queue_bytes + calc > node_spec.ram_bytes:
            raise OutOfMemory(
                f"Flexpath publisher queues need {fmt_bytes(queue_bytes)} "
                f"per simulation node (> RAM after the calculation)"
            )

    # --------------------------------------------------------------- put

    def _writer_tracker(self, actor: int):
        return self.client_tracker("sim", actor)

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

        # FFS always serializes into a self-describing event (parallel
        # across the real processors, so the actor pays per-proc cost);
        # the delay becomes a tick deadline directly.
        env = self.env
        yield env.timeout_at_tick(env._now_tick + round(
            total / self.topology.sim_scale / cal.SERIALIZE_BW
            * cal._TICK_SCALE
        ))
        yield from self.gate.writer_acquire(version)

        # The event sits in the writer-side queue until consumed.
        tracker = self._writer_tracker(sim_actor)
        alloc = tracker.allocate(total / self.topology.sim_scale, "pub-queue")
        old_key = (sim_actor, version - max(1, self.config.queue_size))
        old = self._queue_allocs.pop(old_key, None)
        if old is not None:
            tracker.free(old)
        self._queue_allocs[(sim_actor, version)] = alloc

        self._published.setdefault(version, []).append((sim_actor, region))
        self.global_store.put(var, version, region, data)
        old_version = version - max(1, self.config.queue_size)
        if old_version >= 0:
            self._published.pop(old_version, None)
            self.global_store.evict(var, old_version)

        # Subscription notification through the EVPath event graph: the
        # self-describing "data ready" event reaches every subscriber.
        yield from self._pub_stones[sim_actor].submit(
            {"var": var.name, "version": version}, nbytes=256
        )
        self.gate.publish(version)
        self._record_put(total, self.env.now - start)

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

        total = var.region_bytes(region)
        if self.dead_ranks and not self.global_store.covered(var, version, region):
            # Drain semantics: deliver what the surviving writers
            # staged, flag the hole, and keep consuming — the Table IV
            # "reader outlives dead writer" behaviour.
            if version not in self._lost_versions:
                self._lost_versions.add(version)
                self.versions_lost += 1
                self.recovery_events += 1
            self.gate.reader_done(version)
            self._record_get(moved, self.env.now - start)
            return moved, None
        data = self.global_store.assemble(var, version, region)
        self.gate.reader_done(version)
        self._record_get(total, self.env.now - start)
        return total, data
