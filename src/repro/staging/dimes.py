"""DIMES: in-situ staging in simulation memory, metadata-only servers.

"As compared to the baseline [DataSpaces], it places the shared virtual
space directly into the simulation memory in a distributed fashion, and
provides direct memory-to-memory data exchange ... However, metadata
are still maintained by the stand-alone DIMES servers" (Section II-A).

Consequences reproduced here:

* ``put`` is almost free — data stays in the producer's memory
  (RDMA-registered for remote gets), only a descriptor travels to a
  metadata server (4 servers by default, per the paper's setup);
* ``get`` resolves the owners at a metadata server, then pulls
  directly producer-to-consumer: data movement is naturally N-to-N,
  which is why Findings 1/3 do not apply to DIMES (Table V);
* staged versions pin both memory and RDMA registrations *on the
  simulation nodes* — the Figure 3 out-of-RDMA failure at 128 MB per
  processor, and one handler per staged chunk — the (8192, 4096)
  failure on Titan;
* server memory stays tiny (~154 MB in Figure 6): descriptors only.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..hpc.failures import (
    DrcOverload,
    OutOfRdmaHandlers,
    OutOfRdmaMemory,
    OutOfSockets,
)
from ..hpc.units import fmt_bytes
from ..sim import Resource
from ..transport import RdmaTransport, TcpTransport
from . import calibration as cal
from .base import StagingLibrary, SteadyPlan
from .dart import DartInstance
from .decomposition import (
    access_plan,
    application_decomposition,
    staging_partition,
)
from .ndarray import Region
from .store import FragmentStore


class Dimes(StagingLibrary):
    """DIMES (optionally through ADIOS)."""

    name = "dimes"
    has_servers = True

    #: the paper's setup: "the numbers of DIMES and DataSpaces servers
    #: are set to 4 and (# of analytics processors)/8, respectively"
    DEFAULT_SERVERS = 4

    def __init__(self, *args, app_axis: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.app_axis = app_axis
        self.global_store = FragmentStore()
        #: (version) -> list of (producer_actor, region)
        self._owners: Dict[int, List[Tuple[int, Region]]] = {}
        self._client_allocs: Dict[Tuple[int, int], object] = {}
        self._meta_cpu = None
        self.dart: Optional[DartInstance] = None

    # ---------------------------------------------------------- lifecycle

    def bootstrap(self) -> Generator:
        yield from super().bootstrap()
        if self.variable is None:
            raise ValueError("DIMES requires the variable at bootstrap")
        # Metadata servers hold descriptors for every staged region of
        # the live versions: tiny compared to DataSpaces (Figure 6).
        real_chunks = self._real_chunks_per_put()
        entries_per_server = (
            self.topology.nsim * real_chunks * max(1, self.config.max_versions)
            / max(1, self.topology.nservers)
        )
        for server in self.servers:
            server.memory.allocate(
                cal.DIMES_META_BASE + entries_per_server * cal.DIMES_META_ENTRY,
                "metadata",
            )
        self.dart = DartInstance(self.env, self.transport)
        for server in self.servers:
            self.dart.add_server(server.index, server.endpoint)

    def _virtual_space_servers(self) -> int:
        """Granularity of the shared virtual space's real partition.

        DIMES decomposes the shared virtual space at the same
        granularity DataSpaces sizes its servers (one region group per
        8 analytics processors); its 4 metadata servers merely track the
        descriptors.  Every staged chunk of a live version pins one
        RDMA handler in simulation memory.
        """
        return max(1, self.topology.nana // 8, self.topology.nservers)

    def _real_chunks_per_put(self) -> int:
        nservers = self._virtual_space_servers()
        real_partition = staging_partition(self.variable, nservers)
        nprocs = min(self.topology.nsim, self.variable.dims[self.app_axis])
        proc_region = application_decomposition(
            self.variable, nprocs, self.app_axis
        )[0]
        return len(access_plan(proc_region, real_partition, nservers))

    # ------------------------------------------------- at-scale validation

    def validate_at_scale(self) -> None:
        topo = self.topology
        node_spec = self.cluster.spec.node
        bytes_per_proc = self.variable.nbytes / topo.nsim
        versions_live = max(1, self.config.max_versions)

        if isinstance(self.transport, RdmaTransport):
            if self.cluster.drc is not None:
                burst = topo.nsim + topo.nana
                if burst > self.cluster.drc.max_pending:
                    self.cluster.drc.requests_failed += burst
                    raise DrcOverload(
                        f"{burst} concurrent DRC credential requests exceed "
                        f"the service capacity {self.cluster.drc.max_pending}"
                    )
            # Staged versions stay registered in simulation-node memory.
            if node_spec.rdma_capacity is not None:
                per_node = (
                    topo.sim_ranks_per_node * bytes_per_proc * versions_live
                )
                if per_node > node_spec.rdma_capacity:
                    raise OutOfRdmaMemory(
                        f"DIMES pins {fmt_bytes(per_node)} of staged data per "
                        f"simulation node (> "
                        f"{fmt_bytes(node_spec.rdma_capacity)} registrable); "
                        f"reduce ranks per node or the problem size"
                    )
            # One handler per staged chunk of the live versions.
            if node_spec.rdma_max_handlers is not None:
                handlers = (
                    topo.sim_ranks_per_node
                    * self._real_chunks_per_put()
                    * versions_live
                )
                if handlers > node_spec.rdma_max_handlers:
                    raise OutOfRdmaHandlers(
                        f"{handlers} live RDMA handlers per simulation node "
                        f"exceed the limit {node_spec.rdma_max_handlers}"
                    )

        if isinstance(self.transport, TcpTransport):
            # Metadata servers talk to every client plus their peers.
            per_server_fds = (topo.nsim + topo.nana) + (topo.nservers - 1)
            if per_server_fds > node_spec.max_sockets:
                raise OutOfSockets(
                    f"each DIMES metadata server needs {per_server_fds} "
                    f"socket descriptors (> {node_spec.max_sockets})"
                )

    # ----------------------------------------------- steady fast-forward

    def steady_plan(self):
        """Eligible only when the metadata rotation is timing-inert.

        :meth:`_meta_server_of` routes each version's descriptor RPCs to
        server ``version % nservers`` — hidden state with period
        ``nservers`` that a single fingerprint pair cannot see.  It is
        certified harmless only when every client is equidistant from
        every metadata server (the RPC then costs the same wherever it
        lands); otherwise decline.  The warm-up must also cover one full
        rotation so per-server first-touch costs (DRC credentials,
        connection setup) are all paid before fingerprint pairs count.
        """
        nservers = max(1, self.topology.server_actors)
        if nservers > 1:
            server_nodes = self._placed_nodes("servers")
            for component in ("simulation", "analytics"):
                for node in self._placed_nodes(component):
                    hops = {self._chain_hops(node, s) for s in server_nodes}
                    if len(hops) > 1:
                        return None
        warmup = max(nservers, max(1, self.config.max_versions)) + 1
        return SteadyPlan(warmup=warmup)

    def steady_state(self, step):
        meta = self._meta_cpu.steady_state() if self._meta_cpu is not None else ()
        return super().steady_state(step) + (meta,)

    # --------------------------------------------------------------- put

    def _meta_server_of(self, version: int) -> int:
        return version % max(1, len(self.servers))

    def rank_died(self, kind: str, actor: int) -> None:
        """Chaos: DIMES stages *in simulation memory*, so a dead sim
        rank takes its staged versions with it; readers waiting on the
        gate are woken so they can discover the loss instead of
        deadlocking silently."""
        super().rank_died(kind, actor)
        if self.gate is not None:
            if kind == "sim":
                self.gate.writer_left()
            else:
                self.gate.reader_left()

    def server_crash(self, server_index: int) -> None:
        """Chaos: kill a metadata server node.  Data is unaffected (it
        lives in simulation memory), but every descriptor RPC routed to
        the dead server stalls its client."""
        if not self.servers:
            return  # crashed before bootstrap started any server
        self.servers[server_index % len(self.servers)].node.fail()

    def _meta_or_abort(self, server_id: int) -> Generator:
        """Process: a client RPC against a dead metadata server.

        Unlike DataSpaces, DIMES clients run a detection timeout on
        their metadata RPCs (the default ``timeout-abort`` policy), so
        the workflow aborts with a diagnosable error instead of
        stalling until the watchdog.
        """
        from ..hpc.failures import StagingServerCrashed

        policy = self.recovery
        if policy is None or policy.kind == "none":
            yield self.env.event()  # no detection: block forever
        if policy.timeout > 0:
            self.recovery_events += 1
            yield self.env.pause(policy.timeout)
        raise StagingServerCrashed(
            f"dimes: metadata server {server_id} is unreachable; client "
            f"RPC timed out after {policy.timeout:g} s"
        )

    def _meta_work(self, scale: float):
        """Process: serialized descriptor handling at a metadata server.

        One bounding-box record per real client — far lighter than the
        per-sub-region DHT inserts DataSpaces performs, which is why
        Finding 3 does not apply to DIMES (Table V).
        """
        if self._meta_cpu is None:
            self._meta_cpu = Resource(self.env, capacity=max(1, len(self.servers)))
        busy = scale * cal.DIMES_META_RPC_SECONDS / max(1.0, self.topology.server_scale)
        with self._meta_cpu.request() as req:
            yield req
            env = self.env
            yield env.timeout_at_tick(
                env._now_tick + round(busy * cal._TICK_SCALE)
            )

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

        serialize = self._serialize_cost(total)
        if serialize > 0:
            yield self.env.pause(serialize)

        yield from self.gate.writer_acquire(version)

        # Keep the staged copy in simulation memory (real per-processor
        # bytes on the representative tracker).
        # Staged copy accounted on the actor's node at real per-proc scale.
        client = self.sim_endpoint(sim_actor)
        tracker = self._client_tracker(sim_actor)
        staged = tracker.allocate(total / self.topology.sim_scale, "staged-local")
        old = self._client_allocs.pop((sim_actor, version - max(1, self.config.max_versions)), None)
        if old is not None:
            tracker.free(old)
        self._client_allocs[(sim_actor, version)] = staged

        # Register the descriptor with a metadata server (small message;
        # one bounding-box record per real producer, processed serially
        # by the server).
        server_id = self._meta_server_of(version)
        if self.recovery is not None and not self.servers[server_id].node.alive:
            yield from self._meta_or_abort(server_id)
        yield from self.dart.rpc(client, self.servers[server_id].endpoint)
        yield from self._meta_work(self.topology.sim_scale)

        self._owners.setdefault(version, []).append((sim_actor, region))
        self.global_store.put(var, version, region, data)
        old_version = version - max(1, self.config.max_versions)
        if old_version >= 0:
            self._owners.pop(old_version, None)
            self.global_store.evict(var, old_version)
        self.gate.publish(version)
        self._record_put(total, self.env.now - start)

    def _client_tracker(self, sim_actor: int):
        return self.client_tracker("sim", sim_actor)

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

        if self.dead_ranks:
            owners = self._owners.get(version, [])
            dead_owner = any(("sim", p) in self.dead_ranks for p, _ in owners)
            if dead_owner or not self.global_store.covered(var, version, region):
                from ..hpc.failures import DataLoss

                policy = self.recovery
                if policy is not None and policy.timeout > 0:
                    # The configured detection timeout before giving up.
                    self.recovery_events += 1
                    yield self.env.pause(policy.timeout)
                self.versions_lost += max(0, self.steps - version)
                raise DataLoss(
                    f"dimes: version {version} was staged in the memory of "
                    f"a dead simulation rank; nothing to recover from"
                )

        # Resolve owners at the metadata server (round trip).
        client = self.ana_endpoint(ana_actor)
        server_id = self._meta_server_of(version)
        if self.recovery is not None and not self.servers[server_id].node.alive:
            yield from self._meta_or_abort(server_id)
        yield from self.dart.rpc(client, self.servers[server_id].endpoint)
        yield from self._meta_work(self.topology.ana_scale)

        # Direct memory-to-memory pulls from each owning producer.
        for producer_actor, owned in self._owners.get(version, []):
            overlap = owned.intersect(region)
            if overlap is None:
                continue
            producer = self.sim_endpoint(producer_actor)
            yield from self.dart.peer_move(
                producer, client, self._wire_bytes(var.region_bytes(overlap))
            )

        total = var.region_bytes(region)
        data = self.global_store.assemble(var, version, region)
        self.gate.reader_done(version)
        self._record_get(total, self.env.now - start)
        return total, data
