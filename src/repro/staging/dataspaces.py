"""DataSpaces: a shared virtual staging space with dedicated servers.

Faithful to the design the paper describes (Sections II-A, III-B):

* dedicated staging+metadata servers manage the distributed datasets
  (default sizing: one server per 8 analytics processors — "each
  DataSpaces server deals with 16 simulation and 8 analytics
  processors");
* the global domain is partitioned into ``2^ceil(log2(n))`` regions
  along the longest dimension and sub-regions map to servers
  sequentially — the decomposition whose mismatch with the application
  layout produces the N-to-1 herd of Finding 3;
* staged data is spatially indexed with a Hilbert SFC whose padded
  index space makes server memory grow quadratically (Figure 6);
* staged buffers stay RDMA-registered on the servers, so staging more
  than the node's registrable capacity crashes (Figure 3), and every
  client/server pair needs live RDMA handlers whose per-node count is
  bounded (Figure 4 / the (8192, 4096) failure);
* over sockets, every client holds a connection to every server (data
  plus DHT metadata traffic) and servers keep a peer mesh — the
  descriptor exhaustion beyond (1024, 512).
"""

from __future__ import annotations

from functools import cached_property
from typing import Generator, List, Optional

import numpy as np

from ..hpc.failures import (
    DrcOverload,
    OutOfMemory,
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
from .decomposition import access_plan, first_slab_chunks, staging_partition
from .ndarray import Region
from .sfc import index_memory_bytes
from .store import FragmentStore


class DataSpaces(StagingLibrary):
    """The baseline DataSpaces library (optionally through ADIOS)."""

    name = "dataspaces"
    has_servers = True

    @staticmethod
    def default_server_count(nana: int) -> int:
        """Paper sizing: (# of analytics processors) / 8, at least 1."""
        return max(1, nana // 8)

    def __init__(self, *args, app_axis: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: dimension along which the *application* decomposes its output
        self.app_axis = app_axis
        self.global_store = FragmentStore()
        self._partition: List[Region] = []
        self._server_cpu: List = []  # per-server-actor request serializers
        self.dart: Optional[DartInstance] = None

    # ---------------------------------------------------------- lifecycle

    def bootstrap(self) -> Generator:
        yield from super().bootstrap()
        if self.variable is None:
            raise ValueError("DataSpaces requires the variable at bootstrap")
        self._partition = staging_partition(
            self.variable, self.topology.server_actors
        )
        self._server_cpu = [
            Resource(self.env, capacity=1) for _ in self.servers
        ]
        # Bring up the DART layer's server directory.
        self.dart = DartInstance(self.env, self.transport)
        for server in self.servers:
            self.dart.add_server(server.index, server.endpoint)
        # Build the spatial index; the per-server footprint uses the
        # *real* server count.  hash_version selects the structure
        # (Table I pins hash_version=2):
        #   1 — flat coordinate-hash DHT: one descriptor per partition
        #       sub-region, tiny but no range locality;
        #   2 — Hilbert SFC over the padded index space: locality-aware
        #       queries at the quadratic memory cost of Figure 6.
        per_server_index = self._index_bytes_per_server()
        for server in self.servers:
            server.memory.allocate(per_server_index, "index")

    # ------------------------------------------------- at-scale validation

    def _index_bytes_per_server(self) -> float:
        """Spatial-index memory per server under the configured hash."""
        nservers = max(1, self.topology.nservers)
        if self.config.hash_version == 1:
            # Flat DHT: a fixed-size descriptor per real partition
            # sub-region this server owns.
            real_partition = staging_partition(self.variable, nservers)
            regions_per_server = -(-len(real_partition) // nservers)
            return regions_per_server * cal.DIMES_META_ENTRY + cal.DIMES_META_BASE
        return index_memory_bytes(self.variable.dims, nservers)

    def _virtual_space_servers(self) -> int:
        """Granularity of the shared virtual space's real partition."""
        return max(1, self.topology.nservers)

    @cached_property
    def _real_chunks(self) -> int:
        """Partition sub-regions one real processor's put touches."""
        return first_slab_chunks(self.variable, self.topology.nsim,
                                 self.app_axis,
                                 self._virtual_space_servers())

    def validate_at_scale(self) -> None:
        topo = self.topology
        var = self.variable
        node_spec = self.cluster.spec.node
        bytes_per_proc = var.nbytes / topo.nsim
        staged_per_server = var.nbytes / max(1, topo.nservers)
        staged_per_server_node = staged_per_server * topo.servers_per_node

        if isinstance(self.transport, RdmaTransport):
            # DRC burst: all real processors request credentials at start.
            if self.cluster.drc is not None:
                burst = topo.nsim + topo.nana
                if burst > self.cluster.drc.max_pending:
                    self.cluster.drc.requests_failed += burst
                    raise DrcOverload(
                        f"{burst} concurrent DRC credential requests exceed "
                        f"the service capacity {self.cluster.drc.max_pending}"
                    )
            # Server-resident staged data stays RDMA-registered.
            if (
                self.config.register_staged_data
                and node_spec.rdma_capacity is not None
                and staged_per_server_node > node_spec.rdma_capacity
            ):
                raise OutOfRdmaMemory(
                    f"staging {fmt_bytes(staged_per_server)} per server "
                    f"({topo.servers_per_node}/node) exceeds the "
                    f"{fmt_bytes(node_spec.rdma_capacity)} registrable "
                    f"capacity; add staging servers"
                )
            # Per-chunk buffers of the live version hold RDMA handlers on
            # every client node.
            if node_spec.rdma_max_handlers is not None:
                handlers_per_node = (
                    topo.sim_ranks_per_node
                    * self._real_chunks
                    * max(1, self.config.max_versions)
                )
                if handlers_per_node > node_spec.rdma_max_handlers:
                    raise OutOfRdmaHandlers(
                        f"{handlers_per_node} live RDMA handlers per client "
                        f"node exceed the limit {node_spec.rdma_max_handlers}"
                    )

        if isinstance(self.transport, TcpTransport):
            # Every client connects to every server (data + DHT metadata)
            # and servers mesh with their peers.  A socket pool caps the
            # per-server descriptor need (Table IV's resolve).
            clients = topo.nsim + topo.nana
            if self.transport.pool_size is not None:
                clients = min(clients, self.transport.pool_size)
            per_server_fds = clients + (topo.nservers - 1)
            if per_server_fds > node_spec.max_sockets:
                raise OutOfSockets(
                    f"each staging server needs {per_server_fds} socket "
                    f"descriptors (> {node_spec.max_sockets})"
                )

        # Main-memory budget on server nodes: staged data with internal
        # buffering plus the spatial index.
        index_bytes = self._index_bytes_per_server()
        server_ram = (
            staged_per_server * self.config.buffer_factor + index_bytes
            + cal.SERVER_BASE
        ) * topo.servers_per_node
        if server_ram > node_spec.ram_bytes:
            raise OutOfMemory(
                f"server node needs {fmt_bytes(server_ram)} "
                f"(> {fmt_bytes(node_spec.ram_bytes)} RAM): "
                f"{fmt_bytes(staged_per_server)} staged x "
                f"{self.config.buffer_factor} buffering + "
                f"{fmt_bytes(index_bytes)} SFC index"
            )

    # ----------------------------------------------- steady fast-forward

    def steady_plan(self):
        """Eligible: DataSpaces' behaviour is version-periodic.

        The put of version ``v`` evicts ``v - max_versions`` from the
        same (layout-determined) servers, the DHT index insert pattern
        is identical every step, and locking is the version gate's
        window-relative state — so after the window fills (plus the
        first-touch RDMA/DRC warm-up of step 0) every step repeats the
        previous one shifted by one version.
        """
        return SteadyPlan(warmup=max(1, self.config.max_versions) + 1)

    def steady_state(self, step):
        return super().steady_state(step) + (
            tuple(cpu.steady_state() for cpu in self._server_cpu),
        )

    def _server_work(self, server_index: int, scale: float, actor_chunks: int):
        """Process: serialized server-side handling of one actor chunk.

        Each *real* processor behind the actor inserts/looks up one
        DHT+SFC record per real sub-region; a server handles requests
        one at a time, so this queue — not raw bytes — is what the
        N-to-1 layout mismatch amplifies (Finding 3).
        """
        inserts = scale * self._real_chunks / max(1, actor_chunks)
        # Receive-side handling is interconnect-assisted: the higher
        # Aries throughput is why "this overhead does not appear on
        # Cori" in the paper's Figure 2a discussion.
        interconnect_factor = (5.5 * 2**30) / self.cluster.spec.node.injection_bw
        if self.shared_nodes:
            # Co-located clients deliver through shared memory; the
            # server skips the NIC receive path (Figure 13's shortened
            # I/O path).
            interconnect_factor *= 0.5
        busy = (
            inserts * cal.SERVER_RPC_SECONDS * interconnect_factor
            / self.topology.server_scale
        )
        with self._server_cpu[server_index].request() as req:
            yield req
            yield self.env.pause(busy)

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

        # ADIOS-layer buffering copy, when configured.
        serialize = self._serialize_cost(total)
        if serialize > 0:
            yield self.env.pause(serialize)

        # The write lock: its RPC, then lock_type=2's max_versions
        # window (Table I).
        env = self.env
        yield env.timeout_at_tick(env._now_tick + cal.RPC_LATENCY_TICKS)
        yield from self.gate.writer_acquire(version)
        if not self.config.use_adios:
            # The native API issues explicit lock RPCs (Table III shows
            # the extra lock/unlock calls).
            yield env.timeout_at_tick(
                env._now_tick + cal.RPC_LATENCY_2_TICKS
            )

        client = self.sim_endpoint(sim_actor)
        plan = access_plan(region, self._partition, self.topology.server_actors)
        for server_index, sub in plan:
            server = self.servers[server_index]
            if self.recovery is not None and not server.node.alive:
                server_index = yield from self._server_or_recover(server_index)
                server = self.servers[server_index]
            nbytes = var.region_bytes(sub)
            # The metadata/DHT update RPC for the staged sub-region is a
            # fixed follow-up latency, folded into the bulk transfer's
            # completion event (the pipes release at the transfer end
            # exactly as before; only this client's wake-up moves).
            yield from self.dart.bulk_put(
                client, server_index, self._wire_bytes(nbytes),
                tail_ticks=cal.RPC_LATENCY_TICKS,
            )
            yield from self._server_work(
                server_index, self.topology.sim_scale, len(plan)
            )
            self._stage_on_server(server, sub, version, nbytes)
            # Resilience extension: mirror the fragment onto the next
            # server so one staging-node failure loses nothing.
            if self.config.replication_factor >= 2 and len(self.servers) > 1:
                replica_index = (server_index + 1) % len(self.servers)
                yield from self.dart.bulk_put(
                    client, replica_index, self._wire_bytes(nbytes)
                )
                self._stage_on_server(
                    self.servers[replica_index], sub, version, nbytes
                )

        self.global_store.put(var, version, region, data)
        self._evict_old(version)
        self.gate.publish(version)  # the write unlock
        self._record_put(total, self.env.now - start, version)

    def _stage_on_server(self, server, sub: Region, version: int, nbytes: float) -> None:
        """Account one staged fragment in the server's memory."""
        # The tracker reports *real* per-server bytes: an actor-level
        # transfer stands for server_scale real servers' worth.
        real_bytes = nbytes / self.topology.server_scale
        alloc = server.memory.allocate(
            real_bytes * self.config.buffer_factor, "staged"
        )
        key = (self.variable.name, version)
        server._staged_allocs.setdefault(key, []).append(alloc)
        server.store.put(self.variable, version, sub)

    def _evict_old(self, version: int) -> None:
        """Drop versions beyond the max_versions window."""
        old = version - max(1, self.config.max_versions)
        if old < 0:
            return
        for server in self.servers:
            key = (self.variable.name, old)
            for alloc in server._staged_allocs.pop(key, []):
                server.memory.free(alloc)
            server.store.evict(self.variable, old)
        self.global_store.evict(self.variable, old)

    # ------------------------------------------------------ chaos hooks

    def server_crash(self, server_index: int) -> None:
        """Chaos: kill the node hosting staging server ``server_index``."""
        if not self.servers:
            return
        self.servers[server_index % len(self.servers)].node.fail()

    def _server_or_recover(self, server_index: int) -> Generator:
        """Process: resolve a live source index per the recovery policy.

        Only reached when a :class:`~repro.chaos.faults.RecoveryPolicy`
        is active; the policy decides between the paper's default — no
        failure detection, "the whole workflow will be stalled" — and
        the swappable alternatives.
        """
        from ..hpc.failures import StagingServerCrashed

        policy = self.recovery
        if policy.kind == "none":
            # DataSpaces reality: clients block forever on the dead
            # server; only the campaign watchdog bounds the stall.
            yield self.env.event()
        if policy.kind == "reconnect-backoff":
            for attempt in range(policy.max_retries):
                self.recovery_events += 1
                yield self.env.pause(policy.backoff * (2 ** attempt))
                if self.servers[server_index].node.alive:
                    return server_index
        elif policy.timeout > 0:
            yield self.env.pause(policy.timeout)
        raise StagingServerCrashed(
            f"{self.name} server {server_index} unreachable "
            f"(policy {policy.kind!r})"
        )

    def _live_source(self, server_index: int) -> int:
        """The server to read a fragment from, surviving failures.

        Without replication a dead staging server means the staged data
        is simply gone — the no-resilience reality Section IV-C calls
        out.  With ``replication_factor>=2`` the replica takes over.
        """
        from ..hpc.failures import DataLoss

        server = self.servers[server_index]
        if server.node.alive:
            return server_index
        if self.config.replication_factor >= 2 and len(self.servers) > 1:
            replica_index = (server_index + 1) % len(self.servers)
            if self.servers[replica_index].node.alive:
                return replica_index
        raise DataLoss(
            f"staging server {server_index} is down and no live replica "
            f"holds its fragments (replication_factor="
            f"{self.config.replication_factor})"
        )

    # --------------------------------------------------------------- get

    def get(
        self,
        ana_actor: int,
        region: Region,
        version: int,
    ) -> Generator:
        var = self.variable
        start = self.env.now
        # The read lock: its RPC, then wait until every writer
        # published the version.
        env = self.env
        yield env.timeout_at_tick(env._now_tick + cal.RPC_LATENCY_TICKS)
        yield from self.gate.reader_wait(version)

        # DHT + SFC metadata lookup to locate the target sub-regions.
        yield env.timeout_at_tick(env._now_tick + cal.RPC_LATENCY_2_TICKS)

        client = self.ana_endpoint(ana_actor)
        plan = access_plan(region, self._partition, self.topology.server_actors)
        for server_index, sub in plan:
            nbytes = var.region_bytes(sub)
            if self.recovery is not None and not self.servers[server_index].node.alive:
                source_index = yield from self._server_or_recover(server_index)
            else:
                source_index = self._live_source(server_index)
            yield from self._server_work(
                source_index, self.topology.ana_scale, len(plan)
            )
            yield from self.dart.bulk_get(
                client, source_index, self._wire_bytes(nbytes)
            )

        total = var.region_bytes(region)
        data = self.global_store.assemble(var, version, region)
        self.gate.reader_done(version)  # the read unlock
        self._record_get(total, self.env.now - start, version)
        return total, data
