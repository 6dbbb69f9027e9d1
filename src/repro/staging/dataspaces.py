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
from ..sim.engine import _TICK
from ..transport import RdmaTransport, TcpTransport
from . import calibration as cal
from .base import ClusterPlan, StagingLibrary, SteadyPlan
from .batch import (
    ActionBuilder,
    BatchDecline,
    BatchPlan,
    BatchSchedule,
    SerialCpu,
    ShadowChains,
    link_path,
)
from .dart import DartInstance
from .decomposition import (
    access_plan,
    application_decomposition,
    staging_partition,
    uniform_regions,
)
from .locks import LockService
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
        self.locks: Optional[LockService] = None

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
        self._real_chunks = self._real_chunks_per_put()
        # Bring up the DART layer: server directory + lock service.
        self.dart = DartInstance(self.env, self.transport)
        for server in self.servers:
            self.dart.add_server(server.index, server.endpoint)
        self.locks = LockService(
            self.env, lock_type=self.config.lock_type, gate=self.gate
        )
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

    def _real_chunks_per_put(self) -> int:
        """Partition sub-regions one real processor's put touches."""
        nservers = self._virtual_space_servers()
        real_partition = staging_partition(self.variable, nservers)
        # Clamp for degenerate test geometries where the decomposition
        # axis is shorter than the processor count.
        nprocs = min(self.topology.nsim, self.variable.dims[self.app_axis])
        proc_region = application_decomposition(
            self.variable, nprocs, self.app_axis
        )[0]
        return len(access_plan(proc_region, real_partition, nservers))

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
                    * self._real_chunks_per_put()
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
        is identical every step, and the lock service holds only
        window-relative state — so after the window fills (plus the
        first-touch RDMA/DRC warm-up of step 0) every step repeats the
        previous one shifted by one version.
        """
        return SteadyPlan(warmup=max(1, self.config.max_versions) + 1)

    def steady_state(self, step):
        lock_state = ()
        if self.locks is not None:
            lock_state = self.locks.steady_state()
        return super().steady_state(step) + (
            tuple(cpu.steady_state() for cpu in self._server_cpu),
            lock_state,
        )

    # --------------------------------------------------- checkpoint-fork

    def _snapshot_extras(self) -> dict:
        extras = dict(global_store=self._snapshot_store(self.global_store))
        if self.dart is not None:
            extras["dart"] = self.dart.snapshot()
        if self.locks is not None:
            extras["locks"] = self.locks.snapshot()
        return extras

    def _restore_extras(self, extras: dict) -> None:
        self._restore_store(self.global_store, extras.get("global_store", {}))
        if extras.get("dart") is not None and self.dart is not None:
            self.dart.restore_state(extras["dart"])
        if extras.get("locks") is not None and self.locks is not None:
            self.locks.restore_state(extras["locks"])

    # ------------------------------------------------------- clustering

    def clustering_plan(self, write_regions, read_regions):
        """Engage when each (sim i, server i, ana i) triple is an
        isolated chain identical to every other.

        That is the matched-layout geometry of Figure 8b: every
        processor's region coincides with exactly one partition
        sub-region and lands on its own server.  Anything that couples
        the chains — the single DRC credential service, a multiplexed
        socket pool, replication onto the neighbouring server, shared
        nodes, or a plan touching a foreign server — disables the mode.

        Two representative chains are kept, not one: the first writer
        to finish a step evicts the previous version on *every* server
        (a zero-time bookkeeping sweep), so server 0 is the only server
        that ever holds two versions at once.  Chain 0 reproduces that
        leader; chain 1 stands for every follower (``"leader"``
        tiling).
        """
        topo = self.topology
        n = topo.sim_actors
        if n < 4 or n % 2 or topo.ana_actors != n or topo.server_actors != n:
            return None
        if self.shared_nodes or self.config.replication_factor >= 2:
            return None
        if isinstance(self.transport, RdmaTransport) and self.cluster.drc is not None:
            # Credential acquisition serializes through one DRC server,
            # staggering the chains relative to each other.
            return None
        if isinstance(self.transport, TcpTransport) and self.transport.pool_size is not None:
            # Pooled descriptors are multiplexed round-robin across all
            # chains' moves.
            return None
        if not (uniform_regions(write_regions) and uniform_regions(read_regions)):
            return None
        partition = staging_partition(self.variable, n)
        for i in range(n):
            if access_plan(write_regions[i], partition, n) != [(i, write_regions[i])]:
                return None
            if access_plan(read_regions[i], partition, n) != [(i, read_regions[i])]:
                return None
        # Every chain must pay the same wire distance as chain 0.
        sim_nodes = self._placed_nodes("simulation")
        ana_nodes = self._placed_nodes("analytics")
        srv_nodes = self._placed_nodes("servers")
        put_hops = self._chain_hops(sim_nodes[0], srv_nodes[0])
        get_hops = self._chain_hops(srv_nodes[0], ana_nodes[0])
        for i in range(1, n):
            if self._chain_hops(sim_nodes[i], srv_nodes[i]) != put_hops:
                return None
            if self._chain_hops(srv_nodes[i], ana_nodes[i]) != get_hops:
                return None
        return ClusterPlan(
            sim_reps=2, ana_reps=2, server_reps=2, groups=n // 2,
            server_tiling="leader",
        )

    # ----------------------------------------------------- batch actors

    def batch_plan(self, plan, write_regions, read_regions):
        """Certify the clustered chains for whole-run compilation.

        Beyond the clustering proof (identical, resource-disjoint
        chains), compilation needs every per-step tick to be a closed
        form of the previous phase ends:

        * RDMA transport with both sides resident-registered — socket
          transports thread per-move connection/pool state through the
          run;
        * the version-window lock service (``lock_type=2``): types 1
          and 3 put a FIFO reader/writer lock (or no gate at all) in
          the path, whose grant order is not a per-chain recurrence;
        * a window of exactly one version, which totally orders each
          chain's writer, reader and server work per step.
        """
        if not isinstance(self.transport, RdmaTransport):
            raise BatchDecline(
                "batch: dataspaces compiles RDMA chains only (socket "
                "transports carry per-move connection state)"
            )
        if self.config.lock_type != 2:
            raise BatchDecline(
                f"batch: lock_type={self.config.lock_type} has no "
                "closed-form gate arithmetic (need the version window, "
                "type 2)"
            )
        if self._gate_window() != 1:
            raise BatchDecline(
                f"batch: a {self._gate_window()}-version window lets "
                "phases overlap with no static order"
            )
        if self.config.replication_factor >= 2:
            raise BatchDecline(
                "batch: replication couples neighbouring chains"
            )
        if not (plan.sim_reps == plan.ana_reps == plan.server_reps):
            raise BatchDecline(
                "batch: representative group is not 1:1:1 chains"
            )
        if self.steps < 1:
            raise BatchDecline("batch: nothing to compile")
        return BatchPlan(
            library=self.name,
            note=f"{plan.sim_reps} matched chains x {self.steps} steps",
        )

    def batch_step(self, bplan, ctx):
        """Compile the whole clustered run into one action schedule.

        Phase one replays every chain's put/get tick recurrence against
        shadow resources — the exact arithmetic of
        :meth:`put`/:meth:`get` under the certificate, with zero
        mutation, so any structural surprise raises
        :class:`~repro.staging.batch.BatchDecline` onto pristine state.
        Phase two (which cannot fail) claims the frozen pipes, bumps
        the statistics counters in the per-rank run's accumulation
        order and emits the side-effect actions.
        """
        env = self.env
        var = self.variable
        topo = self.topology
        transport = self.transport
        n = ctx.sim_count
        steps = ctx.steps

        # ---- runtime certificate checks (still mutation-free) ----
        if ctx.ana_count != n or len(self.servers) < n:
            raise BatchDecline("batch: group is not 1:1:1 at runtime")
        gate = self.gate
        if gate is None or gate.window != 1:
            raise BatchDecline("batch: gate window changed at runtime")
        if gate.num_writers != n or gate.num_readers != n:
            raise BatchDecline("batch: gate group counts drifted")
        if self.recovery is not None or self.dead_ranks or self._put_watchers:
            raise BatchDecline("batch: chaos state armed")
        if self._steady_tap is not None:
            raise BatchDecline("batch: steady tap armed")
        if self.cluster.drc is not None:
            raise BatchDecline("batch: DRC credential service present")

        S = cal._TICK_SCALE
        rpc = cal.RPC_LATENCY_TICKS
        rpc2 = cal.RPC_LATENCY_2_TICKS
        op_ticks = round(transport.op_latency * S)
        use_adios = self.config.use_adios

        chains = []
        for i in range(n):
            w_region = ctx.write_regions[i]
            r_region = ctx.read_regions[i]
            w_plan = access_plan(w_region, self._partition, topo.server_actors)
            r_plan = access_plan(r_region, self._partition, topo.server_actors)
            if w_plan != [(i, w_region)] or r_plan != [(i, r_region)]:
                raise BatchDecline(
                    "batch: access plan is not the certified identity"
                )
            server = self.servers[i]
            sim_node = self.sim_endpoint(i).node
            ana_node = self.ana_endpoint(i).node
            srv_node = server.node
            if sim_node is srv_node or srv_node is ana_node:
                raise BatchDecline("batch: chain endpoints share a node")
            put_pipes, put_lat = link_path(
                self.cluster, sim_node, srv_node, transport.overhead_factor
            )
            get_pipes, get_lat = link_path(
                self.cluster, srv_node, ana_node, transport.overhead_factor
            )
            for pipe in put_pipes + get_pipes:
                if not pipe._rate_frozen:
                    raise BatchDecline(
                        f"batch: pipe {pipe.name!r} is not rate-frozen"
                    )
            total_w = var.region_bytes(w_region)
            total_r = var.region_bytes(r_region)
            wire_w = self._wire_bytes(total_w)
            wire_r = self._wire_bytes(total_r)
            serialize = self._serialize_cost(total_w)
            # Verbatim _server_work arithmetic for the one-chunk plans.
            inserts_w = topo.sim_scale * self._real_chunks / max(1, len(w_plan))
            inserts_r = topo.ana_scale * self._real_chunks / max(1, len(r_plan))
            interconnect_factor = (
                (5.5 * 2**30) / self.cluster.spec.node.injection_bw
            )
            if self.shared_nodes:
                interconnect_factor *= 0.5
            busy_w = (
                inserts_w * cal.SERVER_RPC_SECONDS * interconnect_factor
                / self.topology.server_scale
            )
            busy_r = (
                inserts_r * cal.SERVER_RPC_SECONDS * interconnect_factor
                / self.topology.server_scale
            )
            chains.append(dict(
                server=server,
                w_region=w_region, r_region=r_region,
                total_w=total_w, total_r=total_r,
                wire_w=wire_w, wire_r=wire_r,
                eff_w=wire_w * transport.overhead_factor,
                eff_r=wire_r * transport.overhead_factor,
                ser_ticks=round(serialize * S) if serialize > 0 else 0,
                busy_w_ticks=round(busy_w * S),
                busy_r_ticks=round(busy_r * S),
                put_pipes=put_pipes, put_lat=put_lat,
                get_pipes=get_pipes, get_lat=get_lat,
            ))

        # ---- phase one: the tick recurrence over shadow resources ----
        shadow = ShadowChains()
        cpus = [SerialCpu() for _ in range(n)]
        boot = ctx.boot_tick
        w_cursor = np.full(n, boot + ctx.sim_compute_ticks, dtype=np.int64)
        r_cursor = np.full(n, boot, dtype=np.int64)
        w_start = np.empty((steps, n), dtype=np.int64)  # put spawn (P0)
        w_end = np.empty((steps, n), dtype=np.int64)    # put complete
        r_start = np.empty((steps, n), dtype=np.int64)  # get spawn (G0)
        r_end = np.empty((steps, n), dtype=np.int64)    # get complete
        pub = np.empty(steps, dtype=np.int64)    # version fully published
        rdone = np.empty(steps, dtype=np.int64)  # version fully consumed

        for s in range(steps):
            for i, ch in enumerate(chains):
                t0 = int(w_cursor[i])
                w_start[s, i] = t0
                t = t0 + ch["ser_ticks"]        # ADIOS serialization copy
                t += rpc                        # the lock RPC itself
                if s > 0:                       # writer_acquire, window 1
                    prev = int(rdone[s - 1])
                    if prev > t:
                        t = prev
                if not use_adios:
                    t += rpc2                   # explicit native lock call
                t += op_ticks                   # bulk_put: op latency
                t += ch["put_lat"]              # wire latency
                for pipe in ch["put_pipes"]:
                    t = shadow.claim(pipe, ch["eff_w"], t)
                t += rpc                        # metadata RPC (folded tail)
                t = cpus[i].run(t, ch["busy_w_ticks"], f"server{i}-cpu")
                w_end[s, i] = t
                w_cursor[i] = t + ctx.sim_compute_ticks
            pub[s] = w_end[s].max()
            for i, ch in enumerate(chains):
                g0 = int(r_cursor[i])
                r_start[s, i] = g0
                t = g0 + rpc                    # the lock RPC itself
                p = int(pub[s])                 # reader_wait on the version
                if p > t:
                    t = p
                t += rpc2                       # DHT + SFC lookup
                t = cpus[i].run(t, ch["busy_r_ticks"], f"server{i}-cpu")
                t += op_ticks                   # bulk_get: op latency
                t += ch["get_lat"]
                for pipe in ch["get_pipes"]:
                    t = shadow.claim(pipe, ch["eff_r"], t)
                r_end[s, i] = t
                r_cursor[i] = t + ctx.ana_compute_ticks
            rdone[s] = r_end[s].max()

        # ---- phase two: apply claims, counters and actions ----
        shadow.apply()
        locks = self.locks
        dart = self.dart
        for s in range(steps):
            for ch in chains:
                locks.acquires += 1
                dart.bulk_ops += 1
                dart.bulk_bytes += ch["wire_w"]
                transport._account(ch["wire_w"])
            for ch in chains:
                locks.acquires += 1
                dart.bulk_ops += 1
                dart.bulk_bytes += ch["wire_r"]
                transport._account(ch["wire_r"])

        gstore = self.global_store

        def put_effects(ch, s, start_tick):
            server = ch["server"]
            region = ch["w_region"]
            total = ch["total_w"]
            start_f = start_tick * _TICK

            def fx():
                self._stage_on_server(server, region, s, total)
                gstore.put(var, s, region, None)
                self._evict_old(s)
                locks.unlock_on_write(var.name, s)
                self._record_put(total, env.now - start_f)
            return fx

        def get_effects(ch, s, start_tick):
            region = ch["r_region"]
            total = ch["total_r"]
            start_f = start_tick * _TICK

            def fx():
                gstore.assemble(var, s, region)
                locks.unlock_on_read(var.name, s)
                self._record_get(total, env.now - start_f)
            return fx

        def alloc_action(tracker, nbytes, cell):
            def fx():
                cell[0] = tracker.allocate(nbytes, "staging-lib")
            return fx

        def free_action(tracker, cell):
            def fx():
                tracker.free(cell[0])
                cell[0] = None
            return fx

        # Emission order is the same-tick cascade order of the per-rank
        # run: a step's put/get completions resume their actors in the
        # same event cascade, so all chain effects land before any
        # buffer free; frees precede the next step's allocations.
        actions = ActionBuilder()
        sim_cells = [[None] for _ in range(n)]
        ana_cells = [[None] for _ in range(n)]
        for s in range(steps):
            for i in range(n):
                if ctx.persistent_buffers[i] is None:
                    actions.add(int(w_start[s, i]), alloc_action(
                        ctx.sim_trackers[i], ctx.sim_buffer_bytes,
                        sim_cells[i],
                    ))
            for i in range(n):
                actions.add(int(r_start[s, i]), alloc_action(
                    ctx.ana_trackers[i], ctx.ana_buffer_bytes, ana_cells[i],
                ))
            for i, ch in enumerate(chains):
                actions.add(
                    int(w_end[s, i]), put_effects(ch, s, int(w_start[s, i]))
                )
            for i in range(n):
                if ctx.persistent_buffers[i] is None:
                    actions.add(int(w_end[s, i]), free_action(
                        ctx.sim_trackers[i], sim_cells[i],
                    ))
            for i, ch in enumerate(chains):
                actions.add(
                    int(r_end[s, i]), get_effects(ch, s, int(r_start[s, i]))
                )
            for i in range(n):
                actions.add(int(r_end[s, i]), free_action(
                    ctx.ana_trackers[i], ana_cells[i],
                ))

        sim_finish = int(w_end[steps - 1].max())
        ana_finish = int(r_end[steps - 1].max()) + ctx.ana_compute_ticks
        # A final no-op pins env.now to the run's true end-to-end tick.
        actions.add(max(sim_finish, ana_finish), lambda: None)
        return BatchSchedule(
            actions=actions.build(),
            sim_finish_tick=sim_finish,
            ana_finish_tick=ana_finish,
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

        # ds_lock_on_write: the lock service dispatches on lock_type
        # (type 2 = the max_versions window, per Table I).
        yield from self.locks.lock_on_write(var.name, version)
        if not self.config.use_adios:
            # The native API issues explicit lock RPCs (Table III shows
            # the extra lock/unlock calls).
            env = self.env
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
        self.locks.unlock_on_write(var.name, version)
        self._record_put(total, self.env.now - start)

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
        yield from self.locks.lock_on_read(var.name, version)

        # DHT + SFC metadata lookup to locate the target sub-regions.
        env = self.env
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
        self.locks.unlock_on_read(var.name, version)
        self._record_get(total, self.env.now - start)
        return total, data
