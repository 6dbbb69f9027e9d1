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
from ..sim.engine import _TICK
from ..transport import RdmaTransport, TcpTransport
from . import calibration as cal
from .base import StagingLibrary, SteadyPlan
from .batch import (
    ActionBuilder,
    BatchDecline,
    BatchPlan,
    BatchSchedule,
    ShadowChains,
    fifo_scan,
    link_path,
    rpc_round_trip,
)
from .dart import DartInstance
from .decomposition import (
    access_plan,
    application_decomposition,
    staging_partition,
    uniform_regions,
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

    # --------------------------------------------------- checkpoint-fork

    def _snapshot_extras(self) -> dict:
        extras = dict(
            global_store=self._snapshot_store(self.global_store),
            owners={v: list(pairs) for v, pairs in self._owners.items()},
            client_allocs=self._alloc_sizes(self._client_allocs),
        )
        if self.dart is not None:
            extras["dart"] = self.dart.snapshot()
        return extras

    def _restore_extras(self, extras: dict) -> None:
        self._restore_store(self.global_store, extras.get("global_store", {}))
        self._owners = {
            v: list(pairs) for v, pairs in extras.get("owners", {}).items()
        }
        self._client_allocs = dict(extras.get("client_allocs", {}))
        if extras.get("dart") is not None and self.dart is not None:
            self.dart.restore_state(extras["dart"])

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

    # ----------------------------------------------------- batch actors

    batch_full_group = True

    def batch_plan(self, plan, write_regions, read_regions):
        """Certify the full-group run for contended-path compilation.

        DIMES resolves owners through a shared multi-slot metadata CPU
        and pulls peer-to-peer, so the certificate proves grant *order*
        at every shared resource instead of chain disjointness: under a
        one-version window the run is strictly phased (all puts of a
        step precede its publish, all gets precede its consume), every
        arrival tick is a closed form of the previous phase ends, and
        the metadata CPU — a FIFO :class:`~repro.sim.Resource`
        (:attr:`~repro.sim.resources.Resource.FIFO_GRANT_ORDER`) with
        statically known arrivals — collapses to the capacity-k
        max-plus scan :func:`~repro.staging.batch.fifo_scan`.  The
        cases that still decline, and why:

        * socket transports — per-move connection/pool state threads
          through the run with no tick closed form;
        * a window larger than one version — phases overlap, so arrival
          order at the metadata CPU is no longer static;
        * non-uniform write or read decompositions — same-tick cohorts
          lose the symmetry that certifies their spawn-order tie-break;
        * fan-in reads (one producer pulled by several readers) — the
          producer NIC pipe's claim order becomes contention-dependent;
        * at runtime (``batch_step``): DRC credentials, chaos state,
          shared nodes, or a same-tick tie at a shared resource between
          ranks whose tick histories differ — only full-history twins
          keep the engine's spawn-order tie-break provable.
        """
        if not isinstance(self.transport, RdmaTransport):
            raise BatchDecline(
                "batch: dimes compiles RDMA chains only (socket "
                "transports carry per-move connection state)"
            )
        if self._gate_window() != 1:
            raise BatchDecline(
                f"batch: a {self._gate_window()}-version window lets "
                "phases overlap with no static order"
            )
        if plan.groups != 1:
            raise BatchDecline(
                "batch: dimes compiles the full contended group, not "
                "cluster splits"
            )
        if not (uniform_regions(write_regions) and uniform_regions(read_regions)):
            raise BatchDecline(
                "batch: non-uniform decomposition breaks the same-tick "
                "spawn-order cohorts"
            )
        pulled = [0] * len(write_regions)
        for r_region in read_regions:
            for i, w_region in enumerate(write_regions):
                if w_region.intersect(r_region) is not None:
                    pulled[i] += 1
        if any(count > 1 for count in pulled):
            raise BatchDecline(
                "batch: fan-in reads pull one producer from several "
                "readers; its NIC pipe's claim order is "
                "contention-dependent"
            )
        if self.steps < 1:
            raise BatchDecline("batch: nothing to compile")
        return BatchPlan(
            library=self.name,
            note=(
                f"{len(write_regions)}w/{len(read_regions)}r contended "
                f"group x {self.steps} steps"
            ),
        )

    def batch_step(self, bplan, ctx):
        """Compile the whole contended run into one action schedule.

        Phase one replays the put/get tick recurrences of the *full*
        group against shadow resources: per-rank NIC chains
        (:class:`~repro.staging.batch.ShadowChains`), the shared
        metadata-server NIC (an online forward/reverse merge, because
        early clients' RPC replies interleave between later clients'
        requests), and the shared metadata CPU (the
        :func:`~repro.staging.batch.fifo_scan` max-plus scan).  Any
        ordering the certificate cannot prove raises
        :class:`~repro.staging.batch.BatchDecline` onto pristine state.
        Phase two (which cannot fail) claims the frozen pipes, replays
        the float accumulators in the per-rank run's global
        accumulation order and emits the side-effect actions.
        """
        env = self.env
        var = self.variable
        topo = self.topology
        transport = self.transport
        cluster = self.cluster
        n = ctx.sim_count
        m = ctx.ana_count
        steps = ctx.steps

        # ---- runtime certificate checks (still mutation-free) ----
        gate = self.gate
        if gate is None or gate.window != 1:
            raise BatchDecline("batch: gate window changed at runtime")
        if gate.num_writers != n or gate.num_readers != m:
            raise BatchDecline("batch: gate group counts drifted")
        if self.recovery is not None or self.dead_ranks or self._put_watchers:
            raise BatchDecline("batch: chaos state armed")
        if self._steady_tap is not None:
            raise BatchDecline("batch: steady tap armed")
        if cluster.drc is not None:
            raise BatchDecline("batch: DRC credential service present")
        if self._owners or self._client_allocs:
            raise BatchDecline("batch: staged state predates the run")
        if not self.servers:
            raise BatchDecline("batch: no metadata servers")
        if self.shared_nodes:
            raise BatchDecline("batch: shared nodes multiplex NIC pipes")
        if not Resource.FIFO_GRANT_ORDER:
            raise BatchDecline("batch: resource grant order is not FIFO")

        sim_eps = [self.sim_endpoint(i) for i in range(n)]
        ana_eps = [self.ana_endpoint(j) for j in range(m)]
        srv_nodes = [server.node for server in self.servers]
        all_nodes = [ep.node for ep in sim_eps] + [ep.node for ep in ana_eps]
        all_nodes += srv_nodes
        if len({id(node) for node in all_nodes}) != len(all_nodes):
            raise BatchDecline("batch: actors share a node's NIC pipe")

        S = cal._TICK_SCALE
        op_ticks = round(transport.op_latency * S)
        if op_ticks <= 0:
            raise BatchDecline("batch: zero op latency collapses phases")
        oh = transport.overhead_factor
        eff_ctl = DartInstance.CONTROL_BYTES * oh
        maxv = max(1, self.config.max_versions)
        nsrv = len(self.servers)
        cap = max(1, nsrv)

        # Shared-pipe geometry, per client: clients of one metadata
        # server sit at different torus distances, so their wire
        # latencies (hop-scaled) differ and nothing keeps contended
        # arrivals symmetric.  Every latency is kept per client; order
        # at each shared resource is then resolved chronologically,
        # with same-tick ties certified through the full-history twin
        # classes maintained below.
        def _paths(eps):
            fwd_tbl = []
            rev_tbl = []
            for srv_node in srv_nodes:
                fwd = np.empty(len(eps), dtype=np.int64)
                rev = np.empty(len(eps), dtype=np.int64)
                for k, ep in enumerate(eps):
                    fpipes, flat = link_path(cluster, ep.node, srv_node, oh)
                    rpipes, rlat = link_path(cluster, srv_node, ep.node, oh)
                    if len(fpipes) != 2 or len(rpipes) != 2:
                        raise BatchDecline(
                            "batch: client and metadata server share a node"
                        )
                    fwd[k] = flat
                    rev[k] = rlat
                fwd_tbl.append(fwd)
                rev_tbl.append(rev)
            return fwd_tbl, rev_tbl

        sim_fwd_lat, sim_rev_lat = _paths(sim_eps)
        ana_fwd_lat, ana_rev_lat = _paths(ana_eps)
        sim_pipes = [ep.node.nic for ep in sim_eps]
        ana_pipes = [ep.node.nic for ep in ana_eps]
        srv_pipes = [node.nic for node in srv_nodes]
        for pipe in sim_pipes + ana_pipes + srv_pipes:
            if not pipe._rate_frozen:
                raise BatchDecline(
                    f"batch: pipe {pipe.name!r} is not rate-frozen"
                )
            if round(eff_ctl / pipe.rate * S) <= 0:
                raise BatchDecline(
                    f"batch: pipe {pipe.name!r} holds control messages "
                    "for zero ticks; crossings would collide"
                )

        # Ownership is static (uniform regions every step): reader j
        # pulls each overlapping producer in owner-insertion order,
        # which the put actions keep as spawn order.
        pulls = []
        for j in range(m):
            r_region = ctx.read_regions[j]
            mine = []
            for i in range(n):
                overlap = ctx.write_regions[i].intersect(r_region)
                if overlap is None:
                    continue
                wire = self._wire_bytes(var.region_bytes(overlap))
                p_pipes, p_lat = link_path(
                    cluster, sim_eps[i].node, ana_eps[j].node, oh
                )
                if len(p_pipes) != 2:
                    raise BatchDecline(
                        "batch: producer and reader share a node"
                    )
                mine.append((i, wire, p_lat))
            pulls.append(mine)

        total_w = var.region_bytes(ctx.write_regions[0]) if n else 0.0
        total_r = var.region_bytes(ctx.read_regions[0]) if m else 0.0
        serialize = self._serialize_cost(total_w)
        ser_ticks = round(serialize * S) if serialize > 0 else 0
        busy_w = (
            topo.sim_scale * cal.DIMES_META_RPC_SECONDS
            / max(1.0, topo.server_scale)
        )
        busy_r = (
            topo.ana_scale * cal.DIMES_META_RPC_SECONDS
            / max(1.0, topo.server_scale)
        )
        busy_w_ticks = round(busy_w * S)
        busy_r_ticks = round(busy_r * S)

        # ---- phase one: the tick recurrence over shadow resources ----
        shadow = ShadowChains()
        boot = ctx.boot_tick
        w_cursor = np.full(n, boot + ctx.sim_compute_ticks, dtype=np.int64)
        r_cursor = np.full(m, boot, dtype=np.int64)
        w_start = np.empty((steps, n), dtype=np.int64)  # put spawn (P0)
        w_gate = np.empty((steps, n), dtype=np.int64)   # writer_acquire done
        w_end = np.empty((steps, n), dtype=np.int64)    # put complete
        r_start = np.empty((steps, m), dtype=np.int64)  # get spawn (G0)
        r_end = np.empty((steps, m), dtype=np.int64)    # get complete
        pub = np.empty(steps, dtype=np.int64)
        rdone = np.empty(steps, dtype=np.int64)
        #: float-accumulator replay events, (tick, nbytes)
        account_events: list = []
        bulk_events: list = []

        # Full-history twin classes.  Two ranks may tie at a shared
        # resource only when *every* tick of their engine histories so
        # far coincides: then each earlier calendar bucket held their
        # events in spawn order (induction from the symmetric spawn),
        # so the engine breaks the tie in spawn order — exactly what a
        # stable argsort preserves.  Class ids advance through a memo,
        # so equal histories share one id without hashing tick vectors.
        hist_memo: dict = {}

        def _adv1(hid, tick):
            key = (hid, int(tick))
            nid = hist_memo.get(key)
            if nid is None:
                nid = len(hist_memo)
                hist_memo[key] = nid
            return nid

        def _advance(hist, ticks):
            for k in range(len(hist)):
                hist[k] = _adv1(hist[k], ticks[k])

        hist_w = [-1] * n
        hist_r = [-2] * m
        #: engine order within one twin class: spawn index until a gate
        #: wake reorders the class by park position
        w_korder = np.arange(max(n, 1), dtype=np.int64)[:n]
        r_korder = np.arange(max(m, 1), dtype=np.int64)[:m]
        fresh_ids = iter(range(-3, -(3 + 4 * (n + m + 1) * steps), -1))

        def _chrono(arrivals, hist, korder, what, step):
            """Chronological service order with certified ties.

            Sorting by ``(tick, korder)`` is the engine's calendar
            order for distinct ticks; a same-tick pair is certified
            only between full-history twins, whose events the engine
            provably holds in ``korder`` order.  Any other tie
            declines.
            """
            order = np.lexsort((korder, arrivals))
            for a, b in zip(order, order[1:]):
                if arrivals[a] == arrivals[b] and hist[a] != hist[b]:
                    raise BatchDecline(
                        f"batch: {what} arrivals tie at step {step} "
                        "between ranks with different histories; grant "
                        "order would depend on process history"
                    )
            return order, arrivals[order]

        def _gate_merge(t_pre, clamp, hist, korder, what, step):
            """Fold a gate wake into the twin classes.

            Ranks arriving strictly before the publish/consume tick
            park and are woken together, in park order — from the wake
            on they are one twin class whose engine order is the park
            position.  Park order itself is chronological arrival with
            same-class ties in ``korder`` order; a park-tick tie across
            classes declines.  A rank arriving *exactly* at the clamp
            tick races the wake event inside one calendar bucket (it
            may park behind the cohort or slip past it), so it is
            quarantined into a singleton class: every later tie against
            it declines.
            """
            parked = [k for k in range(len(hist)) if t_pre[k] < clamp]
            for k in range(len(hist)):
                if t_pre[k] == clamp:
                    hist[k] = next(fresh_ids)
            if len(parked) < 2:
                return
            parked.sort(key=lambda k: (int(t_pre[k]), int(korder[k])))
            for a, b in zip(parked, parked[1:]):
                if t_pre[a] == t_pre[b] and hist[a] != hist[b]:
                    raise BatchDecline(
                        f"batch: {what} park order at step {step} ties "
                        "between ranks with different histories"
                    )
            nid = next(fresh_ids)
            for pos, k in enumerate(parked):
                hist[k] = nid
                korder[k] = pos

        worders = []
        rorders = []
        for s in range(steps):
            srv_id = self._meta_server_of(s)
            srv_pipe = srv_pipes[srv_id]
            w_lat = sim_fwd_lat[srv_id]
            w_rev_lat = sim_rev_lat[srv_id]

            t0 = w_cursor.copy()
            w_start[s] = t0
            t = t0 + ser_ticks
            # Serialize-pause end doubles as the park tick under the
            # window-1 writer gate.
            _advance(hist_w, t)
            if s > 0:
                _gate_merge(
                    t, int(rdone[s - 1]), hist_w, w_korder,
                    "writer gate", s,
                )
                t = np.maximum(t, rdone[s - 1])
            w_gate[s] = t
            _advance(hist_w, t)

            a_fwd = t + op_ticks + w_lat
            _advance(hist_w, a_fwd)
            src_end = np.empty(n, dtype=np.int64)
            for i in range(n):
                src_end[i] = shadow.claim(
                    sim_pipes[i], eff_ctl, int(a_fwd[i])
                )
            _advance(hist_w, src_end)
            d_end, rev_src = rpc_round_trip(
                shadow, srv_pipe, eff_ctl, src_end,
                op_ticks + w_rev_lat, ("put", s), name="dimes put rpc",
                cohort_ids=hist_w, order_keys=w_korder,
            )
            _advance(hist_w, d_end)
            _advance(hist_w, rev_src)
            meta_arrival = np.empty(n, dtype=np.int64)
            for i in range(n):
                meta_arrival[i] = shadow.claim(
                    sim_pipes[i], eff_ctl, int(rev_src[i])
                )
                account_events.append((int(d_end[i]), DartInstance.CONTROL_BYTES))
                account_events.append(
                    (int(meta_arrival[i]), DartInstance.CONTROL_BYTES)
                )
            _advance(hist_w, meta_arrival)
            worder, w_sorted = _chrono(
                meta_arrival, hist_w, w_korder, "put metadata", s
            )
            w_end[s][worder] = fifo_scan(
                w_sorted, busy_w_ticks, cap, name="dimes meta cpu"
            )
            _advance(hist_w, w_end[s])
            worders.append(worder)
            w_cursor = w_end[s] + ctx.sim_compute_ticks
            pub[s] = w_end[s].max()

            g0 = r_cursor.copy()
            r_start[s] = g0
            _advance(hist_r, g0)
            _gate_merge(g0, int(pub[s]), hist_r, r_korder, "reader gate", s)
            t = np.maximum(g0, pub[s])
            _advance(hist_r, t)
            g_lat = ana_fwd_lat[srv_id]
            g_rev_lat = ana_rev_lat[srv_id]
            a_fwd = t + op_ticks + g_lat
            _advance(hist_r, a_fwd)
            src_end = np.empty(m, dtype=np.int64)
            for j in range(m):
                src_end[j] = shadow.claim(
                    ana_pipes[j], eff_ctl, int(a_fwd[j])
                )
            _advance(hist_r, src_end)
            d_end, rev_src = rpc_round_trip(
                shadow, srv_pipe, eff_ctl, src_end,
                op_ticks + g_rev_lat, ("get", s), name="dimes get rpc",
                cohort_ids=hist_r, order_keys=r_korder,
            )
            _advance(hist_r, d_end)
            _advance(hist_r, rev_src)
            meta_arrival = np.empty(m, dtype=np.int64)
            for j in range(m):
                meta_arrival[j] = shadow.claim(
                    ana_pipes[j], eff_ctl, int(rev_src[j])
                )
                account_events.append((int(d_end[j]), DartInstance.CONTROL_BYTES))
                account_events.append(
                    (int(meta_arrival[j]), DartInstance.CONTROL_BYTES)
                )
            _advance(hist_r, meta_arrival)
            rorder_meta, r_sorted = _chrono(
                meta_arrival, hist_r, r_korder, "get metadata", s
            )
            meta_end = np.empty(m, dtype=np.int64)
            meta_end[rorder_meta] = fifo_scan(
                r_sorted, busy_r_ticks, cap, name="dimes meta cpu"
            )
            _advance(hist_r, meta_end)
            # The engine's pull loop follows self._owners[s], which the
            # put actions fill in metadata-grant (chronological) order
            # — so each reader's pulls are replayed in that order too.
            rank_of = np.empty(n, dtype=np.int64)
            rank_of[worder] = np.arange(n, dtype=np.int64)
            for j in range(m):
                cur = int(meta_end[j])
                mine = sorted(pulls[j], key=lambda rec: rank_of[rec[0]])
                for i, wire, p_lat in mine:
                    arrival = cur + op_ticks + p_lat
                    s_end = shadow.claim(sim_pipes[i], wire * oh, arrival)
                    hist_r[j] = _adv1(hist_r[j], s_end)
                    cur = shadow.claim(ana_pipes[j], wire * oh, s_end)
                    hist_r[j] = _adv1(hist_r[j], cur)
                    account_events.append((cur, wire))
                    bulk_events.append((cur, wire))
                r_end[s, j] = cur
            rorder, _ = _chrono(r_end[s], hist_r, r_korder, "get completion", s)
            rorders.append(rorder)
            r_cursor = r_end[s] + ctx.ana_compute_ticks
            rdone[s] = r_end[s].max()

        # Float accumulators are order-sensitive: replay them in global
        # chronological order, declining any same-tick collision whose
        # operands differ (equal operands commute bitwise).
        account_events.sort(key=lambda ev: ev[0])
        bulk_events.sort(key=lambda ev: ev[0])
        for events, what in (
            (account_events, "transport stats"),
            (bulk_events, "bulk-byte stats"),
        ):
            for prev, nxt in zip(events, events[1:]):
                if prev[0] == nxt[0] and prev[1] != nxt[1]:
                    raise BatchDecline(
                        f"batch: {what} collide at tick {prev[0]} with "
                        "different operands; accumulation order is "
                        "ambiguous"
                    )

        # ---- phase two: apply claims, counters and actions ----
        shadow.apply()
        dart = self.dart
        for _tick, nbytes in account_events:
            transport._account(nbytes)
        for _tick, wire in bulk_events:
            dart.bulk_bytes += wire
        dart.bulk_ops += len(bulk_events)
        dart.rpcs += (n + m) * steps

        gstore = self.global_store

        def stage_alloc(i, s):
            tracker = ctx.sim_trackers[i]
            nbytes = total_w / topo.sim_scale

            def fx():
                staged = tracker.allocate(nbytes, "staged-local")
                old = self._client_allocs.pop((i, s - maxv), None)
                if old is not None:
                    tracker.free(old)
                self._client_allocs[(i, s)] = staged
            return fx

        def put_effects(i, s, start_tick):
            region = ctx.write_regions[i]
            start_f = start_tick * _TICK

            def fx():
                self._owners.setdefault(s, []).append((i, region))
                gstore.put(var, s, region, None)
                old_version = s - maxv
                if old_version >= 0:
                    self._owners.pop(old_version, None)
                    gstore.evict(var, old_version)
                gate.publish(s)
                self._record_put(total_w, env.now - start_f)
            return fx

        def get_effects(j, s, start_tick):
            region = ctx.read_regions[j]
            start_f = start_tick * _TICK

            def fx():
                gstore.assemble(var, s, region)
                gate.reader_done(s)
                self._record_get(total_r, env.now - start_f)
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
        # run: the last reader_done wakes the parked writers (their
        # staging allocations) before any same-tick buffer frees; chain
        # effects land before frees, frees before the next step's
        # allocations.  Same-tick collisions across actors touch
        # disjoint trackers.
        actions = ActionBuilder()
        sim_cells = [[None] for _ in range(n)]
        ana_cells = [[None] for _ in range(m)]
        for s in range(steps):
            for i in range(n):
                if ctx.persistent_buffers[i] is None:
                    actions.add(int(w_start[s, i]), alloc_action(
                        ctx.sim_trackers[i], ctx.sim_buffer_bytes,
                        sim_cells[i],
                    ))
            for j in range(m):
                actions.add(int(r_start[s, j]), alloc_action(
                    ctx.ana_trackers[j], ctx.ana_buffer_bytes, ana_cells[j],
                ))
            for i in range(n):
                actions.add(int(w_gate[s, i]), stage_alloc(i, s))
            # Same-tick put completions run in metadata-grant order in
            # the engine (the FIFO queue wakes them in request order),
            # so the shared-state effects — owner lists, store
            # fragments, float stat accumulators — must be emitted in
            # that order, not rank order.  Get completions likewise
            # follow their certified chronological order.
            for i in worders[s]:
                actions.add(
                    int(w_end[s, i]), put_effects(i, s, int(w_start[s, i]))
                )
            for i in worders[s]:
                if ctx.persistent_buffers[i] is None:
                    actions.add(int(w_end[s, i]), free_action(
                        ctx.sim_trackers[i], sim_cells[i],
                    ))
            for j in rorders[s]:
                actions.add(
                    int(r_end[s, j]), get_effects(j, s, int(r_start[s, j]))
                )
            for j in rorders[s]:
                actions.add(int(r_end[s, j]), free_action(
                    ctx.ana_trackers[j], ana_cells[j],
                ))

        sim_finish = int(w_end[steps - 1].max())
        ana_finish = int(r_end[steps - 1].max()) + ctx.ana_compute_ticks
        actions.add(max(sim_finish, ana_finish), lambda: None)
        return BatchSchedule(
            actions=actions.build(),
            sim_finish_tick=sim_finish,
            ana_finish_tick=ana_finish,
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
