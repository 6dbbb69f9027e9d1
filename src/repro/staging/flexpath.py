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
from ..sim.engine import _TICK
from ..transport import RdmaTransport
from . import calibration as cal
from .base import StagingLibrary, SteadyPlan
from .batch import (
    ActionBuilder,
    BatchDecline,
    BatchPlan,
    BatchSchedule,
    ShadowChains,
    link_path,
)
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

    # --------------------------------------------------- checkpoint-fork

    def _snapshot_extras(self) -> dict:
        return dict(
            global_store=self._snapshot_store(self.global_store),
            published={v: list(p) for v, p in self._published.items()},
            queue_allocs=self._alloc_sizes(self._queue_allocs),
            lost_versions=sorted(self._lost_versions),
            notifications_delivered=self.notifications_delivered,
        )

    def _restore_extras(self, extras: dict) -> None:
        self._restore_store(self.global_store, extras.get("global_store", {}))
        self._published = {
            v: list(p) for v, p in extras.get("published", {}).items()
        }
        self._queue_allocs = dict(extras.get("queue_allocs", {}))
        self._lost_versions = set(extras.get("lost_versions", ()))
        self.notifications_delivered = extras.get("notifications_delivered", 0)

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

    # ----------------------------------------------------- batch actors

    batch_full_group = True

    def batch_plan(self, plan, write_regions, read_regions):
        """Certify a point-to-point subscription graph for compilation.

        FlexPath's stone graph is complete bipartite by construction —
        every publisher stone bridges to every subscriber sink — so any
        topology wider than one writer-reader pair fans notifications
        into shared sink stone queues whose delivery (and therefore
        reader-wake) order races other publishers: those keep the
        honest decline below.  The 1:1 group *is* a static partition
        (one source stone, one sink, one edge), and under the one-slot
        publisher queue the whole run is strictly phased — serialize,
        notify, publish, pull, consume — so every tick is a closed
        form and the NIC pipes collapse to arithmetic FIFO chains.
        The cases that still decline, and why:

        * socket transports — per-move connection/pool state threads
          through the run with no tick closed form (and the EVPath
          portability layer adds portmapper handshakes);
        * a publisher queue deeper than one slot — versions overlap,
          so notification and pull order is no longer static;
        * fan-out/fan-in subscription graphs — notification delivery
          order at a shared sink stone is contention-dependent;
        * at runtime (``batch_step``): DRC credentials, chaos state,
          shared nodes, or a stone graph that drifted from the
          point-to-point partition the certificate proved.
        """
        if not isinstance(self.transport, RdmaTransport):
            raise BatchDecline(
                "batch: flexpath compiles RDMA (NNTI) chains only "
                "(socket transports carry per-move connection state)"
            )
        if not (plan.sim_reps == 1 and plan.ana_reps == 1
                and plan.groups == 1):
            raise BatchDecline(
                "batch: flexpath notifications fan out through shared "
                "EVPath sink stones; only a 1:1 point-to-point "
                "subscription partition has a provable delivery order"
            )
        if self._gate_window() != 1:
            raise BatchDecline(
                f"batch: a {self._gate_window()}-slot publisher queue "
                "lets versions overlap with no static order"
            )
        if self.steps < 1:
            raise BatchDecline("batch: nothing to compile")
        return BatchPlan(
            library=self.name,
            note=f"1:1 stone pipeline x {self.steps} steps",
        )

    def batch_step(self, bplan, ctx):
        """Compile the point-to-point pipeline into an action schedule.

        Phase one replays the put/get tick recurrences against shadow
        NIC chains (:class:`~repro.staging.batch.ShadowChains`): the
        notification move and the data pull cross the same
        writer-to-reader pipes, strictly interleaved by the one-slot
        queue, so claim order is program order.  Anything the
        certificate cannot prove raises
        :class:`~repro.staging.batch.BatchDecline` onto pristine
        state; phase two claims the frozen pipes, replays the float
        accumulators chronologically and emits the side effects.
        """
        env = self.env
        var = self.variable
        topo = self.topology
        transport = self.transport
        cluster = self.cluster
        steps = ctx.steps

        # ---- runtime certificate checks (still mutation-free) ----
        if ctx.sim_count != 1 or ctx.ana_count != 1:
            raise BatchDecline("batch: group is not a 1:1 pair at runtime")
        gate = self.gate
        if gate is None or gate.window != 1:
            raise BatchDecline("batch: gate window changed at runtime")
        if gate.num_writers != 1 or gate.num_readers != 1:
            raise BatchDecline("batch: gate group counts drifted")
        if self.recovery is not None or self.dead_ranks or self._put_watchers:
            raise BatchDecline("batch: chaos state armed")
        if self._steady_tap is not None:
            raise BatchDecline("batch: steady tap armed")
        if cluster.drc is not None:
            raise BatchDecline("batch: DRC credential service present")
        if self._published or self._queue_allocs or self._lost_versions:
            raise BatchDecline("batch: staged state predates the run")
        if self.shared_nodes:
            raise BatchDecline("batch: shared nodes multiplex NIC pipes")
        if self.evpath is None:
            raise BatchDecline("batch: EVPath stone graph is not wired")
        pub_stone = self._pub_stones.get(0)
        if pub_stone is None or len(pub_stone._targets) != 1:
            raise BatchDecline(
                "batch: subscription graph is not a point-to-point "
                "partition"
            )
        sink = pub_stone._targets[0]
        if sink._handler is None or sink._targets:
            raise BatchDecline("batch: sink stone is not terminal")

        sim_ep = self.sim_endpoint(0)
        ana_ep = self.ana_endpoint(0)
        if (pub_stone.endpoint.node is not sim_ep.node
                or sink.endpoint.node is not ana_ep.node):
            raise BatchDecline("batch: stone endpoints drifted from actors")

        S = cal._TICK_SCALE
        op_ticks = round(transport.op_latency * S)
        if op_ticks <= 0:
            raise BatchDecline("batch: zero op latency collapses phases")
        oh = transport.overhead_factor
        window = max(1, self.config.queue_size)

        pipes, lat_ticks = link_path(cluster, sim_ep.node, ana_ep.node, oh)
        if len(pipes) != 2:
            raise BatchDecline("batch: writer and reader share a node")
        for pipe in pipes:
            if not pipe._rate_frozen:
                raise BatchDecline(
                    f"batch: pipe {pipe.name!r} is not rate-frozen"
                )

        w_region = ctx.write_regions[0]
        r_region = ctx.read_regions[0]
        total_w = var.region_bytes(w_region)
        total_r = var.region_bytes(r_region)
        ser_ticks = round(total_w / topo.sim_scale / cal.SERIALIZE_BW * S)
        # The notification is a fixed-size control event (the
        # ``nbytes=256`` literal in :meth:`put`'s submit).
        notify_bytes = 256.0
        overlap = w_region.intersect(r_region)
        wire = (
            self._wire_bytes(var.region_bytes(overlap))
            if overlap is not None else 0.0
        )

        # ---- phase one: the tick recurrence over shadow pipes ----
        shadow = ShadowChains()
        boot = ctx.boot_tick
        w_cursor = boot + ctx.sim_compute_ticks
        r_cursor = boot
        w_start = np.empty(steps, dtype=np.int64)   # put spawn ticks
        w_gate = np.empty(steps, dtype=np.int64)    # writer_acquire done
        w_end = np.empty(steps, dtype=np.int64)     # publish instants
        r_start = np.empty(steps, dtype=np.int64)   # get spawn ticks
        r_end = np.empty(steps, dtype=np.int64)     # consume instants
        #: float-accumulator replay events, (tick, nbytes)
        account_events: list = []

        for s in range(steps):
            t0 = w_cursor
            w_start[s] = t0
            t = t0 + ser_ticks                  # FFS serialization
            if s > 0 and int(r_end[s - 1]) > t:
                t = int(r_end[s - 1])           # writer_acquire, 1 slot
            w_gate[s] = t
            # Notification: op latency, wire latency, then the source
            # and sink NIC pipes in order (mirrors RdmaTransport.move).
            a = t + op_ticks + lat_ticks
            s_end = shadow.claim(pipes[0], notify_bytes * oh, a)
            t = shadow.claim(pipes[1], notify_bytes * oh, s_end)
            account_events.append((int(t), notify_bytes))
            w_end[s] = t
            w_cursor = t + ctx.sim_compute_ticks

            g0 = r_cursor
            r_start[s] = g0
            t = g0
            p = int(w_end[s])                   # reader_wait on publish
            if p > t:
                t = p
            if overlap is not None:
                a = t + op_ticks + lat_ticks    # peer-to-peer pull
                s_end = shadow.claim(pipes[0], wire * oh, a)
                t = shadow.claim(pipes[1], wire * oh, s_end)
                account_events.append((int(t), wire))
            r_end[s] = t
            r_cursor = t + ctx.ana_compute_ticks

        # Float accumulators are order-sensitive: replay them in global
        # chronological order, declining any same-tick collision whose
        # operands differ (equal operands commute bitwise).
        account_events.sort(key=lambda ev: ev[0])
        for prev, nxt in zip(account_events, account_events[1:]):
            if prev[0] == nxt[0] and prev[1] != nxt[1]:
                raise BatchDecline(
                    f"batch: transport stats collide at tick {prev[0]} "
                    "with different operands; accumulation order is "
                    "ambiguous"
                )

        # ---- phase two: apply claims, counters and actions ----
        shadow.apply()
        for _tick, nbytes in account_events:
            transport._account(nbytes)

        gstore = self.global_store
        tracker = self._writer_tracker(0)
        event = {"var": var.name, "version": None}

        def queue_effects(s):
            def fx():
                # Everything :meth:`put` does between the gate grant
                # and the notification move, in its statement order.
                alloc = tracker.allocate(
                    total_w / topo.sim_scale, "pub-queue"
                )
                old = self._queue_allocs.pop((0, s - window), None)
                if old is not None:
                    tracker.free(old)
                self._queue_allocs[(0, s)] = alloc
                self._published.setdefault(s, []).append((0, w_region))
                gstore.put(var, s, w_region, None)
                old_version = s - window
                if old_version >= 0:
                    self._published.pop(old_version, None)
                    gstore.evict(var, old_version)
                pub_stone.events_in += 1        # submit enters the graph
            return fx

        def notify_effects(s, start_tick):
            start_f = start_tick * _TICK

            def fx():
                sink.events_in += 1
                sink._handler(dict(event, version=s))
                gate.publish(s)
                self._record_put(total_w, env.now - start_f)
            return fx

        def get_effects(s, start_tick):
            start_f = start_tick * _TICK

            def fx():
                gstore.assemble(var, s, r_region)
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

        actions = ActionBuilder()
        sim_cell = [None]
        ana_cell = [None]
        for s in range(steps):
            if ctx.persistent_buffers[0] is None:
                actions.add(int(w_start[s]), alloc_action(
                    ctx.sim_trackers[0], ctx.sim_buffer_bytes, sim_cell,
                ))
            actions.add(int(r_start[s]), alloc_action(
                ctx.ana_trackers[0], ctx.ana_buffer_bytes, ana_cell,
            ))
            actions.add(int(w_gate[s]), queue_effects(s))
            actions.add(int(w_end[s]), notify_effects(s, int(w_start[s])))
            if ctx.persistent_buffers[0] is None:
                actions.add(int(w_end[s]), free_action(
                    ctx.sim_trackers[0], sim_cell,
                ))
            actions.add(int(r_end[s]), get_effects(s, int(r_start[s])))
            actions.add(int(r_end[s]), free_action(
                ctx.ana_trackers[0], ana_cell,
            ))

        sim_finish = int(w_end[steps - 1])
        ana_finish = int(r_end[steps - 1]) + ctx.ana_compute_ticks
        # A final no-op pins env.now to the run's true end-to-end tick.
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
