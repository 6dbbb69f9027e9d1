"""Decaf: decoupled dataflows over MPI.

"Decaf is a dataflow system that depicts a dataflow graph, where an
edge denotes the direction of dataflow and a node represents where data
resides ... the communication layer of Decaf is entirely based upon
message passing over MPI" (Section II-A).

Reproduced behaviours:

* a workflow is a graph (:class:`DecafGraph`) built with the simple
  Python-style API the paper cites — ``add_node``/``add_edge``/
  ``process_graph`` — wrapped into one MPI world;
* the dataflow ("dflow") ranks between producer and consumer are the
  staging servers; the paper sizes them as one per analytics processor;
* data put through an edge is transformed into Decaf's rich (Bredala)
  data model: flattening and buffering make the producer spend ~40 %
  more memory (Figure 5d) and the dflow ranks hold **7x the raw bytes**
  (Figure 7, Table IV);
* redistribution policy ``count`` splits by element count
  (``prod_dflow_redist='count'``, Table I);
* everything travels over MPI messaging — portable, no RDMA
  registrations, credentials or extra sockets (Table V: the resource
  findings do not apply to Decaf, but the OOM finding 8 does);
* node sharing with an MPMD-wrapped workflow needs heterogeneous launch
  support, which Cori lacks (Finding 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..hpc.failures import OutOfMemory, SchedulerPolicyViolation
from ..hpc.units import fmt_bytes
from ..sim.engine import _TICK
from . import calibration as cal
from .base import ClusterPlan, StagingConfig, StagingLibrary, SteadyPlan
from .batch import (
    ActionBuilder,
    BatchDecline,
    BatchPlan,
    BatchSchedule,
    ShadowChains,
    link_path,
)
from .decomposition import uniform_regions
from .ndarray import Region
from .store import FragmentStore


@dataclass(frozen=True)
class DecafNode:
    """A vertex of the dataflow graph."""

    name: str
    nprocs: int
    role: str  # "producer" | "dflow" | "consumer"


@dataclass(frozen=True)
class DecafEdge:
    """A directed dataflow edge with a redistribution policy."""

    src: str
    dst: str
    redistribution: str = "count"


class DecafGraph:
    """The Python workflow-graph API Decaf exposes to scientists."""

    VALID_ROLES = ("producer", "dflow", "consumer")
    VALID_REDIST = ("count", "round", "proc")

    def __init__(self) -> None:
        self._nodes: Dict[str, DecafNode] = {}
        self._edges: List[DecafEdge] = []

    def add_node(self, name: str, nprocs: int, role: str) -> DecafNode:
        if name in self._nodes:
            raise ValueError(f"duplicate node {name!r}")
        if role not in self.VALID_ROLES:
            raise ValueError(f"invalid role {role!r}; one of {self.VALID_ROLES}")
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        node = DecafNode(name, nprocs, role)
        self._nodes[name] = node
        return node

    def add_edge(self, src: str, dst: str, redistribution: str = "count") -> DecafEdge:
        for name in (src, dst):
            if name not in self._nodes:
                raise ValueError(f"unknown node {name!r}")
        if redistribution not in self.VALID_REDIST:
            raise ValueError(f"invalid redistribution {redistribution!r}")
        edge = DecafEdge(src, dst, redistribution)
        self._edges.append(edge)
        return edge

    @property
    def nodes(self) -> Dict[str, DecafNode]:
        return dict(self._nodes)

    @property
    def edges(self) -> List[DecafEdge]:
        return list(self._edges)

    def validate(self) -> None:
        """Check the graph is a runnable producer -> dflow -> consumer flow."""
        roles = {}
        for node in self._nodes.values():
            roles.setdefault(node.role, []).append(node)
        for role in self.VALID_ROLES:
            if role not in roles:
                raise ValueError(f"graph is missing a {role} node")
        reachable = {e.src: set() for e in self._edges}
        for edge in self._edges:
            reachable[edge.src].add(edge.dst)
        producer = roles["producer"][0].name
        dflow = roles["dflow"][0].name
        consumer = roles["consumer"][0].name
        if dflow not in reachable.get(producer, set()):
            raise ValueError("no edge from producer to dflow")
        if consumer not in reachable.get(dflow, set()):
            raise ValueError("no edge from dflow to consumer")

    def total_procs(self) -> int:
        return sum(node.nprocs for node in self._nodes.values())


def count_redistribution(
    src_index: int, num_src: int, num_dst: int
) -> List[Tuple[int, float]]:
    """The ``count`` policy: split by element count.

    Source rank ``src_index`` owns the fraction
    ``[src_index/num_src, (src_index+1)/num_src)`` of the elements;
    returns ``(dst_rank, fraction_of_src_data)`` pairs describing where
    those elements land when the destination splits evenly too.
    """
    if not 0 <= src_index < num_src:
        raise ValueError(f"src_index {src_index} out of range")
    lo = src_index / num_src
    hi = (src_index + 1) / num_src
    out: List[Tuple[int, float]] = []
    for dst in range(num_dst):
        dlo = dst / num_dst
        dhi = (dst + 1) / num_dst
        overlap = min(hi, dhi) - max(lo, dlo)
        if overlap > 1e-15:
            out.append((dst, overlap / (hi - lo)))
    return out


class Decaf(StagingLibrary):
    """The Decaf dataflow system as one of the studied staging methods."""

    name = "decaf"
    has_servers = True

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("config", StagingConfig(transport="mpi"))
        super().__init__(*args, **kwargs)
        if self.config.transport != "mpi":
            raise ValueError("Decaf communicates over MPI only")
        self.global_store = FragmentStore()
        self.graph = DecafGraph()
        self.graph.add_node("simulation", self.topology.nsim, "producer")
        self.graph.add_node("dflow", max(1, self.topology.nservers), "dflow")
        self.graph.add_node("analytics", self.topology.nana, "consumer")
        self.graph.add_edge("simulation", "dflow", "count")
        self.graph.add_edge("dflow", "analytics", "count")
        self._staged_allocs: Dict[Tuple[int, int], List[object]] = {}
        #: chaos: first version the termination token cancelled
        self._terminated_version: Optional[int] = None

    #: "Decaf needs 40% more memory due to ... flattening and buffering"
    client_buffer_mult: float = cal.DECAF_CLIENT_BUFFER_MULT
    #: the flattened Bredala copy stays resident between steps
    client_buffer_persistent: bool = True

    @staticmethod
    def default_server_count(nana: int) -> int:
        """Paper sizing: "the number of Decaf servers is set to the
        number of analytics processors used"."""
        return max(1, nana)

    # --------------------------------------------------- checkpoint-fork

    def _snapshot_extras(self) -> dict:
        return dict(
            global_store=self._snapshot_store(self.global_store),
            staged_allocs=self._alloc_sizes(self._staged_allocs),
            terminated_version=self._terminated_version,
        )

    def _restore_extras(self, extras: dict) -> None:
        self._restore_store(self.global_store, extras.get("global_store", {}))
        self._staged_allocs = {
            key: list(sizes)
            for key, sizes in extras.get("staged_allocs", {}).items()
        }
        self._terminated_version = extras.get("terminated_version")

    # ---------------------------------------------------------- lifecycle

    def bootstrap(self) -> Generator:
        if self.variable is None:
            raise ValueError("Decaf requires the variable at bootstrap")
        self.graph.validate()
        if self.shared_nodes and not self.cluster.spec.supports_heterogeneous_launch:
            raise SchedulerPolicyViolation(
                f"{self.cluster.spec.name} does not support heterogeneous "
                f"(MPMD-wrapped) launches; Decaf cannot allocate resources "
                f"to the MPI-wrapped workflow in shared mode"
            )
        yield from super().bootstrap()

    def validate_at_scale(self) -> None:
        topo = self.topology
        node_spec = self.cluster.spec.node
        staged_per_server = self.variable.nbytes / max(1, topo.nservers)
        per_node = (
            staged_per_server
            * cal.DECAF_SERVER_EXPANSION
            * topo.servers_per_node
            * max(1, self.config.max_versions)
        )
        if per_node + cal.SERVER_BASE > node_spec.ram_bytes:
            raise OutOfMemory(
                f"Decaf dflow node needs {fmt_bytes(per_node)} "
                f"({cal.DECAF_SERVER_EXPANSION:.0f}x expansion of "
                f"{fmt_bytes(staged_per_server)} raw per server, "
                f"{topo.servers_per_node}/node) > "
                f"{fmt_bytes(node_spec.ram_bytes)} RAM"
            )

    # ----------------------------------------------- steady fast-forward

    def steady_plan(self):
        """Eligible: the pipelined dflow is version-periodic.

        Every step pushes one version through the same producer → dflow
        → consumer redistribution with the same counts; dflow buffers
        are recycled one window later, and MPI messaging holds no
        first-touch caches (no DRC credentials, no socket pools) beyond
        the bootstrap.  Warm-up covers the pipeline fill.
        """
        return SteadyPlan(warmup=max(1, self.config.max_versions) + 1)

    # ------------------------------------------------------- clustering

    def clustering_plan(self, write_regions, read_regions):
        """Engage when the dataflow splits into identical MPI islands.

        Decaf's ``count`` redistribution is block-diagonal whenever the
        producer/dflow/consumer counts share a common factor ``g``: the
        ranks partition into ``g`` groups that never exchange a byte.
        The checks below verify that structure *exactly* — every
        group's redistribution shares must be a literal translate of
        group 0's (float-equal fractions), regions uniform, and each
        group's wire distances equal to group 0's — so the
        representative island reproduces the run bit for bit.  MPI
        messaging holds no cross-group state (no DRC credentials, no
        socket pools), so resource disjointness follows from the nodes
        being disjoint.
        """
        topo = self.topology
        g = math.gcd(
            math.gcd(topo.sim_actors, topo.ana_actors), topo.server_actors
        )
        if g < 2 or self.shared_nodes:
            return None
        a = topo.sim_actors // g
        b = topo.ana_actors // g
        s = topo.server_actors // g
        if s < 1:
            return None
        if not (uniform_regions(write_regions) and uniform_regions(read_regions)):
            return None

        def translates(num_src: int, reps: int) -> bool:
            for r in range(reps):
                base = count_redistribution(r, num_src, topo.server_actors)
                if any(not 0 <= dst < s for dst, _ in base):
                    return False
                for k in range(1, g):
                    shifted = [(dst + k * s, frac) for dst, frac in base]
                    if count_redistribution(
                        k * reps + r, num_src, topo.server_actors
                    ) != shifted:
                        return False
            return True

        if not translates(topo.sim_actors, a) or not translates(topo.ana_actors, b):
            return None

        sim_nodes = self._placed_nodes("simulation")
        ana_nodes = self._placed_nodes("analytics")
        srv_nodes = self._placed_nodes("servers")
        for r in range(a):
            base = count_redistribution(r, topo.sim_actors, topo.server_actors)
            for k in range(1, g):
                for dst, _ in base:
                    if self._chain_hops(
                        sim_nodes[k * a + r], srv_nodes[k * s + dst]
                    ) != self._chain_hops(sim_nodes[r], srv_nodes[dst]):
                        return None
        for r in range(b):
            base = count_redistribution(r, topo.ana_actors, topo.server_actors)
            for k in range(1, g):
                for dst, _ in base:
                    if self._chain_hops(
                        srv_nodes[k * s + dst], ana_nodes[k * b + r]
                    ) != self._chain_hops(srv_nodes[dst], ana_nodes[r]):
                        return None
        return ClusterPlan(sim_reps=a, ana_reps=b, server_reps=s, groups=g)

    # ----------------------------------------------------- batch actors

    def batch_plan(self, plan, write_regions, read_regions):
        """Certify the clustered islands for whole-run compilation.

        Only the fully decoupled 1:1:1 island compiles: one producer,
        one dflow rank and one consumer whose ``count`` redistribution
        is the literal identity, so each step is a single producer →
        dflow → consumer chain with no share interleaving on shared
        NICs.  The single-version window then totally orders transform,
        move and consume per step.
        """
        if not (plan.sim_reps == plan.ana_reps == plan.server_reps == 1):
            raise BatchDecline(
                "batch: decaf compiles 1:1:1 islands only (wider islands "
                "interleave redistribution shares on shared NICs)"
            )
        topo = self.topology
        if (count_redistribution(0, topo.sim_actors, topo.server_actors)
                != [(0, 1.0)]
                or count_redistribution(0, topo.ana_actors, topo.server_actors)
                != [(0, 1.0)]):
            raise BatchDecline(
                "batch: representative redistribution is not the identity"
            )
        if self._gate_window() != 1:
            raise BatchDecline(
                f"batch: a {self._gate_window()}-version window lets "
                "phases overlap with no static order"
            )
        if self.steps < 1:
            raise BatchDecline("batch: nothing to compile")
        return BatchPlan(
            library=self.name,
            note=f"1:1:1 dataflow island x {self.steps} steps",
        )

    def batch_step(self, bplan, ctx):
        """Compile the representative dataflow island into actions.

        Same two-phase structure as the DataSpaces compiler: phase one
        replays :meth:`put`/:meth:`get`'s tick recurrence on shadow
        pipes (zero mutation, declines are safe), phase two claims the
        frozen pipes, accounts the transport and emits the actions —
        including the mid-chain rich-transform allocation
        (:meth:`_stage_rich`) that lands at the move-completion tick,
        one transform pause before the publish effects.
        """
        env = self.env
        var = self.variable
        topo = self.topology
        transport = self.transport
        steps = ctx.steps

        # ---- runtime certificate checks (still mutation-free) ----
        if ctx.sim_count != 1 or ctx.ana_count != 1 or not self.servers:
            raise BatchDecline("batch: island is not 1:1:1 at runtime")
        gate = self.gate
        if gate is None or gate.window != 1:
            raise BatchDecline("batch: gate window changed at runtime")
        if gate.num_writers != 1 or gate.num_readers != 1:
            raise BatchDecline("batch: gate group counts drifted")
        if (self.recovery is not None or self.dead_ranks
                or self._put_watchers
                or self._terminated_version is not None):
            raise BatchDecline("batch: chaos state armed")
        if self._steady_tap is not None:
            raise BatchDecline("batch: steady tap armed")
        if ctx.persistent_buffers[0] is None:
            raise BatchDecline("batch: producer buffer is not resident")

        w_region = ctx.write_regions[0]
        r_region = ctx.read_regions[0]
        w_shares = count_redistribution(0, topo.sim_actors, topo.server_actors)
        r_shares = count_redistribution(0, topo.ana_actors, topo.server_actors)
        if w_shares != [(0, 1.0)] or r_shares != [(0, 1.0)]:
            raise BatchDecline("batch: redistribution is not the identity")
        server = self.servers[0]
        sim_node = self.sim_endpoint(0).node
        ana_node = self.ana_endpoint(0).node
        srv_node = server.node
        if sim_node is srv_node or srv_node is ana_node:
            raise BatchDecline("batch: island endpoints share a node")
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

        S = cal._TICK_SCALE
        op_ticks = round(transport.op_latency * S)
        total_w = var.region_bytes(w_region)
        total_r = var.region_bytes(r_region)
        # Verbatim put/get float expressions for the identity share.
        transform_ticks = round(
            total_w / self.topology.sim_scale / cal.DECAF_TRANSFORM_BW
            * cal._TICK_SCALE
        )
        w_nbytes = total_w * w_shares[0][1]
        r_nbytes = total_r * r_shares[0][1]
        wire_w = self._wire_bytes(w_nbytes)
        wire_r = self._wire_bytes(r_nbytes)
        eff_w = wire_w * transport.overhead_factor
        eff_r = wire_r * transport.overhead_factor
        real_bytes = w_nbytes / self.topology.server_scale
        rich_ticks = round(real_bytes / cal.DECAF_TRANSFORM_BW * S)

        # ---- phase one: the tick recurrence over shadow pipes ----
        shadow = ShadowChains()
        boot = ctx.boot_tick
        w_cursor = boot + ctx.sim_compute_ticks
        r_cursor = boot
        w_start = np.empty(steps, dtype=np.int64)   # put spawn ticks
        move_end = np.empty(steps, dtype=np.int64)  # rich alloc instants
        w_end = np.empty(steps, dtype=np.int64)     # publish instants
        r_start = np.empty(steps, dtype=np.int64)   # get spawn ticks
        r_end = np.empty(steps, dtype=np.int64)     # consume instants

        for s in range(steps):
            t0 = w_cursor
            w_start[s] = t0
            t = t0 + transform_ticks        # flatten into Bredala form
            if s > 0 and int(r_end[s - 1]) > t:
                t = int(r_end[s - 1])       # writer_acquire, window 1
            t += op_ticks                   # MPI match/setup
            t += put_lat                    # wire latency
            for pipe in put_pipes:
                t = shadow.claim(pipe, eff_w, t)
            move_end[s] = t                 # rich transform alloc lands here
            t += rich_ticks                 # server-side 7x transform
            w_end[s] = t
            w_cursor = t + ctx.sim_compute_ticks

            g0 = r_cursor
            r_start[s] = g0
            t = g0
            p = int(w_end[s])               # reader_wait on the version
            if p > t:
                t = p
            t += op_ticks
            t += get_lat
            for pipe in get_pipes:
                t = shadow.claim(pipe, eff_r, t)
            r_end[s] = t
            r_cursor = t + ctx.ana_compute_ticks

        # ---- phase two: apply claims, counters and actions ----
        shadow.apply()
        for s in range(steps):
            transport._account(wire_w)
            transport._account(wire_r)

        gstore = self.global_store

        def rich_action(s):
            def fx():
                self._stage_rich(0, s, w_nbytes)
            return fx

        def put_effects(s, start_tick):
            start_f = start_tick * _TICK

            def fx():
                gstore.put(var, s, w_region, None)
                self._evict_old(s)
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

        # The producer's flattened copy is resident (no per-step
        # alloc/free); the consumer buffer cycles per step, freed after
        # the consume effects exactly as the per-rank cascade orders it.
        actions = ActionBuilder()
        ana_tracker = ctx.ana_trackers[0]
        ana_cell = [None]
        for s in range(steps):
            actions.add(int(move_end[s]), rich_action(s))
            actions.add(int(w_end[s]), put_effects(s, int(w_start[s])))
            actions.add(int(r_start[s]), alloc_action(
                ana_tracker, ctx.ana_buffer_bytes, ana_cell,
            ))
            actions.add(int(r_end[s]), get_effects(s, int(r_start[s])))
            actions.add(int(r_end[s]), free_action(ana_tracker, ana_cell))

        sim_finish = int(w_end[steps - 1])
        ana_finish = int(r_end[steps - 1]) + ctx.ana_compute_ticks
        # A final no-op pins env.now to the run's true end-to-end tick.
        actions.add(max(sim_finish, ana_finish), lambda: None)
        return BatchSchedule(
            actions=actions.build(),
            sim_finish_tick=sim_finish,
            ana_finish_tick=ana_finish,
        )

    # ------------------------------------------------------ chaos hooks

    def server_crash(self, server_index: int) -> None:
        """A dflow rank dies inside the single MPI world.

        Decaf wraps producer, dflow and consumer into one MPI job, so
        a crashed dflow rank takes the whole workflow down with it
        (MPI_Abort semantics) — no per-library recovery applies.
        """
        from ..hpc.failures import NodeFailure

        raise NodeFailure(
            f"decaf: dflow rank {server_index} died; MPI aborts the "
            f"whole workflow world"
        )

    def rank_died(self, kind: str, actor: int) -> None:
        """Propagate Decaf's termination token through the dataflow.

        Everything up to the last fully published version is delivered;
        later versions are cancelled cleanly on every rank instead of
        deadlocking (the dataflow winds down, Section VI semantics).
        """
        super().rank_died(kind, actor)
        if self.gate is None or self._terminated_version is not None:
            return
        terminated = self.gate.highest_published() + 1
        self._terminated_version = terminated
        self.versions_lost += max(0, self.steps - terminated)
        self.recovery_events += 1
        self.gate.release_all()

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

        # Flatten + transform into the Bredala data model (parallel on
        # every real producer, so the actor pays per-proc cost); the
        # delay becomes a tick deadline directly.
        env = self.env
        yield env.timeout_at_tick(env._now_tick + round(
            total / self.topology.sim_scale / cal.DECAF_TRANSFORM_BW
            * cal._TICK_SCALE
        ))
        yield from self.gate.writer_acquire(version)
        if (self._terminated_version is not None
                and version >= self._terminated_version):
            return  # the termination token cancelled this version

        client = self.sim_endpoint(sim_actor)
        shares = count_redistribution(
            sim_actor, self.topology.sim_actors, self.topology.server_actors
        )
        for server_index, fraction in shares:
            server = self.servers[server_index]
            nbytes = total * fraction
            yield from self.transport.move(
                client, server.endpoint, self._wire_bytes(nbytes)
            )
            real_bytes = self._stage_rich(server_index, version, nbytes)
            yield self.env.pause(real_bytes / cal.DECAF_TRANSFORM_BW)

        self.global_store.put(var, version, region, data)
        self._evict_old(version)
        self.gate.publish(version)
        self._record_put(total, self.env.now - start)

    def _stage_rich(self, server_index: int, version: int, nbytes: float) -> float:
        """Account one share's server-side rich (Bredala) objects.

        7x expansion of the raw bytes; the real servers behind the
        actor transform in parallel, so the tracker takes the
        per-real-server share.  Returns those per-server raw bytes (the
        caller's transform pause is sized from them).
        """
        server = self.servers[server_index]
        real_bytes = nbytes / self.topology.server_scale
        alloc = server.memory.allocate(
            real_bytes * cal.DECAF_SERVER_EXPANSION, "staged-rich"
        )
        self._staged_allocs.setdefault(
            (server_index, version), []
        ).append(alloc)
        return real_bytes

    def _evict_old(self, version: int) -> None:
        old = version - max(1, self.config.max_versions)
        if old < 0:
            return
        for server_index, server in enumerate(self.servers):
            for alloc in self._staged_allocs.pop((server_index, old), []):
                server.memory.free(alloc)
        self.global_store.evict(self.variable, old)

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
        if (self._terminated_version is not None
                and version >= self._terminated_version):
            return 0.0, None  # cancelled by the termination token

        client = self.ana_endpoint(ana_actor)
        total = var.region_bytes(region)
        shares = count_redistribution(
            ana_actor, self.topology.ana_actors, self.topology.server_actors
        )
        for server_index, fraction in shares:
            server = self.servers[server_index]
            yield from self.transport.move(
                server.endpoint, client, self._wire_bytes(total * fraction)
            )

        data = self.global_store.assemble(var, version, region)
        self.gate.reader_done(version)
        self._record_get(total, self.env.now - start)
        return total, data
