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

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..hpc.failures import OutOfMemory, SchedulerPolicyViolation
from ..hpc.units import fmt_bytes
from . import calibration as cal
from .base import StagingConfig, StagingLibrary, SteadyPlan
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
        self._record_put(total, self.env.now - start, version)

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
        self._record_get(total, self.env.now - start, version)
        return total, data
