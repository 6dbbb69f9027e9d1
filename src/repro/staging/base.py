"""Common scaffolding for the in-memory computing libraries.

Scale handling
--------------

The paper runs up to (8192, 4096) MPI processors.  Simulating every
processor as a coroutine would melt a Python event loop, so a run is
described by a :class:`Topology` that carries both the *real* counts
(used for all resource mathematics: RDMA registrations, socket
descriptors, DRC request bursts, per-server staged bytes) and a capped
number of *actors* — coroutine processes each standing in for
``real/actors`` processors.  Actors move proportionally scaled byte
volumes through the network pipes, so contention shapes (N-to-1
serialization, OST sharing) are preserved, while resource exhaustion is
checked analytically against the real counts, reproducing the failure
points the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..hpc.cluster import Cluster, Placement
from ..hpc.memtrack import MemoryTracker
from ..hpc.node import Node
from ..sim import Environment
from ..transport import Endpoint, Transport, make_transport
from . import calibration as cal
from .ndarray import Region, Variable
from .store import FragmentStore, VersionGate


@dataclass(frozen=True)
class Topology:
    """Real and actor-level process counts of one coupled run.

    One actor stands in for ``node_scale`` *nodes* of its component.
    A single scale factor is shared by all components so the node
    *ratios* between simulation, analytics and servers — which
    determine how per-node NIC pipes load up — are preserved exactly.
    """

    nsim: int
    nana: int
    nservers: int = 0
    sim_ranks_per_node: int = 8
    ana_ranks_per_node: int = 8
    servers_per_node: int = 1
    #: cap on coroutine actors per component (the event-count budget)
    max_actor_nodes: int = 32

    def __post_init__(self) -> None:
        if self.nsim < 1 or self.nana < 1 or self.nservers < 0:
            raise ValueError(f"invalid topology {self}")
        if min(self.sim_ranks_per_node, self.ana_ranks_per_node,
               self.servers_per_node, self.max_actor_nodes) < 1:
            raise ValueError(f"invalid per-node/actor settings in {self}")

    # All derived counts are cached: the topology is frozen, and these
    # run inside per-transfer hot paths (e.g. ``_wire_bytes``).

    @cached_property
    def sim_nodes(self) -> int:
        return -(-self.nsim // self.sim_ranks_per_node)

    @cached_property
    def ana_nodes(self) -> int:
        return -(-self.nana // self.ana_ranks_per_node)

    @cached_property
    def server_nodes(self) -> int:
        return -(-self.nservers // self.servers_per_node) if self.nservers else 0

    @cached_property
    def node_scale(self) -> int:
        """Real nodes represented by one actor (shared by components)."""
        widest = max(self.sim_nodes, self.ana_nodes, self.server_nodes)
        return max(1, -(-widest // self.max_actor_nodes))

    @cached_property
    def sim_actors(self) -> int:
        return max(1, -(-self.sim_nodes // self.node_scale))

    @cached_property
    def ana_actors(self) -> int:
        return max(1, -(-self.ana_nodes // self.node_scale))

    @cached_property
    def server_actors(self) -> int:
        if not self.nservers:
            return 0
        return max(1, -(-self.server_nodes // self.node_scale))

    @cached_property
    def sim_scale(self) -> float:
        """Real simulation processors represented by one actor."""
        return self.nsim / self.sim_actors

    @cached_property
    def ana_scale(self) -> float:
        return self.nana / self.ana_actors

    @cached_property
    def server_scale(self) -> float:
        return self.nservers / self.server_actors if self.nservers else 1.0


@dataclass(frozen=True)
class ClusterPlan:
    """Representative-group description for the clustered fidelity mode.

    The first ``sim_reps`` simulation actors, ``ana_reps`` analytics
    actors and ``server_reps`` servers form one representative group;
    the full run consists of ``groups`` identical, resource-disjoint
    copies of it.  Simulating only the representative group and
    replicating each statistics record ``groups`` times (in place, so
    the floating-point additions happen in the exact run's order)
    reproduces the exact run's numbers; per-server memory peaks extend
    to the full server list by repeating the ``server_reps`` peaks
    ``groups`` times.
    """

    sim_reps: int
    ana_reps: int
    server_reps: int
    groups: int

    def __post_init__(self) -> None:
        if min(self.sim_reps, self.ana_reps) < 1 or self.server_reps < 0:
            raise ValueError(f"invalid representative counts in {self}")


@dataclass(frozen=True)
class SteadyPlan:
    """Eligibility certificate for the steady-state fast-forward.

    Returned by :meth:`StagingLibrary.steady_plan` when the library's
    structural checks certify that, past a warm-up prefix, no *hidden*
    aperiodic state can influence step timing or the exported results —
    so two consecutive step boundaries whose full observable
    fingerprints match (modulo one clock translation Δ) prove the orbit
    repeats forever and the remaining steps can be replayed as exact
    translates.

    ``warmup`` is the number of leading steps excluded from fingerprint
    matching: step 0 pays bootstrap, first-touch allocation and the
    version-gate fill, and libraries with a deeper pipeline (version
    eviction, publisher queues) extend it to cover their transient.
    """

    warmup: int = 1

    def __post_init__(self) -> None:
        if self.warmup < 1:
            raise ValueError("warmup must cover at least step 0")


@dataclass(frozen=True)
class StagingConfig:
    """Build and runtime options (Table I of the paper)."""

    #: transport registry name: ugni / nnti / verbs / tcp / shm / mpi
    transport: str = "ugni"
    #: width of dimension counters; 32 reproduces the Table IV overflow
    dim_bits: int = 64
    #: DataSpaces runtime settings (Table I)
    lock_type: int = 2
    hash_version: int = 2
    max_versions: int = 1
    #: Flexpath queue_size (ADIOS XML, Table I)
    queue_size: int = 1
    #: go through the ADIOS framework layer (adds serialization copies)
    use_adios: bool = False
    #: DataSpaces internal staging buffer factor (Figure 7)
    buffer_factor: float = cal.DATASPACES_SERVER_BUFFER_FACTOR
    #: keep server-resident staged data registered for RDMA
    register_staged_data: bool = True
    #: copies of every staged fragment (1 = no resilience, the state of
    #: the art the paper's Section IV-C criticizes; 2 = survive one
    #: staging-server failure at the cost of doubled server memory and
    #: an extra transfer per put)
    replication_factor: int = 1
    #: SST step-discard mode (latest-step-wins): writers never block on
    #: a slow reader — stale unconsumed steps are dropped instead.
    #: False = SST's default reader-pacing (writers queue/block when
    #: the reader falls ``queue_size`` steps behind).
    sst_discard: bool = False
    #: mirror every put's slab to the machine's persistent-memory tier
    #: (enables the restart-from-pmem recovery policy; costs one write
    #: through the tier's slow channel per put)
    pmem_checkpoint: bool = False


@dataclass
class StagingStats:
    """Accumulated measurements of one library instance."""

    bytes_staged: float = 0.0
    bytes_retrieved: float = 0.0
    put_time: float = 0.0
    get_time: float = 0.0
    puts: int = 0
    gets: int = 0

    @property
    def staging_time(self) -> float:
        return self.put_time + self.get_time


class ServerState:
    """Per-server bookkeeping: memory tracker, store, endpoint."""

    def __init__(self, library: "StagingLibrary", index: int, node: Node) -> None:
        self.index = index
        self.node = node
        self.endpoint = Endpoint(node, f"{library.name}-server{index}", library.job_id)
        self.memory: MemoryTracker = node.process_memory(
            f"{library.name}-server{index}"
        )
        self.store = FragmentStore()
        self._staged_allocs: Dict[Tuple[str, int], list] = {}


class StagingLibrary:
    """Base class for DataSpaces, DIMES, Flexpath, Decaf and MPI-IO."""

    name = "abstract"
    #: whether the method deploys stand-alone staging server processes
    has_servers = False

    def __init__(
        self,
        cluster: Cluster,
        topology: Topology,
        config: Optional[StagingConfig] = None,
        placement: Optional[Placement] = None,
        variable: Optional[Variable] = None,
        steps: int = 1,
        shared_nodes: bool = False,
    ) -> None:
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.topology = topology
        self.config = config or StagingConfig()
        self.variable = variable
        self.steps = steps
        self.shared_nodes = shared_nodes
        self.job_id = f"{self.name}-workflow"
        self.placement = placement or self._default_placement()
        self.transport: Transport = make_transport(self.config.transport, cluster)
        self.stats = StagingStats()
        self.servers: List[ServerState] = []
        self.gate: Optional[VersionGate] = None
        #: writer/reader counts the version gate coordinates; the
        #: clustered fidelity mode overrides them to the
        #: representative-group counts before bootstrap
        self.active_writers: Optional[int] = None
        self.active_readers: Optional[int] = None
        #: how many exact-run actors each statistics record stands for
        #: (the clustered fidelity mode sets this to the group count)
        self.stats_replicas: int = 1
        #: steady-state fast-forward tap: when a list, every
        #: ``_record_put``/``_record_get`` call appends its raw
        #: arguments here so the driver can replay the exact addition
        #: sequence for skipped steps (None = zero-cost off)
        self._steady_tap: Optional[list] = None
        self._sim_endpoints: Dict[int, Endpoint] = {}
        self._ana_endpoints: Dict[int, Endpoint] = {}
        self._client_trackers: Dict[Tuple[str, int], MemoryTracker] = {}
        # ---- chaos state (all falsy by default: the hooks below are
        # zero-cost truthiness checks on the fault-free path) ----
        #: recovery policy driving failure reactions; None = the
        #: library's legacy (pre-chaos) semantics
        self.recovery = None
        #: (kind, actor) pairs of dead client ranks ('sim' / 'ana')
        self.dead_ranks: set = set()
        #: versions the run could not deliver to analytics
        self.versions_lost: int = 0
        #: recovery actions taken (restarts, reconnects, drains)
        self.recovery_events: int = 0
        #: simulated seconds spent inside recovery actions — the direct
        #: latency measurement the rounded overhead columns cannot show
        self.recovery_seconds: float = 0.0
        #: chaos callbacks fired with the running put count
        self._put_watchers: List = []

    # ------------------------------------------------------------ setup

    def _default_placement(self) -> Placement:
        # One actor per (representative) node: NIC pipe contention then
        # mirrors the real per-node injection load.
        placement = Placement(self.cluster, shared_nodes=self.shared_nodes)
        topo = self.topology
        placement.place("simulation", topo.sim_actors, ranks_per_node=1)
        if self.shared_nodes:
            # Co-locate each reader with the writers of its data region
            # so staging degenerates to a local memory copy (Figure 13).
            node_ids = [
                (j * topo.sim_actors) // topo.ana_actors
                for j in range(topo.ana_actors)
            ]
            placement.place("analytics", topo.ana_actors, node_ids=node_ids)
            if topo.server_actors:
                server_nodes = [
                    (j * topo.sim_actors) // topo.server_actors
                    for j in range(topo.server_actors)
                ]
                placement.place("servers", topo.server_actors, node_ids=server_nodes)
            return placement
        placement.place("analytics", topo.ana_actors, ranks_per_node=1)
        if topo.server_actors:
            placement.place("servers", topo.server_actors, ranks_per_node=1)
        return placement

    def sim_endpoint(self, actor: int) -> Endpoint:
        endpoint = self._sim_endpoints.get(actor)
        if endpoint is None:
            node = self.placement.node_of("simulation", actor)
            endpoint = Endpoint(node, f"sim{actor}", self.job_id)
            self._sim_endpoints[actor] = endpoint
        return endpoint

    def ana_endpoint(self, actor: int) -> Endpoint:
        endpoint = self._ana_endpoints.get(actor)
        if endpoint is None:
            node = self.placement.node_of("analytics", actor)
            endpoint = Endpoint(node, f"ana{actor}", self.job_id)
            self._ana_endpoints[actor] = endpoint
        return endpoint

    def bootstrap(self) -> Generator:
        """Process: start servers, build indexes, validate resources.

        Subclasses extend this; the base spawns server states and runs
        the analytic at-scale resource validation.
        """
        if self.has_servers:
            for i in range(self.topology.server_actors):
                node = self.placement.node_of("servers", i)
                server = ServerState(self, i, node)
                server.memory.allocate(cal.SERVER_BASE, "server-base")
                self.servers.append(server)
        if self.variable is not None:
            self.variable.check_dims(self.config.dim_bits)
        self.gate = VersionGate(
            self.env,
            num_writers=self.active_writers or self.topology.sim_actors,
            num_readers=self.active_readers or self.topology.ana_actors,
            window=self._gate_window(),
        )
        self.validate_at_scale()
        yield self.env.pause(0)

    def _gate_window(self) -> int:
        """How many unconsumed versions the staging area may hold."""
        return max(1, self.config.max_versions)

    def validate_at_scale(self) -> None:
        """Analytic resource checks against the *real* process counts.

        Subclasses raise the appropriate :mod:`repro.hpc.failures`
        exception when the configuration cannot run at scale — the same
        crashes the paper hit (Table IV).
        """

    def shutdown(self) -> None:
        """Release per-run transport state."""

    # ------------------------------------------------------ chaos hooks

    def rank_died(self, kind: str, actor: int) -> None:
        """Chaos: client rank ``actor`` of ``kind`` died mid-run.

        The base just records the death; the driver's actor loops poll
        :attr:`dead_ranks` at step boundaries and stop issuing work.
        Subclasses layer on the paper's per-library semantics (Flexpath
        drains, Decaf propagates a termination token, MPI-IO restarts).
        """
        self.dead_ranks.add((kind, actor))

    def server_crash(self, server_index: int) -> None:
        """Chaos: staging server ``server_index`` died.

        The base is a no-op for serverless methods; server-backed
        subclasses mark the server dead so the next access runs the
        recovery policy.
        """

    # ------------------------------------------------------- clustering

    def clustering_plan(
        self, write_regions: List[Region], read_regions: List[Region]
    ) -> Optional[ClusterPlan]:
        """A representative-group plan, or None to run every actor.

        Subclasses return a :class:`ClusterPlan` only when structural
        checks *prove* the actors split into ``groups`` identical and
        resource-disjoint chains, so simulating one group reproduces
        the exact run bit for bit.  The default is conservative: no
        analysis, no clustering.
        """
        return None

    # ----------------------------------------------- steady fast-forward

    def steady_plan(self) -> Optional["SteadyPlan"]:
        """Certify eligibility for the steady-state fast-forward, or None.

        Analogous to :meth:`clustering_plan`, but in time instead of
        space: a returned :class:`SteadyPlan` asserts that past its
        ``warmup`` prefix the library holds no hidden state that could
        change step timing or exported results aperiodically — every
        version-keyed behaviour (eviction, queue recycling, metadata
        placement) either repeats each step or is observationally inert.
        The default is conservative: no certificate, no fast-forward.

        The certificate is necessary but not sufficient: the driver
        still requires two consecutive step boundaries to match in the
        full observable fingerprint (phase marks, stats records, event
        queue, gate window, resource queues, memory samples) modulo one
        exact clock translation before it stops simulating.
        """
        return None

    def steady_state(self, step: int) -> tuple:
        """The library's boundary fingerprint at the end of ``step``.

        Everything version- or time-keyed is normalized so that a steady
        orbit yields the identical tuple at consecutive boundaries.
        Subclasses extend this with their own resources (server CPUs,
        metadata queues); the base covers the version gate, per-server
        memory occupancy/peaks and chaos counters.
        """
        gate_state = self.gate.steady_state(step) if self.gate is not None else ()
        return (
            gate_state,
            tuple(
                (s.memory.total, s.memory.peak,
                 tuple(sorted(s.memory.breakdown().items())))
                for s in self.servers
            ),
            self.versions_lost,
            self.recovery_events,
        )

    def _placed_nodes(self, component: str) -> List[int]:
        """Node ids of a placed component, without booting the nodes."""
        return [loc.node_id for loc in self.placement.locations(component)]

    def _chain_hops(self, src_node_id: int, dst_node_id: int) -> int:
        """Effective hop count a transfer between two nodes pays.

        Mirrors :meth:`~repro.hpc.cluster.Cluster.link`: zero within a
        node, otherwise the topology's hop count clamped to >= 1.
        """
        if src_node_id == dst_node_id:
            return 0
        return max(1, self.cluster.topology.hops(src_node_id, dst_node_id))

    # ------------------------------------------------------------- API

    def put(
        self,
        sim_actor: int,
        region: Region,
        version: int,
        data: Optional[np.ndarray] = None,
    ) -> Generator:
        """Process: one simulation actor stages its region of a version."""
        raise NotImplementedError

    def get(
        self,
        ana_actor: int,
        region: Region,
        version: int,
    ) -> Generator:
        """Process: one analytics actor retrieves a region of a version.

        Returns ``(nbytes, data_or_none)``.
        """
        raise NotImplementedError

    # --------------------------------------------------------- helpers

    #: client-side per-put buffering multiple (Figure 5 calibration)
    client_buffer_mult: float = cal.CLIENT_BUFFER_MULT
    #: whether the client buffer persists across steps (Decaf keeps its
    #: flattened copy resident) or is transient per put
    client_buffer_persistent: bool = False

    def register_client_tracker(
        self, kind: str, actor: int, tracker: MemoryTracker
    ) -> None:
        """Route this client's library allocations into ``tracker``.

        The workflow driver registers its per-processor trackers so a
        client's calculation, library base and staging buffers appear
        in one Figure-5-style timeline.
        """
        self._client_trackers[(kind, actor)] = tracker

    def client_tracker(self, kind: str, actor: int) -> MemoryTracker:
        """The memory tracker for client ``actor`` of ``kind``."""
        tracker = self._client_trackers.get((kind, actor))
        if tracker is None:
            component = "simulation" if kind == "sim" else "analytics"
            node = self.placement.node_of(component, actor)
            tracker = node.process_memory(f"{self.name}-{kind}{actor}")
            self._client_trackers[(kind, actor)] = tracker
        return tracker

    def _wire_bytes(self, nbytes: float) -> float:
        """Scale an actor-level volume to per-node NIC-pipe load.

        An actor's region covers ``node_scale`` real nodes' worth of
        data, but its endpoint is one node's NIC; dividing restores the
        per-node injection volume so pipe contention matches reality.
        Use only for point-to-point moves — global pools (Lustre OSTs)
        take real totals.
        """
        return nbytes / self.topology.node_scale

    def _serialize_cost(self, actor_bytes: float) -> float:
        """Client CPU seconds for self-describing serialization.

        Serialization runs in parallel on every real processor, so the
        actor pays the *per-processor* cost.
        """
        if self.config.use_adios:
            return (actor_bytes / self.topology.sim_scale) / cal.SERIALIZE_BW
        return 0.0

    def _record_put(self, nbytes: float, elapsed: float) -> None:
        # Replicated additions, not one multiplication: group-homologous
        # actors record identical values back to back in the exact run,
        # and only repeating the same float additions reproduces those
        # sums bit for bit.
        if self._steady_tap is not None:
            self._steady_tap.append(("put", nbytes, elapsed))
        for _ in range(self.stats_replicas):
            self.stats.bytes_staged += nbytes
            self.stats.put_time += elapsed
        self.stats.puts += self.stats_replicas
        if self._put_watchers:
            for watcher in list(self._put_watchers):
                watcher(self.stats.puts)

    def _record_get(self, nbytes: float, elapsed: float) -> None:
        if self._steady_tap is not None:
            self._steady_tap.append(("get", nbytes, elapsed))
        for _ in range(self.stats_replicas):
            self.stats.bytes_retrieved += nbytes
            self.stats.get_time += elapsed
        self.stats.gets += self.stats_replicas

    def server_memory_peaks(self) -> List[int]:
        """Peak memory per staging server (bytes)."""
        return [s.memory.peak for s in self.servers]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} topology={self.topology}>"
