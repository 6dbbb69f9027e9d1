"""A machine instance: nodes, interconnect links, Lustre, DRC, placement.

:class:`Cluster` instantiates one of the catalog machines
(:data:`~repro.hpc.machines.TITAN` or :data:`~repro.hpc.machines.CORI`)
inside a simulation environment, creating nodes lazily so that
(8192, 4096)-processor experiments stay cheap.

:class:`Placement` maps MPI ranks of the workflow components
(simulation, analytics, staging servers) onto nodes, honoring each
machine's scheduling policies: Titan refuses node sharing between jobs
and Cori refuses heterogeneous (MPMD) launches (Finding 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..sim import Environment
from .drc import DrcService
from .failures import SchedulerPolicyViolation
from .lustre import LustreFilesystem
from .machines import MachineSpec
from .network import Link
from .node import Node
from .pmem import PmemDevice
from .topology import make_topology


#: the parts of a machine whose pipe rates a fault can degrade: every
#: node's NIC, the Lustre OSTs and the persistent-memory tier.  Memory
#: buses are not among them; no fault degrades a memory bus.
RATE_PARTS = frozenset({"nic", "lustre", "pmem"})


class Cluster:
    """One booted machine inside a simulation environment.

    Nodes, the Lustre filesystem and the persistent-memory tier are
    built lazily, on first touch, and honour :meth:`freeze_rates` at
    birth once it has run: a run pays only for the parts of the machine
    it uses, and every part no fault can degrade runs frozen.
    """

    def __init__(self, env: Environment, spec: MachineSpec) -> None:
        self.env = env
        self.spec = spec
        self._nodes: Dict[int, Node] = {}
        self._links: Dict[tuple, Link] = {}
        # parts whose pipe rates may still change; all of them, memory
        # buses included, until freeze_rates narrows the set
        self._mutable = RATE_PARTS | {"membus"}
        self.topology = make_topology(spec.interconnect.topology, spec.num_nodes)
        self._lustre: Optional[LustreFilesystem] = None
        self._pmem: Optional[PmemDevice] = None
        self.drc: Optional[DrcService] = (
            DrcService(env, max_pending=spec.drc_max_pending)
            if spec.interconnect.requires_drc
            else None
        )

    def freeze_rates(self, mutable: Iterable[str] = ()) -> None:
        """Promise no pipe rate outside ``mutable`` changes for the run.

        ``mutable`` names the parts of :data:`RATE_PARTS` a fault may
        still degrade.  Every other part, and every memory bus, is
        frozen and runs the eventless arithmetic chains; nodes, the OST
        pool and the PMEM tier built later, on first touch, follow the
        same rule.  The driver passes the fault plan's
        :attr:`~repro.chaos.faults.FaultPlan.degraded_parts` (none for a
        clean run); :meth:`BandwidthPipe.degrade` refuses a frozen pipe,
        so a degrading fault the set misses fails loudly.
        """
        self._mutable = frozenset(mutable)
        if self._lustre is not None and "lustre" not in self._mutable:
            self._lustre.freeze_rates()
        if self._pmem is not None and "pmem" not in self._mutable:
            self._pmem.freeze_rates()
        for node in self._nodes.values():
            self._freeze_node(node)

    def _freeze_node(self, node: Node) -> None:
        if "nic" not in self._mutable:
            node.nic.freeze_rate()
        if "membus" not in self._mutable:
            node.membus.freeze_rate()

    @property
    def lustre(self) -> LustreFilesystem:
        """The machine's Lustre filesystem, created on first use.

        Lazy like the nodes: only MPI-IO runs and ``ost_slow`` faults
        touch it, so every other run skips building the OST pool.
        """
        if self._lustre is None:
            self._lustre = LustreFilesystem(self.env, self.spec.lustre)
            if "lustre" not in self._mutable:
                self._lustre.freeze_rates()
        return self._lustre

    @property
    def pmem(self) -> Optional[PmemDevice]:
        """The machine's persistent-memory tier, created on first use.

        ``None`` when the catalog machine has no
        :class:`~repro.hpc.machines.PmemSpec`.  Lazy like the nodes:
        runs that never touch the tier never pay for it (and never
        perturb existing simulated timings or stats).
        """
        if self._pmem is None and self.spec.pmem is not None:
            self._pmem = PmemDevice(self.env, self.spec.pmem)
            if "pmem" not in self._mutable:
                self._pmem.freeze_rates()
        return self._pmem

    def node(self, node_id: int) -> Node:
        """The node with ``node_id``, created on first use."""
        if node_id < 0 or node_id >= self.spec.num_nodes:
            raise ValueError(
                f"node {node_id} out of range for {self.spec.name} "
                f"({self.spec.num_nodes} nodes)"
            )
        node = self._nodes.get(node_id)
        if node is None:
            node = Node(self.env, node_id, self.spec.node)
            self._freeze_node(node)
            self._nodes[node_id] = node
        return node

    @property
    def booted_nodes(self) -> List[Node]:
        """Nodes that have been touched so far."""
        return list(self._nodes.values())

    def link(self, src: Node, dst: Node, overhead_factor: float = 1.0) -> Link:
        """A transfer path between two nodes (or within one).

        Wire latency scales with the topology hop count: on the 3D
        torus distant nodes pay more; on the dragonfly everything is
        at most three hops away.  Links are stateless (they reference
        the nodes' pipes), so each (src, dst, overhead) path is built
        once and reused — transports request the same paths millions of
        times per campaign.
        """
        key = (src.node_id, dst.node_id, overhead_factor)
        link = self._links.get(key)
        if link is not None:
            return link
        if src is dst:
            link = Link(self.env, src.membus, dst.membus, latency=0.0,
                        overhead_factor=overhead_factor)
        else:
            hops = max(1, self.topology.hops(src.node_id, dst.node_id))
            link = Link(
                self.env,
                src.nic,
                dst.nic,
                latency=self.spec.interconnect.latency * hops,
                overhead_factor=overhead_factor,
            )
        self._links[key] = link
        return link


@dataclass(frozen=True)
class RankLocation:
    """Where one MPI rank of a component lives."""

    component: str
    rank: int
    node_id: int


class Placement:
    """Rank-to-node mapping for the coupled workflow components."""

    def __init__(self, cluster: Cluster, shared_nodes: bool = False) -> None:
        self.cluster = cluster
        self.shared_nodes = shared_nodes
        if shared_nodes and not cluster.spec.allows_node_sharing:
            raise SchedulerPolicyViolation(
                f"{cluster.spec.name} does not allow multiple jobs to share "
                f"a compute node"
            )
        self._locations: Dict[str, List[RankLocation]] = {}
        self._next_free_node = 0

    def place(
        self,
        component: str,
        nranks: int,
        ranks_per_node: Optional[int] = None,
        node_ids: Optional[List[int]] = None,
    ) -> List[RankLocation]:
        """Assign ``nranks`` ranks of ``component`` to nodes.

        In dedicated mode each component gets its own node range; in
        shared mode components are co-located from node 0 upward, so a
        simulation rank and an analytics rank can land on one node and
        exchange data through local memory (Figure 13).  ``node_ids``
        pins each rank to an explicit node (shared mode only), e.g. to
        co-locate readers with the writers whose data they consume.
        """
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        if component in self._locations:
            raise ValueError(f"component {component!r} already placed")

        if node_ids is not None:
            if not self.shared_nodes:
                raise ValueError("explicit node_ids require shared mode")
            if len(node_ids) != nranks:
                raise ValueError(
                    f"need {nranks} node ids, got {len(node_ids)}"
                )
            locations = [
                RankLocation(component, rank, node_id)
                for rank, node_id in enumerate(node_ids)
            ]
            self._locations[component] = locations
            return locations

        per_node = ranks_per_node or self.cluster.spec.node.cores
        nodes_needed = -(-nranks // per_node)  # ceil division

        if self.shared_nodes:
            first = 0
        else:
            first = self._next_free_node
            self._next_free_node += nodes_needed
        if first + nodes_needed > self.cluster.spec.num_nodes:
            raise SchedulerPolicyViolation(
                f"not enough nodes on {self.cluster.spec.name} for "
                f"{component}: need {nodes_needed} starting at {first}"
            )

        locations = [
            RankLocation(component, rank, first + rank // per_node)
            for rank in range(nranks)
        ]
        self._locations[component] = locations
        return locations

    def locations(self, component: str) -> List[RankLocation]:
        """The placed ranks of ``component``."""
        try:
            return self._locations[component]
        except KeyError:
            raise KeyError(f"component {component!r} was never placed") from None

    def node_of(self, component: str, rank: int) -> Node:
        """The node hosting ``component``'s ``rank``."""
        return self.cluster.node(self.locations(component)[rank].node_id)

    def components(self) -> List[str]:
        return list(self._locations)
