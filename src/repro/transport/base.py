"""Transport abstraction (the paper's "transport layer", Section III-B5).

Every staging library moves bytes between *endpoints* (a process on a
node) through a :class:`Transport`.  Concrete transports differ in

* per-byte overhead (socket stacks copy memory; RDMA does not),
* per-operation setup latency,
* which node resources they consume (RDMA memory + handlers + DRC
  credentials vs socket descriptors),

which is exactly the trade-off quantified in Figure 10 and Finding 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..hpc.cluster import Cluster
from ..hpc.node import Node


@dataclass(frozen=True)
class Endpoint:
    """A communicating process: a node plus an owner label."""

    node: Node
    owner: str
    job_id: str = "job"

    def __repr__(self) -> str:
        return f"<Endpoint {self.owner}@node{self.node.node_id}>"


class Transport:
    """Base class for data-movement mechanisms."""

    #: registry name, e.g. "ugni", "nnti", "tcp", "shm", "mpi"
    name: str = "abstract"
    #: per-byte inflation relative to raw RDMA (memory copies etc.)
    overhead_factor: float = 1.0
    #: per-operation software latency, seconds
    op_latency: float = 0.0

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.bytes_moved = 0.0
        self.operations = 0

    def setup(self, client: Endpoint, server: Endpoint) -> Generator:
        """Process: one-time per-pair connection establishment."""
        yield self.env.pause(0)

    def move(
        self,
        src: Endpoint,
        dst: Endpoint,
        nbytes: float,
        src_registered: bool = False,
        dst_registered: bool = False,
        tail_ticks: int = 0,
    ) -> Generator:
        """Process: move ``nbytes`` from ``src`` to ``dst``.

        ``src_registered``/``dst_registered`` tell RDMA transports the
        corresponding buffer is already covered by a persistent
        registration (a staging server's resident buffer), so no
        transient registration is needed on that side.

        ``tail_ticks`` is a fixed latency the caller would otherwise
        sleep on immediately after the move (e.g. a completion or
        metadata RPC): transports fold it into their last wake-up event
        where that provably cannot shift any shared state — pipe
        release instants, connection-pool returns and registration
        lifetimes stay exactly where the unfolded two-event form put
        them; only the caller's resume moves.

        A transport that crosses a :class:`~repro.hpc.network.Link`
        does not sleep its per-operation latency (:attr:`op_latency`)
        itself: it hands it to :meth:`~repro.hpc.network.Link.send` as
        ``head_ticks``, which the caller sleeps first all the same, and
        which a link of frozen NIC pipes folds into its wire-latency
        timeout.
        """
        raise NotImplementedError

    def teardown(self, client: Endpoint, server: Endpoint) -> None:
        """Release per-pair state (connections, credentials)."""

    def _account(self, nbytes: float) -> None:
        self.bytes_moved += nbytes
        self.operations += 1
