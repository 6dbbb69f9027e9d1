"""TCP socket transport.

"The performance loss incurred by socket is mainly due to the cost of
memory copy across the network stack" (Section III-B5) — modeled as a
per-byte ``overhead_factor``.  Every client/server pair holds an open
connection, consuming a descriptor on both ends; exhausting a staging
server's descriptor table raises
:class:`~repro.hpc.failures.OutOfSockets`, reproducing the failures the
paper saw beyond (1024, 512).

Table IV's suggested resolve — "design a socket pool that is
responsible for communication so that only a small number of sockets
are used.  However, this may compromise the data movement efficiency" —
is implemented as ``pool_size``: each process multiplexes all its
logical channels over at most that many descriptors, at a per-move
multiplexing latency penalty.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..hpc.cluster import Cluster
from ..hpc.sockets import Connection
from ..sim.engine import _TICK_SCALE
from .base import Endpoint, Transport


class TcpTransport(Transport):
    """Socket-based transport with kernel-stack copy overhead."""

    name = "tcp"
    # IP-over-Gemini/Aries historically delivers a small fraction of the
    # native RDMA rate: the kernel stack copies every byte twice and the
    # NIC cannot offload.  4x per-byte cost ~ 1.4 GB/s effective on
    # Titan, in line with measured IPoGemini throughput.
    overhead_factor = 4.0
    op_latency = 25.0e-6
    #: extra per-move latency when a pooled connection is shared
    mux_latency = 100.0e-6

    def __init__(self, cluster: Cluster, pool_size: Optional[int] = None) -> None:
        super().__init__(cluster)
        if pool_size is not None and pool_size < 1:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self._connections: Dict[Tuple[int, str, int, str], Connection] = {}
        #: (node_id, owner) -> pooled connections, round-robin reused
        self._pools: Dict[Tuple[int, str], List[Connection]] = {}
        self.multiplexed_moves = 0

    @staticmethod
    def _key(a: Endpoint, b: Endpoint) -> Tuple[int, str, int, str]:
        ka = (a.node.node_id, a.owner)
        kb = (b.node.node_id, b.owner)
        return ka + kb if ka <= kb else kb + ka

    def _ensure_connection(self, a: Endpoint, b: Endpoint) -> Connection:
        key = self._key(a, b)
        conn = self._connections.get(key)
        if conn is not None and not conn.closed:
            return conn
        if self.pool_size is not None:
            conn = self._pooled_connection(a, b)
        else:
            table_a = a.node.socket_table(a.owner)
            table_b = b.node.socket_table(b.owner)
            conn = table_a.connect(table_b)
        self._connections[key] = conn
        return conn

    def _pooled_connection(self, a: Endpoint, b: Endpoint) -> Connection:
        """Reuse one of at most ``pool_size`` descriptors per process."""
        pool_key = (b.node.node_id, b.owner)
        pool = self._pools.setdefault(pool_key, [])
        if len(pool) < self.pool_size:
            table_a = a.node.socket_table(a.owner)
            table_b = b.node.socket_table(b.owner)
            conn = table_a.connect(table_b)
            pool.append(conn)
            return conn
        # The pool is full: multiplex onto an existing descriptor.
        self.multiplexed_moves += 1
        return pool[self.multiplexed_moves % len(pool)]

    def setup(self, client: Endpoint, server: Endpoint) -> Generator:
        """Process: establish the connection (three-way handshake cost)."""
        self._ensure_connection(client, server)
        yield self.env.pause(3 * self.op_latency)

    def move(
        self,
        src: Endpoint,
        dst: Endpoint,
        nbytes: float,
        src_registered: bool = False,
        dst_registered: bool = False,
        tail_ticks: int = 0,
    ) -> Generator:
        conn = self._ensure_connection(src, dst)
        latency = self.op_latency
        if self.pool_size is not None and self._is_pooled(conn):
            # Sharing a descriptor serializes framing/demux in software
            # — the efficiency compromise Table IV warns about.
            latency += self.mux_latency
        link = self.cluster.link(
            src.node, dst.node, overhead_factor=self.overhead_factor
        )
        yield from link.send(nbytes, head_ticks=round(latency * _TICK_SCALE))
        self._account(nbytes)
        if tail_ticks:
            # After all connection bookkeeping: pooled-descriptor reuse
            # order must not shift, so the tail stays a separate sleep.
            env = self.env
            yield env.timeout_at_tick(env._now_tick + tail_ticks)

    def teardown(self, client: Endpoint, server: Endpoint) -> None:
        conn = self._connections.pop(self._key(client, server), None)
        if conn is not None:
            conn.close()

    def _is_pooled(self, conn: Connection) -> bool:
        for pool in self._pools.values():
            if conn in pool:
                return True
        return False

    @property
    def open_connections(self) -> int:
        unique = {id(c) for c in self._connections.values() if not c.closed}
        return len(unique)
