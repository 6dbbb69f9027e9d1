"""DART — the communication substrate beneath DataSpaces/DIMES.

"DataSpaces ... utilizes DART as the underlying communication layer to
achieve highly-optimized data movement over interconnect" (Section
II-A; DART is Docan et al., HPDC'08).  DART provides:

* a **server directory** — staging servers register at bootstrap and
  clients discover them before any data movement;
* **client registration** — every client performs a handshake with its
  assigned server (the connection state whose descriptors/credentials
  the resource models account for);
* **RPC** — small control messages with a round trip;
* **bulk transfers** — one-sided put/get over the configured transport.

DataSpaces and DIMES drive all their communication through a
:class:`DartInstance`, which also centralizes the transfer statistics.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

from ..sim import Environment
from ..transport import Endpoint, Transport
from . import calibration as cal


class DartError(Exception):
    """Raised on protocol misuse (unregistered peers, bad server ids)."""


class DartServerEntry:
    """One server's directory record."""

    __slots__ = ("server_id", "endpoint", "registered_clients")

    def __init__(self, server_id: int, endpoint: Endpoint) -> None:
        self.server_id = server_id
        self.endpoint = endpoint
        self.registered_clients = 0


class DartInstance:
    """A bootstrapped DART layer: directory + RPC + bulk movement."""

    #: bytes of a control message (registration, lock, metadata update)
    CONTROL_BYTES = 256

    def __init__(self, env: Environment, transport: Transport) -> None:
        self.env = env
        self.transport = transport
        self._directory: Dict[int, DartServerEntry] = {}
        self._registered: Dict[Tuple[int, str], int] = {}
        self.rpcs = 0
        self.bulk_ops = 0
        self.bulk_bytes = 0.0

    # -------------------------------------------------------- directory

    def add_server(self, server_id: int, endpoint: Endpoint) -> None:
        """Register a staging server in the directory (bootstrap)."""
        if server_id in self._directory:
            raise DartError(f"server {server_id} already in the directory")
        self._directory[server_id] = DartServerEntry(server_id, endpoint)

    def server(self, server_id: int) -> DartServerEntry:
        try:
            return self._directory[server_id]
        except KeyError:
            raise DartError(f"unknown DART server {server_id}") from None

    @property
    def num_servers(self) -> int:
        return len(self._directory)

    # ------------------------------------------------------ registration

    def register_client(self, client: Endpoint, server_id: int) -> Generator:
        """Process: the client/server handshake (rpc round trip)."""
        entry = self.server(server_id)
        yield from self.rpc(client, entry.endpoint)
        entry.registered_clients += 1
        key = (client.node.node_id, client.owner)
        self._registered[key] = server_id

    def is_registered(self, client: Endpoint) -> bool:
        return (client.node.node_id, client.owner) in self._registered

    # -------------------------------------------------------------- RPC

    def rpc(self, src: Endpoint, dst: Endpoint) -> Generator:
        """Process: a small control round trip src -> dst -> src.

        The moves stay wrapped in processes: inlining them reorders
        concurrent control messages racing for shared pipes.
        """
        yield self.env.process(
            self.transport.move(
                src, dst, self.CONTROL_BYTES,
                src_registered=True, dst_registered=True,
            )
        )
        yield self.env.process(
            self.transport.move(
                dst, src, self.CONTROL_BYTES,
                src_registered=True, dst_registered=True,
            )
        )
        self.rpcs += 1

    # ----------------------------------------------------- bulk movement

    def bulk_put(
        self,
        client: Endpoint,
        server_id: int,
        nbytes: float,
        tail_ticks: int = 0,
    ) -> Generator:
        """Process: one-sided put of ``nbytes`` into a server.

        ``tail_ticks`` folds a fixed follow-up latency (the caller's
        metadata-update RPC) into the transfer's completion event — see
        :meth:`repro.transport.base.Transport.move`.
        """
        entry = self.server(server_id)
        yield from self.transport.move(
            client, entry.endpoint, nbytes,
            src_registered=True, dst_registered=True,
            tail_ticks=tail_ticks,
        )
        self.bulk_ops += 1
        self.bulk_bytes += nbytes

    def bulk_get(self, client: Endpoint, server_id: int, nbytes: float) -> Generator:
        """Process: one-sided get of ``nbytes`` from a server."""
        entry = self.server(server_id)
        yield from self.transport.move(
            entry.endpoint, client, nbytes,
            src_registered=True, dst_registered=True,
        )
        self.bulk_ops += 1
        self.bulk_bytes += nbytes

    def peer_move(self, src: Endpoint, dst: Endpoint, nbytes: float) -> Generator:
        """Process: direct memory-to-memory transfer (the DIMES path)."""
        yield from self.transport.move(
            src, dst, nbytes,
            src_registered=True, dst_registered=True,
        )
        self.bulk_ops += 1
        self.bulk_bytes += nbytes
