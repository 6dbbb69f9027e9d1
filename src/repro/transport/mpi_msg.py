"""MPI message-passing transport (Decaf's communication layer).

"The communication layer of Decaf is entirely based upon message
passing over MPI, thus being portable across different platforms"
(Section II-A).  Portability costs a small per-byte matching/copy
overhead relative to raw RDMA, but consumes no RDMA registrations,
credentials or extra socket descriptors.
"""

from __future__ import annotations

from typing import Generator

from ..sim.engine import _TICK_SCALE
from .base import Endpoint, Transport


class MpiMsgTransport(Transport):
    """Two-sided MPI send/recv as a byte mover."""

    name = "mpi"
    overhead_factor = 1.08
    op_latency = 5.0e-6

    def move(
        self,
        src: Endpoint,
        dst: Endpoint,
        nbytes: float,
        src_registered: bool = False,
        dst_registered: bool = False,
        tail_ticks: int = 0,
    ) -> Generator:
        link = self.cluster.link(
            src.node, dst.node, overhead_factor=self.overhead_factor
        )
        yield from link.send(
            nbytes, tail_ticks,
            head_ticks=round(self.op_latency * _TICK_SCALE),
        )
        self._account(nbytes)
