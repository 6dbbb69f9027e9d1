"""RDMA transports: Cray uGNI, Sandia NNTI and generic verbs.

uGNI is the proprietary low-level interface DataSpaces/DIMES use on
Cray machines; NNTI is the portability layer Flexpath (EVPath) goes
through.  Both move bytes zero-copy, but every transfer buffer must be
*registered* against the node's :class:`~repro.hpc.rdma.RdmaPool`
(which can fail hard — Finding "out of RDMA memory"), and on machines
whose interconnect requires it, a DRC credential must be acquired per
job and node before the first transfer (Section III-B1).
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

from ..hpc.cluster import Cluster
from ..hpc.failures import CredentialRejected
from ..sim.engine import _TICK_SCALE
from .base import Endpoint, Transport


class RdmaTransport(Transport):
    """Zero-copy transport over a registered-memory interconnect API."""

    #: api name -> (per-byte overhead, per-op latency seconds)
    APIS = {
        "ugni": (1.0, 2.0e-6),
        "nnti": (1.06, 4.0e-6),   # portability layer over uGNI
        "verbs": (1.02, 3.0e-6),  # InfiniBand verbs
    }

    def __init__(self, cluster: Cluster, api: str = "ugni") -> None:
        super().__init__(cluster)
        try:
            self.overhead_factor, self.op_latency = self.APIS[api]
        except KeyError:
            raise ValueError(
                f"unknown RDMA api {api!r}; available: {sorted(self.APIS)}"
            ) from None
        self.name = api
        #: (job_id, node_id) -> credential, for DRC-gated interconnects
        self._credentials: Dict[Tuple[str, int], object] = {}
        #: chaos: (backoff_seconds, max_retries) — retry transiently
        #: rejected DRC requests instead of failing the workflow
        self.credential_retry = None

    def _ensure_credential(self, endpoint: Endpoint) -> Generator:
        """Process: acquire a DRC credential if the machine requires it."""
        drc = self.cluster.drc
        if drc is None:
            return
        key = (endpoint.job_id, endpoint.node.node_id)
        if key in self._credentials:
            return
        attempts = 0
        while True:
            try:
                # NOTE: must stay a wrapped process, not ``yield from``:
                # inlining would reorder concurrent credential requests
                # racing for the single DRC server and shift every Cori
                # timing.
                credential = yield self.env.process(
                    drc.acquire(endpoint.job_id, endpoint.node.node_id)
                )
            except CredentialRejected:
                if self.credential_retry is None:
                    raise
                backoff, max_retries = self.credential_retry
                if attempts >= max_retries:
                    raise
                yield self.env.pause(backoff * (2 ** attempts))
                attempts += 1
                continue
            break
        self._credentials[key] = credential

    def setup(self, client: Endpoint, server: Endpoint) -> Generator:
        """Process: credential acquisition for both endpoints."""
        yield from self._ensure_credential(client)
        yield from self._ensure_credential(server)

    def move(
        self,
        src: Endpoint,
        dst: Endpoint,
        nbytes: float,
        src_registered: bool = False,
        dst_registered: bool = False,
        tail_ticks: int = 0,
    ) -> Generator:
        if self.cluster.drc is not None:
            yield from self._ensure_credential(src)
            yield from self._ensure_credential(dst)

        # Transient registrations for any side without a resident buffer.
        # uGNI acquires synchronously and fails hard on exhaustion.
        handles = []
        if tail_ticks and (not src_registered or not dst_registered):
            # Folding the tail into the transfer would hold transient
            # registrations through it (the finally below) and shift
            # RDMA-pool pressure; keep the two-event form instead.
            fold = 0
        else:
            fold = tail_ticks
        try:
            if not src_registered:
                handles.append(src.node.rdma.register(nbytes))
            if not dst_registered and dst.node is not src.node:
                handles.append(dst.node.rdma.register(nbytes))
            link = self.cluster.link(
                src.node, dst.node, overhead_factor=self.overhead_factor
            )
            yield from link.send(
                nbytes, fold, head_ticks=round(self.op_latency * _TICK_SCALE)
            )
        finally:
            for handle in handles:
                handle.pool.deregister(handle)
        self._account(nbytes)
        if tail_ticks and not fold:
            env = self.env
            yield env.timeout_at_tick(env._now_tick + tail_ticks)

    def teardown(self, client: Endpoint, server: Endpoint) -> None:
        drc = self.cluster.drc
        if drc is None:
            return
        for endpoint in (client, server):
            key = (endpoint.job_id, endpoint.node.node_id)
            credential = self._credentials.pop(key, None)
            if credential is not None:
                drc.release(credential, endpoint.node.node_id)
