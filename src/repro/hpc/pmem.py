"""Persistent-memory (Optane-like) staging tier.

A :class:`PmemDevice` models the NVDIMM pools of Subedi et al. ("Using
Intel Optane Devices for In-situ Data Staging in HPC Workflows"): a
capacity tier between node DRAM and Lustre with three properties the
paper's five libraries cannot offer:

* **asymmetric bandwidth** — reads run ~3x faster than writes (two
  independent :class:`~repro.hpc.network.BandwidthPipe` channels, so
  checkpoint writes never queue behind restart reads);
* **no metadata service** — byte-addressable slabs are opened in
  microseconds (:attr:`PmemSpec.op_time`), not through the contended
  Lustre MDS;
* **persistence across rank and server death** — :meth:`store`
  bookkeeping survives any chaos fault; nothing in the failure model
  clears it, which is exactly what the ``restart-from-pmem`` recovery
  policy exploits.

The device is built lazily by :class:`~repro.hpc.cluster.Cluster`
(machines without a :class:`~repro.hpc.machines.PmemSpec` never pay for
one) and honors the frozen-rate contract: unless the run's fault plan
has a ``pmem_degrade``, both channels resolve transfers arithmetically,
event-free.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

from ..sim import Environment
from .failures import PmemDeviceFailure
from .machines import PmemSpec
from .network import BandwidthPipe


class PmemDevice:
    """One machine-wide persistent-memory pool."""

    def __init__(self, env: Environment, spec: PmemSpec) -> None:
        self.env = env
        self.spec = spec
        self.read_pipe = BandwidthPipe(env, spec.read_bandwidth, name="pmem-rd")
        self.write_pipe = BandwidthPipe(env, spec.write_bandwidth, name="pmem-wr")
        #: latest persisted slab per (component, owner): version -> bytes
        self._slabs: Dict[Tuple[str, int], Tuple[int, int]] = {}
        self.used_bytes = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.slabs_stored = 0

    # -- rate contract --------------------------------------------------

    def freeze_rates(self) -> None:
        """Promise neither channel is ever degraded (no ``pmem_degrade``)."""
        self.read_pipe.freeze_rate()
        self.write_pipe.freeze_rate()

    def degrade(self, factor: float) -> None:
        """Chaos: slow both channels by ``factor`` (controller stall)."""
        self.read_pipe.degrade(factor)
        self.write_pipe.degrade(factor)

    def restore(self) -> None:
        """Chaos: return both channels to nominal rate."""
        self.read_pipe.restore()
        self.write_pipe.restore()

    def steady_state(self) -> tuple:
        """Boundary fingerprint: both channels plus the capacity ledger."""
        return (
            self.read_pipe.steady_state()
            + self.write_pipe.steady_state()
            + (self.used_bytes, len(self._slabs))
        )

    # -- data path ------------------------------------------------------

    def write(self, owner: Tuple[str, int], version: int, nbytes: int) -> Generator:
        """Process: persist ``nbytes`` as ``owner``'s slab at ``version``.

        Checkpoint rotation: the owner's previous slab is released the
        instant the new one lands, so steady-state occupancy is one
        slab per owner — how libraries keep a restart point without
        growing the tier without bound.
        """
        if nbytes < 0:
            raise ValueError(f"negative pmem write size {nbytes}")
        prev = self._slabs.get(owner)
        prev_bytes = prev[1] if prev is not None else 0
        if self.used_bytes - prev_bytes + nbytes > self.spec.capacity_bytes:
            raise PmemDeviceFailure(
                f"pmem tier full: {self.used_bytes - prev_bytes + nbytes} "
                f"> {self.spec.capacity_bytes} bytes"
            )
        yield self.env.pause(self.spec.op_time)
        yield from self.write_pipe.transmit(nbytes)
        self._slabs[owner] = (version, nbytes)
        self.used_bytes += nbytes - prev_bytes
        self.bytes_written += nbytes
        self.slabs_stored += 1

    def read(self, owner: Tuple[str, int]) -> Generator:
        """Process: load ``owner``'s persisted slab; ``(version, nbytes)``.

        Returns ``(None, 0)`` without touching the pipes when the owner
        never persisted anything — a restart policy then falls back to
        recomputing from scratch.
        """
        slab = self._slabs.get(owner)
        if slab is None:
            return None, 0
        version, nbytes = slab
        yield self.env.pause(self.spec.op_time)
        yield from self.read_pipe.transmit(nbytes)
        self.bytes_read += nbytes
        return version, nbytes

    def slab_version(self, owner: Tuple[str, int]):
        """The persisted version for ``owner`` (None if absent) — free."""
        slab = self._slabs.get(owner)
        return slab[0] if slab is not None else None
