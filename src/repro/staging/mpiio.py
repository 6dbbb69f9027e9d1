"""MPI-IO baseline: post-processing through the parallel filesystem.

"For comparison, we also discuss the MPI-IO method, which dumps data
from the simulation directly to persistent storage" (Section III-B).
The paper ran it through ADIOS with ``lfs setstripe -stripe-size 1m
-stripe-count -1`` and ``stats=off`` (Table I).

Cost structure (the source of MPI-IO's linear end-to-end growth in
Figure 2):

* every *real* writer creates/opens its output each step — metadata
  operations serialized through the machine's few Lustre MDS (4 on
  Titan, 1 on Cori);
* data flows through the fixed pool of OSTs, whose aggregate bandwidth
  does not grow with the processor count;
* analytics must read everything back before computing.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

import numpy as np

from . import calibration as cal
from .base import StagingLibrary, SteadyPlan
from .ndarray import Region
from .store import FragmentStore


class MpiIo(StagingLibrary):
    """File-based coupling via the simulated Lustre filesystem."""

    name = "mpiio"
    has_servers = False

    def __init__(self, *args, stripe_size: int = 1 << 20, stripe_count: int = -1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stripe_size = stripe_size
        self.stripe_count = stripe_count
        self.global_store = FragmentStore()
        self._handles: Dict[int, object] = {}
        #: chaos: a writer rank died and must re-read its checkpoint
        self._restart_pending = False

    def _gate_window(self) -> int:
        # Persistent storage holds every step: no version backpressure.
        return max(self.steps, 1)

    # ----------------------------------------------- steady fast-forward

    def steady_plan(self):
        """Eligible only when the Lustre OST cursor repeats every step.

        Each step's file open advances the round-robin cursor by the
        effective stripe count modulo ``num_osts`` — hidden state a
        fingerprint pair cannot see unless the advance is zero (i.e.
        ``stripe_count=-1`` or any multiple of the OST pool, so every
        version lands on the same OSTs).  Otherwise decline.
        """
        fs = self.cluster.lustre
        num_osts = fs.spec.num_osts
        eff = self.stripe_count
        if eff == -1 or eff > num_osts:
            eff = num_osts
        if eff % num_osts != 0:
            return None
        return SteadyPlan(warmup=2)

    def steady_state(self, step):
        fs = self.cluster.lustre
        state = super().steady_state(step) + (
            fs._next_ost,
            fs._mds.steady_state(),
            fs.osts_steady_state(),
        )
        if self.config.pmem_checkpoint and self.cluster.pmem is not None:
            state += self.cluster.pmem.steady_state()
        return state

    # ------------------------------------------------------ chaos hooks

    def rank_died(self, kind: str, actor: int) -> None:
        """MPI-IO's unique advantage: every step persists on Lustre.

        With the restart-from-file policy a dead writer simply restarts
        and re-reads the last complete BP file — time overhead, zero
        version loss (Table IV: the only method with a recovery path).
        The restart-from-pmem policy is the same story through the
        persistent-memory tier: the slab survived the death and reads
        back without an MDS round-trip on the tier's fast channel.
        """
        policy = self.recovery
        if (policy is not None and kind == "sim"
                and policy.kind in ("restart-from-file", "restart-from-pmem")):
            self._restart_pending = True
            return  # the rank comes back; not recorded as dead
        super().rank_died(kind, actor)
        if self.gate is not None and kind == "ana":
            self.gate.reader_left()

    def _restart_from_file(self) -> Generator:
        """Process: the restarted writer re-reads its checkpoint slab."""
        self._restart_pending = False
        self.recovery_events += 1
        t0 = self.env.now
        last = self.gate.highest_published() if self.gate is not None else -1
        yield from self._mds_ops(1.0)
        handle = self._handles.get(last)
        if handle is not None:
            nbytes = int(self.variable.nbytes / max(1, self.topology.sim_actors))
            yield self.env.process(self.cluster.lustre.read(handle, 0, nbytes))
        self.recovery_seconds += self.env.now - t0

    def _restart_from_pmem(self, sim_actor: int) -> Generator:
        """Process: re-read the writer's persisted slab from the tier.

        Two savings over :meth:`_restart_from_file`: the open costs
        microseconds instead of a contended MDS round-trip, and the
        read channel outruns the Lustre OST pool — the delta the
        extended chaos matrix quantifies.
        """
        self._restart_pending = False
        self.recovery_events += 1
        t0 = self.env.now
        yield from self.cluster.pmem.read(("sim", sim_actor))
        self.recovery_seconds += self.env.now - t0

    # --------------------------------------------------------------- put

    def _mds_ops(self, count: float) -> Generator:
        """Process: ``count`` metadata operations through the MDS pool."""
        fs = self.cluster.lustre
        with fs._mds.request() as req:
            yield req
            env = self.env
            yield env.timeout_at_tick(env._now_tick + round(
                count * fs.spec.mds_op_time * cal._TICK_SCALE
            ))

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

        if self._restart_pending:
            policy = self.recovery
            if (policy is not None and policy.kind == "restart-from-pmem"
                    and self.cluster.pmem is not None):
                yield from self._restart_from_pmem(sim_actor)
            else:
                yield from self._restart_from_file()

        serialize = self._serialize_cost(total)
        if serialize > 0:
            yield self.env.pause(serialize)

        # One file create/open per real writer this actor represents.
        yield from self._mds_ops(self.topology.sim_scale)

        handle = self._handles.get(version)
        if handle is None:
            fs = self.cluster.lustre
            handle = yield self.env.process(
                fs.open(
                    f"/scratch/{var.name}.{version}.bp",
                    stripe_count=self.stripe_count,
                    stripe_size=self.stripe_size,
                )
            )
            self._handles[version] = handle

        offset = region.lb[-1] * var.elem_size  # coarse file placement
        yield self.env.process(
            self.cluster.lustre.write(handle, offset, int(total))
        )

        if self.config.pmem_checkpoint and self.cluster.pmem is not None:
            # Mirror the slab to the persistent-memory tier: the cheap
            # insurance premium restart-from-pmem collects on.
            yield self.env.process(
                self.cluster.pmem.write(("sim", sim_actor), version, int(total))
            )

        self.global_store.put(var, version, region, data)
        self.gate.publish(version)
        self._record_put(total, self.env.now - start, version)

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

        # One open per real reader this actor represents.
        yield from self._mds_ops(self.topology.ana_scale)
        handle = self._handles.get(version)
        if handle is None:
            # Woken by the termination token before any writer opened
            # the version's file: there is nothing to read.
            return 0.0, None
        total = var.region_bytes(region)
        offset = region.lb[-1] * var.elem_size
        yield self.env.process(
            self.cluster.lustre.read(handle, offset, int(total))
        )

        data = self.global_store.assemble(var, version, region)
        self.gate.reader_done(version)
        self._record_get(total, self.env.now - start, version)
        return total, data
