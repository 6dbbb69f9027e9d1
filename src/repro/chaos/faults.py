"""Declarative fault plans and the injector that executes them.

A :class:`FaultPlan` is a frozen, hashable description of *what goes
wrong when* in one coupled run: its repr is part of the run-cache key
(see :attr:`repro.workflows.driver.RunSpec.key`), so a chaos run can
never collide with a clean run — or with a chaos run under a different
plan.

The :class:`FaultInjector` arms the plan's events on the simulation
clock (absolute time) or on library progress (after *k* puts) and fires
them through the chaos hooks the HPC substrate exposes:

==================  ====================================================
fault kind          hook
==================  ====================================================
``server_crash``    ``StagingLibrary.server_crash`` (DataSpaces kills
                    the server node; Decaf aborts the MPI world)
``rank_death``      ``StagingLibrary.rank_died`` (per-library: hang,
                    drain, termination token, or restart-from-file)
``transport_degrade``  ``BandwidthPipe.degrade`` on every booted NIC
``ost_slow``        ``LustreFilesystem.degrade_ost``
``drc_reject``      ``DrcService.reject_until`` (transient rejection)
``pmem_degrade``    ``PmemDevice.degrade`` (controller stall on both
                    channels of the persistent-memory tier)
==================  ====================================================

How a library *reacts* is governed by its :class:`RecoveryPolicy` —
swappable per run, defaulting to the paper-documented semantics in
:data:`DEFAULT_RECOVERY`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..sim.engine import _TICK, _TICK_SCALE

#: the injectable fault kinds, in campaign sweep order.  The first five
#: are the paper's Table IV classes; ``pmem_degrade`` targets the
#: beyond-the-paper persistent-memory tier (``repro.hpc.pmem``).
FAULT_KINDS = (
    "server_crash",
    "rank_death",
    "transport_degrade",
    "ost_slow",
    "drc_reject",
    "pmem_degrade",
)

#: the original five kinds, frozen: the seed-keyed ``chaos_matrix`` /
#: ``chaos_blast`` goldens iterate exactly these, so extending
#: :data:`FAULT_KINDS` must never perturb their rng draw order.
MATRIX_FAULTS = FAULT_KINDS[:5]

#: the cluster part whose pipe rates each rate-changing kind degrades
#: (see :meth:`repro.hpc.cluster.Cluster.freeze_rates`).  The other
#: kinds change no rate: ``server_crash`` only clears ``Node.alive``,
#: ``rank_death`` only edits library state and ``drc_reject`` only sets
#: ``DrcService.reject_until``.  A kind missing here that does degrade a
#: pipe fails loudly: ``BandwidthPipe.degrade`` refuses a frozen pipe.
DEGRADES = {
    "transport_degrade": "nic",
    "ost_slow": "lustre",
    "pmem_degrade": "pmem",
}


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a library reacts once it notices a fault.

    * ``none`` — no failure detection: block forever (bounded only by
      the campaign watchdog -> ``WorkflowHang``);
    * ``timeout-abort`` — give up after ``timeout`` seconds and raise;
    * ``reconnect-backoff`` — retry up to ``max_retries`` times with
      exponential backoff starting at ``backoff`` seconds;
    * ``restart-from-file`` — restart the failed rank from the last
      complete file on persistent storage (MPI-IO only);
    * ``restart-from-pmem`` — restart the failed rank from its slab on
      the persistent-memory tier: the data survived the death, and the
      asymmetric tier reads it back far faster than Lustre (requires a
      machine with a ``PmemSpec`` and ``pmem_checkpoint`` staging).
    """

    kind: str = "none"
    timeout: float = 30.0
    backoff: float = 1.0
    max_retries: int = 3

    VALID_KINDS = ("none", "timeout-abort", "reconnect-backoff",
                   "restart-from-file", "restart-from-pmem")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise ValueError(
                f"unknown recovery kind {self.kind!r}; "
                f"one of {self.VALID_KINDS}"
            )


#: the paper-documented default reaction per library (Table IV /
#: Section VI): DataSpaces has no failure detection at all, DIMES
#: clients time out on their dead peers, Flexpath's pub/sub layer
#: reconnects around dead endpoints, Decaf's dataflow terminates
#: cleanly but detects nothing either, MPI-IO restarts from the last
#: complete BP file.
DEFAULT_RECOVERY = {
    "dataspaces": RecoveryPolicy("none"),
    "dimes": RecoveryPolicy("timeout-abort", timeout=30.0),
    "flexpath": RecoveryPolicy("reconnect-backoff", backoff=1.0, max_retries=5),
    "decaf": RecoveryPolicy("none"),
    "mpiio": RecoveryPolicy("restart-from-file"),
}


@dataclass(frozen=True)
class FaultEvent:
    """One typed fault with its trigger.

    ``after_puts > 0`` arms the event on library progress (it fires
    when the running put count reaches the threshold); otherwise it
    fires at the absolute simulated time ``at``.
    """

    kind: str
    at: float = 0.0
    after_puts: int = 0
    #: server index / actor index / OST index, depending on kind
    target: int = 0
    #: which client group a rank_death hits: "sim" or "ana"
    actor_kind: str = "sim"
    #: severity of transport_degrade / ost_slow (bandwidth divisor)
    factor: float = 4.0
    #: seconds before the degradation/rejection lifts (0 = permanent)
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if self.actor_kind not in ("sim", "ana"):
            raise ValueError(f"actor_kind must be 'sim' or 'ana'")

    def describe(self) -> str:
        trigger = (
            f"after {self.after_puts} puts" if self.after_puts > 0
            else f"at t={self.at:g}s"
        )
        return f"{self.kind}({self.target}) {trigger}"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault events for one run."""

    events: Tuple[FaultEvent, ...] = ()
    #: simulated seconds after which a non-finishing run is declared
    #: hung (-> WorkflowHang)
    watchdog: float = 600.0

    def __post_init__(self) -> None:
        if self.watchdog <= 0:
            raise ValueError("watchdog must be positive")
        # Tolerate lists in hand-written plans; freeze to a tuple.
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    def describe(self) -> str:
        return "; ".join(e.describe() for e in self.events) or "no events"

    @property
    def degraded_parts(self) -> frozenset:
        """The cluster parts whose pipe rates this plan can change."""
        return frozenset(
            DEGRADES[e.kind] for e in self.events if e.kind in DEGRADES
        )


#: every class of the :mod:`repro.hpc.failures` taxonomy, mapped to the
#: fault kind that can raise it through injection — or a documented
#: exclusion explaining why injection is the wrong reproduction path.
#: ``tests/test_chaos_faults.py`` asserts this map stays complete.
TAXONOMY = {
    "HpcError": "excluded: abstract base class, never raised directly",
    "OutOfRdmaMemory": (
        "excluded: resource-exhaustion failure, reproduced analytically "
        "by StagingLibrary.validate_at_scale (Figure 3)"
    ),
    "OutOfRdmaHandlers": (
        "excluded: resource-exhaustion failure, reproduced analytically "
        "by StagingLibrary.validate_at_scale (Figure 4)"
    ),
    "DimensionOverflow": (
        "excluded: configuration failure (dim_bits=32), reproduced by "
        "Variable.check_dims at bootstrap"
    ),
    "OutOfMemory": (
        "excluded: resource-exhaustion failure, reproduced analytically "
        "by StagingLibrary.validate_at_scale (Finding 8)"
    ),
    "OutOfSockets": (
        "excluded: resource-exhaustion failure, reproduced analytically "
        "by StagingLibrary.validate_at_scale (Table IV)"
    ),
    "DrcOverload": (
        "excluded: capacity failure of the credential service, "
        "reproduced analytically from the startup request burst"
    ),
    "DrcPolicyViolation": (
        "excluded: placement-policy failure, reproduced by DrcService "
        "when shared-node runs request credentials (Finding 5)"
    ),
    "SchedulerPolicyViolation": (
        "excluded: placement-policy failure, reproduced by Placement "
        "at job launch"
    ),
    "TransportError": "transport_degrade",
    "NodeFailure": "server_crash",
    "DataLoss": "rank_death",
    "StagingServerCrashed": "server_crash",
    "CredentialRejected": "drc_reject",
    "WorkflowHang": "server_crash",
    "PmemDeviceFailure": "pmem_degrade",
}


class FaultInjector:
    """Arms a :class:`FaultPlan` against one live simulated run."""

    def __init__(self, env, cluster, library, plan: FaultPlan,
                 trace=None) -> None:
        self.env = env
        self.cluster = cluster
        self.library = library
        self.plan = plan
        self.trace = trace
        #: (time, kind) of every fault actually fired
        self.injected: List[Tuple[float, str]] = []

    def start(self) -> None:
        """Schedule every event of the plan.

        Absolute fire times quantize onto the 2^-32 s tick grid up
        front — the plan's float ``at`` becomes an integer deadline, so
        a fault time is a tick everywhere downstream.
        """
        env = self.env
        for event in self.plan.events:
            if event.after_puts > 0 and self.library is not None:
                self._arm_put_watcher(event)
            else:
                tick = round(event.at * _TICK_SCALE)
                if tick < env._now_tick:
                    tick = env._now_tick
                done = env.timeout_at_tick(tick)
                done.callbacks.append(
                    lambda _ev, ev=event: self._fire(ev)
                )

    def describe(self) -> str:
        return self.plan.describe()

    # ------------------------------------------------------------ firing

    def _arm_put_watcher(self, event: FaultEvent) -> None:
        def watcher(puts: int, event=event) -> None:
            if puts >= event.after_puts:
                self.library._put_watchers.remove(watcher)
                self._fire(event)

        self.library._put_watchers.append(watcher)

    def _fire(self, event: FaultEvent) -> None:
        self.injected.append((self.env.now, event.kind))
        if self.trace is not None:
            self.trace.record(
                "chaos", "fault", self.env.now, self.env.now
            )
        getattr(self, "_inject_" + event.kind)(event)

    def _inject_server_crash(self, event: FaultEvent) -> None:
        if self.library is not None:
            self.library.server_crash(event.target)

    def _inject_rank_death(self, event: FaultEvent) -> None:
        if self.library is None:
            return
        topo = self.library.topology
        count = (topo.sim_actors if event.actor_kind == "sim"
                 else topo.ana_actors)
        self.library.rank_died(event.actor_kind, event.target % count)

    def _at_duration_tick(self, duration: float, fn) -> None:
        """Run ``fn()`` ``duration`` seconds from now, in tick arithmetic."""
        env = self.env
        done = env.timeout_at_tick(
            env._now_tick + round(duration * _TICK_SCALE)
        )
        done.callbacks.append(lambda _ev: fn())

    def _inject_transport_degrade(self, event: FaultEvent) -> None:
        for node in self.cluster.booted_nodes:
            node.nic.degrade(event.factor)
        if event.duration > 0:
            self._at_duration_tick(event.duration, self._restore_nics)

    def _restore_nics(self) -> None:
        for node in self.cluster.booted_nodes:
            node.nic.restore()

    def _inject_ost_slow(self, event: FaultEvent) -> None:
        self.cluster.lustre.degrade_ost(event.target, event.factor)
        if event.duration > 0:
            self._at_duration_tick(
                event.duration, self.cluster.lustre.restore_osts
            )

    def _inject_pmem_degrade(self, event: FaultEvent) -> None:
        pmem = self.cluster.pmem
        if pmem is None:
            return  # machine has no persistent-memory tier: nothing to hit
        pmem.degrade(event.factor)
        if event.duration > 0:
            self._at_duration_tick(event.duration, pmem.restore)

    def _inject_drc_reject(self, event: FaultEvent) -> None:
        drc = self.cluster.drc
        if drc is None:
            return  # machine has no credential service: nothing to hit
        window = event.duration if event.duration > 0 else self.plan.watchdog
        # The rejection deadline sits on the tick grid like every
        # scheduled time it will be compared against.
        drc.reject_until = (
            self.env._now_tick + round(window * _TICK_SCALE)
        ) * _TICK
