"""Chaos campaigns: fault type x injection point x library, as a matrix.

The paper's robustness story (Section VI, Table IV) is qualitative:
DataSpaces has no failure detection, Flexpath degrades gracefully,
Decaf terminates cleanly, only MPI-IO can actually recover.  A chaos
campaign makes those claims *quantitative*: :func:`build_campaign`
derives a deterministic sweep of typed faults from one seed,
:func:`run_campaign` executes it and emits three machine-checked tables:

* ``chaos_matrix`` — one row per (fault, library) cell: outcome
  (``completed`` / ``degraded`` / ``aborted`` / ``hung-then-aborted``),
  time overhead against the clean baseline, data loss in versions, and
  recovery actions taken;
* ``chaos_blast`` — the blast radius per fault kind across all five
  libraries, keyed to the Table IV row (or Section VI prose) it
  quantifies;
* ``chaos_matrix_ext`` — the persistent-memory tier sweep.

The tables are always built by the serial replay of
:func:`repro.exec.build_tables`, so ``repro chaos --service ADDR``,
whose points run on a daemon, exports the serial run's bytes.
"""

from __future__ import annotations

import os
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.results import TableResult
from ..staging.base import StagingConfig
from .faults import (
    MATRIX_FAULTS,
    FaultEvent,
    FaultPlan,
    RecoveryPolicy,
)

#: the five staging methods of the paper's comparison (Section II)
CHAOS_LIBRARIES = ("dataspaces", "dimes", "flexpath", "decaf", "mpiio")

#: one small coupled cell, shared by every campaign run: 8 writers and
#: 4 readers, one actor per rank so rank deaths hit real actors
CELL = dict(
    workflow="lammps",
    nsim=8,
    nana=4,
    steps=5,
    topology_overrides=dict(sim_ranks_per_node=1, ana_ranks_per_node=1),
)

#: simulated seconds before a stalled run is declared hung — the clean
#: cell finishes in ~110 s (Titan) / ~170 s (Cori)
WATCHDOG = 600.0

#: which Table IV row (or paper section) each fault kind quantifies
TABLE4_ANCHOR = {
    "server_crash": "Section VI: 'the whole workflow will be stalled'",
    "rank_death": "Table IV: no recovery path except MPI-IO",
    "transport_degrade": "Section III-B1: interconnect contention",
    "ost_slow": "Table I: shared Lustre OST pool",
    "drc_reject": "Table IV row 'Out of DRC'",
}

#: outcome -> blast-radius category (worst across libraries wins)
BLAST = {
    "completed": "none",
    "degraded": "partial",
    "aborted": "workflow",
    "hung-then-aborted": "workflow",
}
_BLAST_ORDER = ("none", "partial", "workflow")


def _machine_for(fault: str) -> str:
    # DRC credentials only exist on Cori's Aries interconnect.
    return "cori" if fault == "drc_reject" else "titan"


def _plan_for(fault: str, rng: random.Random) -> FaultPlan:
    """One deterministic plan per fault kind, shared by all libraries.

    Sharing the plan across the row keeps the comparison honest: every
    library faces the identical fault at the identical point.  Progress
    triggers (``after_puts``) land mid-run regardless of library speed;
    absolute times are drawn inside the clean cell's steady state.
    """
    if fault == "server_crash":
        event = FaultEvent(fault, after_puts=rng.randint(12, 20), target=0)
    elif fault == "rank_death":
        event = FaultEvent(
            fault,
            after_puts=rng.randint(12, 20),
            target=rng.randrange(CELL["nsim"]),
            actor_kind="sim",
        )
    elif fault == "transport_degrade":
        event = FaultEvent(fault, at=round(rng.uniform(20.0, 60.0), 3), factor=32.0)
    elif fault == "ost_slow":
        event = FaultEvent(
            fault,
            at=round(rng.uniform(20.0, 60.0), 3),
            target=rng.randrange(4),
            factor=32.0,
        )
    elif fault == "drc_reject":
        # The window covers the first credential acquisitions (~t=36,
        # first put after one sim step): reconnect-with-backoff outlasts
        # it, anything without retries fails its first acquisition.
        event = FaultEvent(fault, at=0.0, duration=40.0)
    else:  # pragma: no cover - FAULT_KINDS is closed
        raise ValueError(f"unknown fault kind {fault!r}")
    return FaultPlan(events=(event,), watchdog=WATCHDOG)


def build_campaign(seed: int) -> List[Dict[str, Any]]:
    """The deterministic cell list: every fault kind x every library.

    Pure in the seed — the same seed always yields the same plans, so
    campaign results are cacheable and byte-reproducible.
    """
    rng = random.Random(seed)
    cells: List[Dict[str, Any]] = []
    # MATRIX_FAULTS, not FAULT_KINDS: the rng draw order behind the
    # committed goldens is frozen to the paper's five kinds.  The
    # beyond-the-paper tier sweeps in chaos_matrix_ext instead.
    for fault in MATRIX_FAULTS:
        plan = _plan_for(fault, rng)
        machine = _machine_for(fault)
        for library in CHAOS_LIBRARIES:
            cells.append(
                dict(fault=fault, library=library, machine=machine, plan=plan)
            )
    return cells


def _classify(result) -> str:
    if result.failure:
        exc_name = result.failure.split(":", 1)[0]
        if exc_name == "WorkflowHang":
            return "hung-then-aborted"
        return "aborted"
    if result.versions_lost > 0:
        return "degraded"
    return "completed"


def _run_cells(seed: int) -> List[Dict[str, Any]]:
    """Execute the whole campaign; returns one record per cell.

    This is the only function that calls ``run_coupled``, so it doubles
    as the experiment runner :func:`repro.exec.execute_parallel` plans
    against — it must tolerate the planner's placeholder results (they
    classify as ``completed`` and are discarded with the planning pass).
    """
    from ..workflows import run_coupled

    cells = build_campaign(seed)
    baselines: Dict[Tuple[str, str], Any] = {}
    for machine in sorted({c["machine"] for c in cells}):
        for library in CHAOS_LIBRARIES:
            baselines[(machine, library)] = run_coupled(
                machine=machine, method=library, **CELL
            )

    records: List[Dict[str, Any]] = []
    for cell in cells:
        result = run_coupled(
            machine=cell["machine"],
            method=cell["library"],
            fault_plan=cell["plan"],
            **CELL,
        )
        baseline = baselines[(cell["machine"], cell["library"])]
        outcome = _classify(result)
        overhead: Optional[float] = None
        if outcome in ("completed", "degraded") and baseline.ok:
            overhead = round(
                100.0 * (result.end_to_end - baseline.end_to_end)
                / baseline.end_to_end,
                1,
            )
            overhead += 0.0  # normalize -0.0 for stable rendering
        records.append(
            dict(
                fault=cell["fault"],
                library=cell["library"],
                machine=cell["machine"],
                trigger=cell["plan"].describe(),
                outcome=outcome,
                time_overhead_pct=overhead,
                versions_lost=result.versions_lost,
                recovery_events=result.recovery_events,
                failure=(result.failure or "").split(":", 1)[0],
            )
        )
    return records


def chaos_matrix(seed: int) -> TableResult:
    """The (fault x library) outcome matrix."""
    table = TableResult(
        ident="chaos-matrix",
        title=f"Chaos campaign outcomes (seed {seed})",
        columns=[
            "fault", "library", "machine", "trigger", "outcome",
            "time_overhead_pct", "versions_lost", "recovery_events",
            "failure",
        ],
    )
    for record in _run_cells(seed):
        table.add(**record)
    table.note(
        "outcome: completed (no loss) / degraded (lost versions) / "
        "aborted (diagnosable error) / hung-then-aborted (no failure "
        "detection; killed by the watchdog)"
    )
    table.note(
        f"cell: {CELL['workflow']} ({CELL['nsim']},{CELL['nana']}) x "
        f"{CELL['steps']} steps, one rank per node; watchdog "
        f"{WATCHDOG:g} s"
    )
    return table


def chaos_blast(seed: int) -> TableResult:
    """Blast radius per fault kind, keyed to the Table IV row it
    quantifies."""
    table = TableResult(
        ident="chaos-blast",
        title=f"Blast radius per fault (seed {seed})",
        columns=["fault", "paper_anchor", *CHAOS_LIBRARIES, "blast_radius"],
    )
    records = _run_cells(seed)
    for fault in MATRIX_FAULTS:
        row: Dict[str, Any] = {"fault": fault, "paper_anchor": TABLE4_ANCHOR[fault]}
        worst = "none"
        for record in records:
            if record["fault"] != fault:
                continue
            row[record["library"]] = record["outcome"]
            category = BLAST[record["outcome"]]
            if _BLAST_ORDER.index(category) > _BLAST_ORDER.index(worst):
                worst = category
        row["blast_radius"] = worst
        table.add(**row)
    table.note(
        "blast_radius: worst outcome across the five libraries "
        "(none < partial < workflow)"
    )
    return table


#: the beyond-the-paper tier sweep: the two libraries with a restart
#: path, each plain and with the persistent-memory checkpoint tier
EXT_LIBRARIES = ("mpiio", "sst")
EXT_TIERS = ("plain", "pmem")
EXT_FAULTS = ("rank_death", "pmem_degrade")


def _ext_config(library: str, pmem: bool) -> StagingConfig:
    # Both libraries run through ADIOS; SST keeps its native RDMA
    # transport while MPI-IO writes through the MPI/Lustre path.
    return StagingConfig(
        transport="mpi" if library == "mpiio" else "ugni",
        use_adios=True,
        pmem_checkpoint=pmem,
    )


def _ext_recovery_label(library: str, tier: str) -> str:
    if tier == "pmem":
        return "restart-from-pmem"
    if library == "mpiio":
        return "restart-from-file"  # DEFAULT_RECOVERY
    return "drain"  # SST's legacy semantics: finish around the hole


def _ext_plan_for(fault: str, rng: random.Random) -> FaultPlan:
    """One deterministic plan per extended fault, shared across cells."""
    if fault == "rank_death":
        event = FaultEvent(
            fault,
            after_puts=rng.randint(12, 20),
            target=rng.randrange(CELL["nsim"]),
            actor_kind="sim",
        )
    elif fault == "pmem_degrade":
        # A transient controller stall: both tier channels slow 32x for
        # 40 s.  Only runs that actually tenant the tier feel it — the
        # plain rows are the control group.
        event = FaultEvent(
            fault, at=round(rng.uniform(20.0, 60.0), 3),
            factor=32.0, duration=40.0,
        )
    else:  # pragma: no cover - EXT_FAULTS is closed
        raise ValueError(f"unknown extended fault kind {fault!r}")
    return FaultPlan(events=(event,), watchdog=WATCHDOG)


def _run_ext_cells(seed: int) -> List[Dict[str, Any]]:
    """Execute the extended (fault x library x tier) sweep on Titan.

    A separate rng stream (seeded off the campaign seed) keeps the
    frozen ``chaos_matrix`` draw order untouched.  Baselines are per
    (library, tier): the pmem rows pay their mirror-write premium in
    the baseline too, so overhead isolates the fault, not the tier.
    """
    from ..workflows import run_coupled

    rng = random.Random(f"ext-{seed}")
    plans = {fault: _ext_plan_for(fault, rng) for fault in EXT_FAULTS}

    baselines: Dict[Tuple[str, str], Any] = {}
    for library in EXT_LIBRARIES:
        for tier in EXT_TIERS:
            baselines[(library, tier)] = run_coupled(
                machine="titan",
                method=library,
                config=_ext_config(library, tier == "pmem"),
                **CELL,
            )

    records: List[Dict[str, Any]] = []
    for fault in EXT_FAULTS:
        for library in EXT_LIBRARIES:
            for tier in EXT_TIERS:
                recovery = (
                    RecoveryPolicy("restart-from-pmem")
                    if tier == "pmem" else None
                )
                result = run_coupled(
                    machine="titan",
                    method=library,
                    config=_ext_config(library, tier == "pmem"),
                    fault_plan=plans[fault],
                    recovery=recovery,
                    **CELL,
                )
                baseline = baselines[(library, tier)]
                outcome = _classify(result)
                overhead: Optional[float] = None
                if outcome in ("completed", "degraded") and baseline.ok:
                    # Three decimals, not the matrix's one: tier faults
                    # cost fractions of a percent (the mirror writes are
                    # a tiny share of a step) but the contrast against
                    # the exactly-0.000 control rows is the point.
                    overhead = round(
                        100.0 * (result.end_to_end - baseline.end_to_end)
                        / baseline.end_to_end,
                        3,
                    )
                    overhead += 0.0
                records.append(
                    dict(
                        fault=fault,
                        library=library,
                        tier=tier,
                        recovery=_ext_recovery_label(library, tier),
                        trigger=plans[fault].describe(),
                        outcome=outcome,
                        time_overhead_pct=overhead,
                        versions_lost=result.versions_lost,
                        recovery_events=result.recovery_events,
                        recovery_seconds=round(result.recovery_seconds, 6),
                        failure=(result.failure or "").split(":", 1)[0],
                    )
                )
    return records


def chaos_matrix_ext(seed: int) -> TableResult:
    """The persistent-memory tier sweep: restart latency made visible.

    The headline cell pair: under ``rank_death``, MPI-IO's
    restart-from-file pays a contended MDS round-trip plus a Lustre
    read, while restart-from-pmem reads the surviving slab back over
    the tier's fast channel — ``recovery_seconds`` shows the gap the
    rounded overhead column cannot.  SST has no plain-tier restart at
    all (it drains around the hole, losing versions); the tier gives it
    one.
    """
    table = TableResult(
        ident="chaos-matrix-ext",
        title=f"Extended chaos campaign: persistent-memory tier (seed {seed})",
        columns=[
            "fault", "library", "tier", "recovery", "trigger", "outcome",
            "time_overhead_pct", "versions_lost", "recovery_events",
            "recovery_seconds", "failure",
        ],
    )
    for record in _run_ext_cells(seed):
        table.add(**record)
    table.note(
        "tier: plain = the library as studied; pmem = every put mirrors "
        "its slab to the persistent-memory tier (restart-from-pmem "
        "recovery)"
    )
    table.note(
        "recovery_seconds: simulated time inside recovery actions — "
        "restart-from-pmem reads the surviving slab over the tier's "
        "fast channel instead of a Lustre MDS round-trip + OST read"
    )
    table.note(
        f"cell: {CELL['workflow']} ({CELL['nsim']},{CELL['nana']}) x "
        f"{CELL['steps']} steps on titan, one rank per node; watchdog "
        f"{WATCHDOG:g} s"
    )
    return table


def campaign_outcomes(seed: int = 7) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """(fault, library) -> matrix row, for the finding verifiers."""
    return {
        (row["fault"], row["library"]): row for row in _run_cells(seed)
    }


def campaign_experiments(seed: int) -> Dict[str, Callable[[], TableResult]]:
    """The campaign's tables by experiment id, in export order: what
    ``repro chaos`` builds, serially or with ``--service``."""
    return {
        "chaos_matrix": lambda: chaos_matrix(seed),
        "chaos_blast": lambda: chaos_blast(seed),
        "chaos_matrix_ext": lambda: chaos_matrix_ext(seed),
    }


def run_campaign(
    seed: int = 7,
    export_dir: Optional[str] = None,
    fork: bool = True,
) -> Dict[str, TableResult]:
    """Run the campaign serially and (optionally) export its tables.

    Every faulted cell simulates cold.  ``fork`` is accepted and
    ignored: the end-to-end benchmark's chaos child
    (``benchmarks/e2e/child.py``) still passes it; delete it once that
    call stops.
    """
    from ..core.export import write_files
    from ..exec import build_tables

    results, _ = build_tables(campaign_experiments(seed))
    if export_dir is not None:
        os.makedirs(export_dir, exist_ok=True)
        for ident, table in results.items():
            write_files(table, os.path.join(export_dir, ident))
    return results
