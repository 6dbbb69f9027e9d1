"""The paper's eight findings and Table V's qualitative matrix.

Each :class:`Finding` carries the paper's statement, the Table V
relevance row, and — where a finding is an empirical claim — a
``verify`` callable that reruns the supporting experiment on the
simulated substrate and returns True when the effect reproduces.
``tests/integration/test_findings.py`` asserts all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..hpc import MB
from ..workflows import run_coupled, synthetic_variable
from .results import TableResult

LIBRARIES = ["DataSpaces", "DIMES", "Flexpath", "Decaf"]


@dataclass(frozen=True)
class Finding:
    number: int
    statement: str
    #: Table V row: library -> '+', '-', or '+/-'
    relevance: Dict[str, str]
    verify: Optional[Callable[[], bool]] = None


def _verify_finding1() -> bool:
    """In-memory is not always faster than file I/O (N-to-1 case)."""
    ds = run_coupled("titan", "lammps", "dataspaces", nsim=4096, nana=2048)
    mpiio = run_coupled("titan", "lammps", "mpiio", nsim=4096, nana=2048)
    return ds.ok and mpiio.ok and ds.end_to_end > mpiio.end_to_end


def _verify_finding2() -> bool:
    """Rich data abstraction (Decaf) is memory-expensive: ~7x raw."""
    result = run_coupled("titan", "laplace", "decaf", nsim=64, nana=32, steps=2)
    if not result.ok:
        return False
    raw_per_server = result.variable_nbytes / result.nservers
    peak = max(result.server_memory_peaks)
    return peak > 5 * raw_per_server


def _verify_finding3() -> bool:
    """Layout mismatch => N-to-1 => large penalty on the synthetic run."""
    times = {}
    for layout, axis in (("mismatched", 1), ("matched", 2)):
        result = run_coupled(
            "titan", "synthetic", "dataspaces", nsim=512, nana=256,
            variable=synthetic_variable(512, axis_layout=layout), app_axis=axis,
        )
        if not result.ok:
            return False
        times[layout] = result.end_to_end
    from ..workflows import APP_INIT_SECONDS

    ratio = (times["mismatched"] - APP_INIT_SECONDS) / (
        times["matched"] - APP_INIT_SECONDS
    )
    return ratio > 3.0


def _verify_finding4() -> bool:
    """Low-level RDMA beats sockets-over-RDMA for every RDMA method."""
    for method, api in (("flexpath", "nnti"), ("dataspaces", "ugni"),
                        ("dimes", "ugni")):
        rdma = run_coupled("titan", "lammps", method, nsim=512, nana=256,
                           transport=api)
        tcp = run_coupled("titan", "lammps", method, nsim=512, nana=256,
                          transport="tcp")
        if not (rdma.ok and tcp.ok and rdma.end_to_end <= tcp.end_to_end):
            return False
    return True


def _verify_finding5() -> bool:
    """Shared memory helps but the mode is restricted by schedulers."""
    titan_shared = run_coupled("titan", "lammps", "flexpath", nsim=64,
                               nana=32, shared_nodes=True)
    cori_decaf = run_coupled("cori", "lammps", "decaf", nsim=64, nana=32,
                             shared_nodes=True,
                             topology_overrides=dict(sim_ranks_per_node=16,
                                                     ana_ranks_per_node=8))
    cori_shared = run_coupled("cori", "lammps", "flexpath", nsim=64, nana=32,
                              shared_nodes=True, transport="shm",
                              topology_overrides=dict(sim_ranks_per_node=2,
                                                      ana_ranks_per_node=1))
    return (
        not titan_shared.ok
        and "SchedulerPolicyViolation" in titan_shared.failure
        and not cori_decaf.ok
        and cori_shared.ok
    )


def _verify_finding6() -> bool:
    """Native APIs cost substantially more integration code."""
    from .usability import RECIPES

    native_api = next(
        r for r in RECIPES
        if r.library == "DataSpaces/DIMES (native)" and "API" in r.category
    )
    adios_api = next(
        r for r in RECIPES
        if r.library == "DataSpaces/DIMES (ADIOS)" and "API" in r.category
    )
    return native_api.measured_loc > 1.5 * adios_api.measured_loc


def _verify_finding7() -> bool:
    """Methods port between low-level RDMA and high-level sockets."""
    for method in ("dataspaces", "dimes", "flexpath"):
        for transport in ("ugni", "tcp"):
            result = run_coupled("titan", "lammps", method, nsim=64, nana=32,
                                 transport=transport, steps=2)
            if not result.ok:
                return False
    return True


def _verify_finding8() -> bool:
    """High abstraction overhead can exhaust resources and crash."""
    # Decaf fits at the default Laplace size; an 8x dataset does not.
    from ..workflows import laplace_variable

    oom = run_coupled(
        "titan", "laplace", "decaf", nsim=64, nana=32, steps=1,
        variable=laplace_variable(64, 1024 * MB),
    )
    return (not oom.ok) and "OutOfMemory" in oom.failure


FINDINGS: List[Finding] = [
    Finding(
        1,
        "In-memory libraries do not always yield higher performance than "
        "persistent file I/O due to the expensive N-to-1 data movement at "
        "memory layer involved.",
        {"DataSpaces": "+", "DIMES": "-", "Flexpath": "-", "Decaf": "-"},
        _verify_finding1,
    ),
    Finding(
        2,
        "The raw data transformation to high-level data abstraction with "
        "rich metadata and semantics can be overly expensive with regard "
        "to the memory consumption.",
        {"DataSpaces": "+/-", "DIMES": "-", "Flexpath": "-", "Decaf": "+"},
        _verify_finding2,
    ),
    Finding(
        3,
        "The mismatch between staging data layout and the decomposition "
        "strategy can result in unexpected N-to-1 access to the staging "
        "area (5.3x degradation observed).",
        {"DataSpaces": "+", "DIMES": "-", "Flexpath": "-", "Decaf": "-"},
        _verify_finding3,
    ),
    Finding(
        4,
        "Proprietary low-level RDMA implementations yield substantial "
        "gains over high-level protocols (RPC/sockets over RDMA).",
        {"DataSpaces": "+", "DIMES": "+", "Flexpath": "+", "Decaf": "-"},
        _verify_finding4,
    ),
    Finding(
        5,
        "Despite ~10% improvement, shared memory is a restricted running "
        "mode on some leadership HPC systems due to security.",
        {"DataSpaces": "+/-", "DIMES": "+/-", "Flexpath": "+/-", "Decaf": "-"},
        _verify_finding5,
    ),
    Finding(
        6,
        "In-memory libraries are still far from plug-and-play for domain "
        "scientists; most require substantial support.",
        {"DataSpaces": "+", "DIMES": "+", "Flexpath": "+", "Decaf": "-"},
        _verify_finding6,
    ),
    Finding(
        7,
        "Libraries can be configured down to low-level APIs for experts "
        "or up to high-level abstractions for non-experts.",
        {"DataSpaces": "+", "DIMES": "+", "Flexpath": "+", "Decaf": "-"},
        _verify_finding7,
    ),
    Finding(
        8,
        "Sophisticated high-level abstractions do not always improve "
        "usability/robustness; resource exhaustion can crash extreme runs.",
        {"DataSpaces": "-", "DIMES": "-", "Flexpath": "-", "Decaf": "+"},
        _verify_finding8,
    ),
]


def _chaos_outcomes() -> Dict:
    from ..chaos.campaign import campaign_outcomes

    return campaign_outcomes(seed=7)


def _verify_chaos_server_crash() -> bool:
    """A DataSpaces server crash stalls the whole workflow (no failure
    detection, Section VI); serverless Flexpath does not even notice."""
    outcomes = _chaos_outcomes()
    return (
        outcomes[("server_crash", "dataspaces")]["outcome"] == "hung-then-aborted"
        and outcomes[("server_crash", "flexpath")]["outcome"] == "completed"
        and outcomes[("server_crash", "dimes")]["outcome"] == "aborted"
    )


def _verify_chaos_rank_death() -> bool:
    """Only MPI-IO recovers a dead writer with zero data loss — every
    in-memory library loses staged versions, aborts, or hangs."""
    outcomes = _chaos_outcomes()
    mpiio = outcomes[("rank_death", "mpiio")]
    if not (
        mpiio["outcome"] == "completed"
        and mpiio["versions_lost"] == 0
        and mpiio["recovery_events"] >= 1
    ):
        return False
    for library in ("dataspaces", "dimes", "flexpath", "decaf"):
        row = outcomes[("rank_death", library)]
        if row["outcome"] == "completed" and row["versions_lost"] == 0:
            return False
    return True


def _verify_chaos_drc_reject() -> bool:
    """Transient DRC rejection aborts clients without reconnect logic;
    reconnect-with-backoff rides it out for a small time overhead."""
    outcomes = _chaos_outcomes()
    flexpath = outcomes[("drc_reject", "flexpath")]
    return (
        outcomes[("drc_reject", "dataspaces")]["failure"] == "CredentialRejected"
        and outcomes[("drc_reject", "dimes")]["failure"] == "CredentialRejected"
        and flexpath["outcome"] == "completed"
        and flexpath["time_overhead_pct"] is not None
        and 0.0 < flexpath["time_overhead_pct"] < 10.0
    )


#: robustness findings established by the chaos campaigns (``python -m
#: repro chaos``) — kept out of :data:`FINDINGS` so Table V renders the
#: paper's original eight rows byte-for-byte.
CHAOS_FINDINGS: List[Finding] = [
    Finding(
        9,
        "A staging-server crash stalls the whole DataSpaces workflow — "
        "there is no failure detection, only an external watchdog bounds "
        "the hang — while serverless designs (Flexpath, MPI-IO) are "
        "unaffected and DIMES at least aborts with a diagnosable error.",
        {"DataSpaces": "+", "DIMES": "+/-", "Flexpath": "-", "Decaf": "+"},
        _verify_chaos_server_crash,
    ),
    Finding(
        10,
        "Only the file-based method recovers from a writer death with "
        "zero data loss (restart from the last complete BP file); every "
        "in-memory library loses staged versions, aborts, or hangs.",
        {"DataSpaces": "+", "DIMES": "+", "Flexpath": "+", "Decaf": "+"},
        _verify_chaos_rank_death,
    ),
    Finding(
        11,
        "Transient DRC credential rejection aborts libraries without "
        "reconnect logic at their first transfer; reconnect-with-backoff "
        "rides the outage out for a single-digit time overhead.",
        {"DataSpaces": "+", "DIMES": "+", "Flexpath": "+/-", "Decaf": "-"},
        _verify_chaos_drc_reject,
    ),
]


def table5_findings(verify: bool = False) -> TableResult:
    """Table V: the qualitative relevance matrix (optionally verified)."""
    columns = ["finding"] + LIBRARIES
    if verify:
        columns.append("verified")
    table = TableResult(
        ident="Table V",
        title="Qualitative summary ('+' relevant, '-' not, '+/-' conditional)",
        columns=columns,
    )
    for finding in FINDINGS:
        row = {"finding": f"Finding {finding.number}"}
        row.update(finding.relevance)
        if verify:
            if finding.verify is None:
                row["verified"] = "n/a"
            else:
                row["verified"] = "yes" if finding.verify() else "NO"
        table.add(**row)
    return table
