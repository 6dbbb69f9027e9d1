"""Frozen pipes against mutable ones, under drawn fault plans.

``run_coupled`` freezes every pipe its fault plan cannot degrade (see
:meth:`repro.hpc.cluster.Cluster.freeze_rates` and
:data:`repro.chaos.faults.DEGRADES`): those pipes run the eventless
arithmetic chains, and a frozen Lustre pool builds no OST pipes at all.
Hypothesis draws library x machine x scale x steps x fault plan x
watchdog x recovery policy, and every point must give the same
``RunResult``, field for field and failure included, with freezing
switched off by monkeypatching ``Cluster.freeze_rates`` to a no-op.

The draw includes plans that hang.  A frozen pipe books
``bytes_moved``/``busy_time`` when a transfer is called, not when it
completes, so a run the watchdog cuts short mid-transfer holds other
pipe accounting than the unfrozen run.  That cannot reach an output:
only :mod:`repro.hpc.network` reads those two fields, and no
``RunResult`` field is derived from them.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import faults
from repro.chaos.campaign import CELL, CHAOS_LIBRARIES
from repro.chaos.faults import (
    FAULT_KINDS, FaultEvent, FaultPlan, RecoveryPolicy,
)
from repro.core import runcache
from repro.hpc.cluster import RATE_PARTS, Cluster
from repro.staging import StagingConfig
from repro.workflows import RunResult

from ..workflows.test_fidelity import assert_same_physics
from ..workflows.test_perf_modes import fresh_run

METHODS = CHAOS_LIBRARIES + ("sst",)


@pytest.fixture(autouse=True)
def fresh_cache():
    runcache.clear()
    yield
    runcache.clear()


def _pmem_config(method):
    return StagingConfig(
        transport="mpi" if method == "mpiio" else "ugni",
        use_adios=True, pmem_checkpoint=True,
    )


def assert_frozen_matches_unfrozen(**point):
    """Run ``point`` as shipped and unfrozen; return the shipped result."""
    frozen = fresh_run(**point)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Cluster, "freeze_rates", lambda self, mutable=(): None)
        unfrozen = fresh_run(**point)
    assert isinstance(frozen, RunResult) and isinstance(unfrozen, RunResult)
    assert frozen.failure == unfrozen.failure
    assert_same_physics(frozen, unfrozen)
    for name in ("fidelity", "fidelity_log", "forked"):
        assert getattr(frozen, name) == getattr(unfrozen, name), name
    return frozen


events = st.builds(
    FaultEvent,
    kind=st.sampled_from(FAULT_KINDS),
    target=st.integers(0, 63),
    actor_kind=st.sampled_from(["sim", "ana"]),
    factor=st.sampled_from([1.5, 2.0, 4.0, 32.0]),
    duration=st.sampled_from([0.0, 1.0, 10.0, 40.0]),
).flatmap(lambda e: st.one_of(
    st.floats(0.0, 200.0).map(
        lambda at: dataclasses.replace(e, at=at)),
    st.integers(1, 40).map(
        lambda n: dataclasses.replace(e, after_puts=n)),
))

recoveries = st.one_of(st.none(), st.builds(
    RecoveryPolicy,
    kind=st.sampled_from(RecoveryPolicy.VALID_KINDS),
    timeout=st.sampled_from([5.0, 30.0]),
    backoff=st.sampled_from([0.5, 1.0]),
    max_retries=st.integers(1, 5),
))


@given(
    method=st.sampled_from(METHODS),
    machine=st.sampled_from(["titan", "cori"]),
    scale=st.sampled_from([(8, 4), (16, 8), (32, 16)]),
    steps=st.integers(2, 12),
    plan_events=st.lists(events, min_size=1, max_size=3),
    watchdog=st.sampled_from([30.0, 100.0, 600.0]),
    recovery=recoveries,
    pmem=st.booleans(),
)
@settings(max_examples=50, derandomize=True, deadline=None)
def test_frozen_pipes_match_unfrozen_under_drawn_plans(
        method, machine, scale, steps, plan_events, watchdog, recovery,
        pmem):
    nsim, nana = scale
    config = None
    if pmem and machine == "titan" and method in ("sst", "mpiio"):
        config = _pmem_config(method)
    assert_frozen_matches_unfrozen(
        machine=machine, workflow="lammps", method=method, nsim=nsim,
        nana=nana, steps=steps, config=config,
        topology_overrides=CELL["topology_overrides"],
        fault_plan=FaultPlan(events=plan_events, watchdog=watchdog),
        recovery=recovery,
    )


@pytest.mark.parametrize("method,machine,event,config", [
    ("dataspaces", "titan",
     FaultEvent("server_crash", after_puts=16), None),
    ("decaf", "cori",
     FaultEvent("transport_degrade", at=30.0, factor=8.0, duration=20.0),
     None),
    ("mpiio", "titan",
     FaultEvent("ost_slow", at=6.0, target=3, factor=32.0), None),
    ("mpiio", "titan",
     FaultEvent("pmem_degrade", at=6.0, factor=32.0, duration=40.0),
     _pmem_config("mpiio")),
], ids=["hang", "transport_degrade", "ost_slow", "pmem_degrade"])
def test_pinned_plans_match_unfrozen(method, machine, event, config):
    point = dict(CELL, machine=machine, method=method, config=config)
    faulted = assert_frozen_matches_unfrozen(
        fault_plan=FaultPlan(events=(event,), watchdog=300.0), **point)
    if event.kind == "server_crash":
        assert faulted.failure.startswith("WorkflowHang")
    else:
        # the fault really slowed the run: a no-op fault proves nothing
        assert faulted.ok
        assert faulted.end_to_end > fresh_run(**point).end_to_end


def test_degrades_table_names_fault_kinds_and_cluster_parts():
    assert set(faults.DEGRADES) <= set(FAULT_KINDS)
    assert set(faults.DEGRADES.values()) <= RATE_PARTS


def test_degraded_parts_of_a_plan():
    plan = FaultPlan(events=(
        FaultEvent("ost_slow"), FaultEvent("rank_death"),
        FaultEvent("pmem_degrade"), FaultEvent("ost_slow", target=2),
    ))
    assert plan.degraded_parts == {"lustre", "pmem"}
    assert FaultPlan().degraded_parts == frozenset()


#: one plan per fault kind that reaches its injection hook on MPI-IO
#: with the PMEM tier armed (``drc_reject`` needs Cori's DRC)
KIND_EVENTS = {
    "server_crash": FaultEvent("server_crash", at=6.0),
    "rank_death": FaultEvent("rank_death", after_puts=8, target=1),
    "transport_degrade": FaultEvent("transport_degrade", at=6.0,
                                    factor=4.0, duration=5.0),
    "ost_slow": FaultEvent("ost_slow", at=6.0, factor=4.0, duration=5.0),
    "drc_reject": FaultEvent("drc_reject", at=6.0, duration=5.0),
    "pmem_degrade": FaultEvent("pmem_degrade", at=6.0, factor=4.0,
                               duration=5.0),
}


def _kind_run(kind, machine):
    return fresh_run(
        machine=machine, method="mpiio", config=_pmem_config("mpiio"),
        fault_plan=FaultPlan(events=(KIND_EVENTS[kind],)), **CELL,
    )


@pytest.mark.parametrize("machine", ["titan", "cori"])
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_every_fault_kind_runs_under_production_freezing(kind, machine):
    result = _kind_run(kind, machine)
    assert isinstance(result, RunResult)
    assert not math.isnan(result.end_to_end)


@pytest.mark.parametrize("kind", sorted(faults.DEGRADES))
def test_a_rate_changing_kind_missing_from_the_table_fails_loudly(
        monkeypatch, kind):
    monkeypatch.delitem(faults.DEGRADES, kind)
    with pytest.raises(RuntimeError, match="rate is frozen"):
        _kind_run(kind, "titan")
