"""Fault-plan declarations, taxonomy coverage, and cache correctness."""

import pytest

import repro.hpc.failures as failures_mod
from repro.chaos import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    RecoveryPolicy,
    TAXONOMY,
)
from repro.core import runcache
from repro.hpc.failures import HpcError
from repro.workflows import RunSpec, run_coupled


@pytest.fixture(autouse=True)
def fresh_cache():
    runcache.clear()
    yield
    runcache.clear()


def _failure_classes():
    return [
        name
        for name, obj in vars(failures_mod).items()
        if isinstance(obj, type) and issubclass(obj, HpcError)
    ]


class TestTaxonomyCoverage:
    def test_every_failure_class_is_mapped(self):
        missing = [n for n in _failure_classes() if n not in TAXONOMY]
        assert not missing, (
            f"failure classes missing from the chaos taxonomy: {missing}; "
            f"map each to a fault kind or document its exclusion"
        )

    def test_no_stale_taxonomy_entries(self):
        stale = [n for n in TAXONOMY if not hasattr(failures_mod, n)]
        assert not stale

    def test_mappings_are_fault_kinds_or_documented_exclusions(self):
        for name, value in TAXONOMY.items():
            assert value in FAULT_KINDS or value.startswith("excluded:"), (
                f"{name} maps to {value!r}"
            )

    def test_new_failure_classes_exist(self):
        for name in ("StagingServerCrashed", "CredentialRejected",
                     "WorkflowHang"):
            assert issubclass(getattr(failures_mod, name), HpcError)


class TestDeclarations:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("disk_fire")

    def test_bad_actor_kind_rejected(self):
        with pytest.raises(ValueError, match="actor_kind"):
            FaultEvent("rank_death", actor_kind="io")

    def test_nonpositive_watchdog_rejected(self):
        with pytest.raises(ValueError, match="watchdog"):
            FaultPlan(watchdog=0.0)

    def test_event_list_frozen_to_tuple(self):
        plan = FaultPlan(events=[FaultEvent("ost_slow", at=1.0)])
        assert isinstance(plan.events, tuple)

    def test_unknown_recovery_kind_rejected(self):
        with pytest.raises(ValueError, match="recovery kind"):
            RecoveryPolicy("pray")

    def test_describe_mentions_trigger(self):
        assert "after 3 puts" in FaultEvent("rank_death", after_puts=3).describe()
        assert "t=2.5" in FaultEvent("ost_slow", at=2.5).describe()


class TestCacheCorrectness:
    """The FaultPlan must be part of the run-cache key — both ways."""

    PLAN = FaultPlan(events=(FaultEvent("rank_death", after_puts=3),))

    @staticmethod
    def key(**kwargs):
        return RunSpec.of(**kwargs).key

    def test_plan_changes_the_key(self):
        assert self.key(fault_plan=None) != self.key(fault_plan=self.PLAN)

    def test_equal_plans_share_the_key(self):
        clone = FaultPlan(events=(FaultEvent("rank_death", after_puts=3),))
        assert self.key(fault_plan=self.PLAN) == self.key(fault_plan=clone)

    def test_different_plans_differ(self):
        other = FaultPlan(events=(FaultEvent("rank_death", after_puts=4),))
        assert self.key(fault_plan=self.PLAN) != self.key(fault_plan=other)

    def test_recovery_policy_changes_the_key(self):
        assert self.key(recovery=RecoveryPolicy("none")) != self.key(
            recovery=RecoveryPolicy("timeout-abort")
        )

    CELL = dict(
        machine="titan", workflow="lammps", method="flexpath",
        nsim=4, nana=2, steps=3,
        topology_overrides=dict(sim_ranks_per_node=1, ana_ranks_per_node=1),
    )

    def test_chaos_run_never_answered_from_clean_entry(self):
        clean = run_coupled(**self.CELL)
        assert clean.ok
        plan = FaultPlan(
            events=(FaultEvent("rank_death", after_puts=2, target=1),)
        )
        chaos = run_coupled(fault_plan=plan, **self.CELL)
        assert chaos.versions_lost > 0  # a clean cache hit would show 0

    def test_clean_run_never_answered_from_chaos_entry(self):
        plan = FaultPlan(
            events=(FaultEvent("rank_death", after_puts=2, target=1),)
        )
        chaos = run_coupled(fault_plan=plan, **self.CELL)
        assert chaos.versions_lost > 0
        clean = run_coupled(**self.CELL)
        assert clean.ok and clean.versions_lost == 0
