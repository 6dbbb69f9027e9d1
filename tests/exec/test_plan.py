"""Work-plan construction: enumeration, dedup, placeholders, errors."""

import dataclasses

import pytest

from repro.core import runcache
from repro.exec.plan import build_plan, placeholder_result
from repro.hpc.machines import get_machine
from repro.workflows import driver, run_coupled


@pytest.fixture(autouse=True)
def clean_cache():
    runcache.clear()
    yield
    runcache.clear()


def tiny(method="dataspaces", **kw):
    kw.setdefault("machine", "titan")
    kw.setdefault("workflow", "lammps")
    kw.setdefault("nsim", 8)
    kw.setdefault("nana", 4)
    kw.setdefault("steps", 1)
    return run_coupled(method=method, **kw)


class TestBuildPlan:
    def test_enumerates_without_simulating(self):
        seen = []
        orig_execute = driver._execute

        def spying_execute(*args, **kwargs):
            seen.append(1)
            return orig_execute(*args, **kwargs)

        driver._execute = spying_execute
        try:
            plan = build_plan({"e1": lambda: tiny()})
        finally:
            driver._execute = orig_execute
        assert not seen  # nothing simulated
        assert len(plan.tasks) == 1
        assert plan.total_refs == 1

    def test_shared_points_collapse_to_one_task(self):
        plan = build_plan({
            "e1": lambda: (tiny(), tiny(method="dimes")),
            "e2": lambda: tiny(),  # same config as e1's first call
        })
        assert len(plan.tasks) == 2
        assert plan.total_refs == 3
        assert plan.deduped_refs == 1
        shared = next(t for t in plan.tasks if t.spec.method == "dataspaces")
        assert shared.experiments == ["e1", "e2"]
        assert shared.refs == 2

    def test_warm_cache_entries_become_hits_not_tasks(self):
        real = tiny()  # simulated for real, cached
        plan = build_plan({"e1": lambda: tiny()})
        assert plan.tasks == []
        assert plan.cache_hits == 1
        # and planning handed back the real cached result object
        assert real.ok

    def test_uncacheable_calls_are_unplanned(self):
        spec = dataclasses.replace(get_machine("titan"))  # ad-hoc spec
        plan = build_plan({
            "e1": lambda: run_coupled(machine=spec, method=None, nsim=4, nana=2)
        })
        assert plan.tasks == []
        assert plan.unplanned == 1

    def test_planning_does_not_poison_the_cache(self):
        build_plan({"e1": lambda: tiny()})
        assert runcache.CACHE._memory == {}
        # the real run afterwards actually simulates
        result = tiny()
        assert result.ok and result.end_to_end > 1.0

    def test_experiment_error_keeps_partial_plan(self):
        def bad():
            tiny()
            raise RuntimeError("cannot digest placeholders")

        plan = build_plan({"bad": bad, "good": lambda: tiny(method="dimes")})
        assert "bad" in plan.errors
        assert "RuntimeError" in plan.errors["bad"]
        assert len(plan.tasks) == 2  # the point before the raise is kept

    def test_big_tasks_first(self):
        plan = build_plan({
            "small": lambda: tiny(),
            "big": lambda: tiny(nsim=64, nana=32, steps=2),
        })
        assert plan.tasks[0].spec.nsim == 64

    def test_recorder_always_uninstalled(self):
        def bad():
            raise RuntimeError("boom")

        build_plan({"bad": bad})
        assert driver._PLAN_RECORDER is None


class TestPlaceholder:
    def test_placeholder_satisfies_table_arithmetic(self):
        plan_spec = None

        def capture():
            nonlocal plan_spec
            result = tiny()
            plan_spec = result
            return result

        build_plan({"e": capture})
        r = plan_spec
        assert r.ok
        assert r.staging_time > 0
        assert max(r.server_memory_peaks) >= 1
        assert r.sim_memory.value_at(0.0) == 0.0
        assert r.server_memory_breakdown == {}

    def test_worker_spec_reproduces_the_planned_key(self):
        # The parent-computed key must equal the key a worker caches the
        # shipped spec's result under — the contract cache seeding
        # relies on.
        plan = build_plan({"e1": lambda: tiny()})
        task = plan.tasks[0]
        from repro.exec.pool import _execute_task

        result, cache_hit, prefix = _execute_task(task, attempt=1)
        assert not cache_hit
        assert runcache.CACHE._memory[task.key] is result  # ships as cached
        assert prefix is None  # a one-step run certifies no orbit
