"""Steady-state fast-forward equivalence.

Every run is offered the fast-forward, and the temporal memoization
must be invisible in the numbers: whenever the driver fast-forwards a
periodic tail it has to reproduce the exact run's :class:`RunResult`
float for float, and whenever it cannot prove periodicity it has to
simulate every step and say why with one ``steady:`` entry in
``RunResult.fidelity_log``.  The exact reference is a traced run.
"""

import pytest

from repro.chaos.faults import FaultEvent, FaultPlan, RecoveryPolicy
from repro.core import forkpoint, runcache
from repro.workflows import driver, run_coupled
from repro.workflows.trace import ActivityTrace

from .test_perf_modes import assert_identical, exact_run, fresh_run

METHODS = ["mpiio", "dataspaces", "dimes", "flexpath", "decaf"]


def steady_entry(result):
    """The run's ``steady:`` decline, or None when steady engaged."""
    entries = [e for e in result.fidelity_log if e.startswith("steady: ")]
    assert len(entries) <= 1, result.fidelity_log
    return entries[0] if entries else None


# --------------------------------------------------- exact reproduction


class TestSteadyEquivalence:
    @pytest.mark.parametrize("machine", ["titan", "cori"])
    @pytest.mark.parametrize("method", METHODS)
    def test_bitwise_equal_to_exact(self, machine, method):
        kwargs = dict(machine=machine, method=method, nsim=32, nana=16,
                      steps=8)
        exact = exact_run(**kwargs)
        steady = fresh_run(**kwargs)
        assert exact.fidelity == "exact"
        assert steady.fidelity in ("steady", "exact")
        if steady.fidelity == "exact":
            # declined: the reason must be on record
            assert steady_entry(steady).startswith("steady:")
        assert_identical(exact, steady, ignore=("fidelity",))

    def test_compute_only_baseline_declines(self):
        # no staging library certifies an orbit: the baseline runs
        # exact and says so with its one steady entry
        kwargs = dict(machine="titan", method=None, nsim=32, nana=16,
                      steps=8)
        exact = exact_run(**kwargs)
        steady = fresh_run(**kwargs)
        assert steady.fidelity == "exact"
        assert steady.fidelity_log == (
            "steady: compute-only baseline has no staging orbit to certify",
        )
        assert_identical(exact, steady)

    def test_engaged_run_simulates_fewer_events(self):
        # the point of the mode: once the orbit is proven, the tail is
        # replayed arithmetically instead of being simulated
        from repro.sim.engine import Environment

        counts = []
        orig = Environment.step

        def counting(env):
            counts[-1] += 1
            orig(env)

        Environment.step = counting
        try:
            for run in (exact_run, fresh_run):
                counts.append(0)
                run(machine="cori", method="flexpath", nsim=32, nana=16,
                    steps=64)
        finally:
            Environment.step = orig
        exact_events, steady_events = counts
        assert steady_events < exact_events / 2

    def test_long_horizon_stays_identical(self):
        # the Δ-translation replay must stay exact over many skipped
        # steps, not just one
        kwargs = dict(machine="cori", method="dataspaces", nsim=32,
                      nana=16, steps=64)
        exact = exact_run(**kwargs)
        steady = fresh_run(**kwargs)
        assert steady.fidelity == "steady"
        assert steady_entry(steady) is None
        assert_identical(exact, steady, ignore=("fidelity",))


# ------------------------------------------------- per-actor periods


class TestPerActorOrbits:
    """Titan scales wire latency by torus hops, so each writer puts at
    its own speed and every actor repeats at its own period."""

    @pytest.mark.parametrize("method", ["dataspaces", "flexpath", "decaf"])
    def test_writers_at_their_own_period_engage(self, method):
        kwargs = dict(machine="titan", method=method, nsim=64, nana=32,
                      steps=40)
        steady = fresh_run(**kwargs)
        assert steady.fidelity == "steady", steady.fidelity_log
        assert_identical(exact_run(**kwargs), steady, ignore=("fidelity",))

    def test_cross_rate_slack_bounds_the_horizon(self):
        # two writers' staged samples in server 0's merged series close
        # in by 25,770 ticks a step from 16,120,098 apart at boundary 3:
        # their order holds through step 627, so a 628-step run engages
        # and a 629-step one runs exact, and a snapshot says the same
        kwargs = dict(machine="titan", method="dataspaces", nsim=32,
                      nana=16)
        inside = fresh_run(steps=628, **kwargs)
        past = fresh_run(steps=629, **kwargs)
        assert inside.fidelity == "steady"
        assert past.fidelity_log == (
            "steady: no boundary pair matched (cross-rate slack)",
        )
        for run in (inside, past):
            assert_identical(exact_run(steps=run.steps, **kwargs), run,
                             ignore=("fidelity",))
        runcache.clear()
        run_coupled(steps=40, **kwargs)
        snap = runcache.CACHE.get_prefix(
            driver.RunSpec.of(steps=40, **kwargs).prefix_key)
        assert snap.horizon == 628 and snap.serves(628)
        assert snap.decline_reason(629).startswith(
            "prefix: steps pass the cross-rate horizon")


# ------------------------------------------------------ fallback reasons


class TestSteadyFallbackReasons:
    KW = dict(machine="titan", method="dataspaces", nsim=32, nana=16)

    def test_traced_run_falls_back(self):
        result = fresh_run(trace=ActivityTrace(), **self.KW)
        assert result.fidelity == "exact"
        assert steady_entry(result) == "steady: traced run records every step"

    def test_faulted_run_falls_back(self):
        plan = FaultPlan(events=(FaultEvent("ost_slow", at=1.0),))
        result = fresh_run(fault_plan=plan, **self.KW)
        assert result.fidelity == "exact"
        assert steady_entry(result) == (
            "steady: fault injection breaks periodicity"
        )

    def test_recovery_policy_falls_back(self):
        result = fresh_run(
            recovery=RecoveryPolicy("timeout-abort", timeout=20.0),
            **self.KW,
        )
        assert result.fidelity == "exact"
        assert steady_entry(result) == "steady: recovery policy armed"

    def test_too_few_steps_falls_back(self):
        result = fresh_run(steps=2, **self.KW)
        assert result.fidelity == "exact"
        assert "steps leave no room" in steady_entry(result)

    def test_fallback_is_cached_like_any_run(self):
        runcache.clear()
        plan = FaultPlan(events=(FaultEvent("ost_slow", at=1.0),))
        run_coupled(fault_plan=plan, **self.KW)
        hits_before = runcache.CACHE.hits
        again = run_coupled(fault_plan=plan, **self.KW)
        assert runcache.CACHE.hits == hits_before + 1
        assert steady_entry(again) == (
            "steady: fault injection breaks periodicity"
        )

    def test_failed_run_logs_its_steady_entry(self):
        # the run dies before any orbit could certify: still one entry
        result = fresh_run(machine="titan", method="flexpath", nsim=8,
                           nana=4, shared_nodes=True)
        assert not result.ok and result.fidelity == "exact"
        assert steady_entry(result) == (
            "steady: run failed before any orbit was replayed"
        )

    def test_diverged_orbit_reruns_exact(self, monkeypatch):
        # a stopped run that fails its replay-time checks reruns with
        # the fast-forward off, logging the divergence as its one entry
        kwargs = dict(machine="cori", method="dataspaces", nsim=32,
                      nana=16, steps=16)

        def diverge(steady, result):
            raise driver._SteadyDiverged("orbit broke")

        monkeypatch.setattr(forkpoint, "capture", diverge)
        rerun = fresh_run(**kwargs)
        assert rerun.fidelity == "exact"
        assert rerun.fidelity_log == ("steady: orbit broke",)
        assert_identical(exact_run(**kwargs), rerun)
