"""Steady-boundary prefix snapshots (:mod:`repro.core.forkpoint`).

Three properties back the snapshots:

* **byte-identity** — a prefix-restored steps variant reproduces the
  exact run's RunResult float for float (a resume never changes bytes,
  only wall-clock).  A cold steady run ends by resuming its own
  snapshot, so only a traced run, which simulates every step, is an
  independent reference;
* **honest declines** — whenever a snapshot cannot guarantee identity
  it says why, in ``fidelity_log`` or the decline counters, and the run
  falls back cold;
* **prefix addressing** — every steps count of a clean staged point
  shares one prefix key, faulted and recovery-armed runs have none, and
  prefix entries never collide with full-run entries.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.chaos.campaign import WATCHDOG
from repro.chaos.faults import FaultEvent, FaultPlan
from repro.chaos.faults import RecoveryPolicy
from repro.core import forkpoint, runcache
from repro.hpc.machines import get_machine
from repro.workflows import RunSpec, run_coupled

from ..workflows.test_fidelity import assert_same_physics
from ..workflows.test_perf_modes import exact_run, fresh_run

#: a config whose steady certificate engages (cori certifies every
#: library at this scale), so prefix snapshots actually publish
STEADY = dict(machine="cori", method="dataspaces", nsim=32, nana=16)


# ------------------------------------------------ prefix-restored variants


class TestPrefixRestore:
    def test_steps_variant_float_identical_to_cold(self):
        exact = {s: exact_run(steps=s, **STEADY) for s in (8, 16, 32)}
        runcache.clear()
        first = run_coupled(steps=8, **STEADY)
        assert first.forked is None  # nothing resident yet: simulated
        assert first.fidelity == "steady"
        assert_same_physics(first, exact[8])
        for steps in (16, 32):
            restored = run_coupled(steps=steps, **STEADY)
            assert (restored.forked or "").startswith("prefix:")
            assert_same_physics(restored, exact[steps])

    def test_restore_counts_in_stats(self):
        runcache.clear()
        before = forkpoint.STATS.forks_served
        run_coupled(steps=8, **STEADY)
        run_coupled(steps=16, **STEADY)
        assert forkpoint.STATS.forks_served == before + 1

    def test_steps_inside_prefix_declines(self):
        runcache.clear()
        run_coupled(steps=8, **STEADY)
        key = _spec(steps=8).prefix_key
        snap = runcache.CACHE.get_prefix(key)
        assert snap is not None
        reason = snap.decline_reason(snap.cutoff + 1)
        assert reason is not None and reason.startswith("prefix:")
        assert "inside the warm-up prefix" in reason
        # and the driver honors it: the short runs simulate cold, and
        # their declines aggregate under one key whatever the steps
        head = "prefix: steps end inside the warm-up prefix"
        before = forkpoint.STATS.fork_declines.get(head, 0)
        shorts = {s: run_coupled(steps=s, **STEADY)
                  for s in (snap.cutoff, snap.cutoff + 1)}
        assert forkpoint.STATS.fork_declines[head] == before + 2
        for steps, short in shorts.items():
            assert short.forked is None
            assert_same_physics(short, exact_run(steps=steps, **STEADY))

    def test_restored_log_equals_cold_log(self):
        # only an engaged steady run with nothing to decline publishes a
        # snapshot, so a restored result carries exactly the label and
        # (empty) log a cold run of the same steps records
        kwargs = dict(machine="cori", method="flexpath", nsim=32, nana=16)
        cold = fresh_run(steps=16, **kwargs)
        runcache.clear()
        run_coupled(steps=8, **kwargs)
        restored = run_coupled(steps=16, **kwargs)
        assert (restored.forked or "").startswith("prefix:")
        assert restored.fidelity_log == cold.fidelity_log == ()
        assert restored.fidelity == cold.fidelity == "steady"

    def test_adhoc_spec_resumes_but_logs_its_prefix(self):
        # an uncacheable spec still ends by resuming its own snapshot;
        # with no cache to publish to, it logs the one prefix entry left
        kwargs = dict(STEADY, machine=dataclasses.replace(get_machine("cori")),
                      steps=32)
        result = run_coupled(**kwargs)
        assert result.fidelity == "steady" and result.forked is None
        assert result.fidelity_log == (
            "prefix: uncacheable configuration (ad-hoc spec)",
        )
        assert_same_physics(result, exact_run(**kwargs))

    def test_uncertified_orbit_recorded_in_fidelity_log(self):
        # titan/dimes repeats only over whole rotations of its 4
        # metadata servers: 8 and 10 steps are too short for two past
        # the warm-up, so no snapshot publishes and the one steady
        # decline explains it
        runcache.clear()
        kwargs = dict(machine="titan", method="dimes", nsim=32, nana=16)
        run_coupled(steps=8, **kwargs)
        result = run_coupled(steps=10, **kwargs)
        assert result.forked is None
        assert_steady_entry_only(result)

    def test_uncertified_boundary_attributed_in_fidelity_log(self):
        # titan/mpiio laplace attempts certification but no boundary pair
        # matches (a shorter step rotates across the writers, a 15-step
        # orbit at this scale that needs about 32 steps): the steady
        # entry says so, and no prefix entry repeats it
        runcache.clear()
        kwargs = dict(machine="titan", method="mpiio", workflow="laplace",
                      nsim=256, nana=128)
        run_coupled(steps=8, **kwargs)
        result = run_coupled(steps=16, **kwargs)
        assert result.forked is None
        assert_steady_entry_only(result)
        assert "no boundary pair matched" in result.fidelity_log[0]


@given(
    method=st.sampled_from(["mpiio", "dataspaces", "dimes", "flexpath",
                            "decaf"]),
    machine=st.sampled_from(["titan", "cori"]),
    scale=st.sampled_from([(4, 2), (8, 4), (16, 8), (32, 16)]),
    base=st.integers(6, 20),
    steps=st.integers(2, 128),
)
@settings(max_examples=30, derandomize=True, deadline=None)
def test_prefix_resume_matches_exact(method, machine, scale, base, steps):
    # a base run publishes its orbit (when steady engages); the variant
    # resumes from it (when the snapshot serves its steps) or simulates
    # cold — either way it must equal the exact run field for field
    nsim, nana = scale
    kwargs = dict(machine=machine, method=method, nsim=nsim, nana=nana)
    runcache.clear()
    run_coupled(steps=base, **kwargs)
    variant = run_coupled(steps=steps, **kwargs)
    if variant.forked is not None:
        assert variant.fidelity == "steady" and variant.fidelity_log == ()
    assert_same_physics(variant, exact_run(steps=steps, **kwargs))


@given(
    method=st.sampled_from(["dataspaces", "flexpath", "decaf"]),
    workflow=st.sampled_from(["lammps", "laplace"]),
    scale=st.sampled_from([(32, 16), (64, 32), (128, 64)]),
    base=st.integers(6, 20),
    steps=st.integers(6, 128),
)
@settings(max_examples=25, derandomize=True, deadline=None)
def test_titan_per_actor_resume_matches_exact(method, workflow, scale, base,
                                              steps):
    # Titan writers keep their own periods: the base run certifies a
    # per-actor orbit (or declines), and the variant must equal the
    # exact run field for field whether it resumes or simulates
    nsim, nana = scale
    kwargs = dict(machine="titan", method=method, workflow=workflow,
                  nsim=nsim, nana=nana)
    runcache.clear()
    run_coupled(steps=base, **kwargs)
    variant = run_coupled(steps=steps, **kwargs)
    if variant.forked is not None:
        assert variant.fidelity == "steady" and variant.fidelity_log == ()
    assert_same_physics(variant, exact_run(steps=steps, **kwargs))


def assert_steady_entry_only(result):
    """One steady decline explains the missing prefix snapshot."""
    assert len(result.fidelity_log) == 1, result.fidelity_log
    assert result.fidelity_log[0].startswith("steady: ")


def _spec(**overrides):
    """The resolved spec of a ``STEADY`` point."""
    return RunSpec.of(**dict(STEADY, **overrides))


# --------------------------------------------------------- prefix keying


class TestPrefixKeys:
    def test_steps_share_a_key(self):
        keys = {_spec(steps=s).prefix_key for s in (8, 16, 99)}
        assert len(keys) == 1 and None not in keys

    def test_excluded_inputs(self):
        # a faulted or recovery-armed run diverges inside the prefix, and
        # a compute-only baseline has no orbit to certify
        plan = FaultPlan(
            events=(FaultEvent("server_crash", after_puts=5, target=0),),
            watchdog=WATCHDOG,
        )
        assert _spec(fault_plan=plan).prefix_key is None
        assert _spec(recovery=RecoveryPolicy("timeout-abort")).prefix_key is None
        assert _spec(method=None).prefix_key is None
        assert _spec(nsim=64).prefix_key != _spec().prefix_key

    def test_put_get_round_trip(self):
        runcache.clear()
        run_coupled(steps=8, **STEADY)
        key = _spec(steps=8).prefix_key
        snap = runcache.CACHE.get_prefix(key)
        assert snap is not None and snap.serves(16)
        # other direction: a fresh cache answers None, then serves
        # exactly what was put back under the same key
        runcache.clear()
        assert runcache.CACHE.get_prefix(key) is None
        runcache.CACHE.put_prefix(key, snap)
        assert runcache.CACHE.get_prefix(key) is snap
        assert runcache.CACHE.stats()["prefix_stores"] == 1

    def test_prefix_never_collides_with_full_entry(self):
        runcache.clear()
        result = run_coupled(steps=8, **STEADY)
        full_key = _spec(steps=8).key
        assert runcache.CACHE.get(full_key) is result
        assert runcache.CACHE.get_prefix(full_key) is None
        prefix = _spec(steps=8).prefix_key
        assert prefix != full_key
        assert runcache.CACHE.get(prefix) is None
        assert result is not None
