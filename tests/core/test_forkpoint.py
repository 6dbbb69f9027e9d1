"""Steady-boundary prefix snapshots (:mod:`repro.core.forkpoint`).

Three properties back the snapshots:

* **byte-identity** — a prefix-restored steps variant reproduces the
  cold run's RunResult float for float (a resume never changes bytes,
  only wall-clock);
* **honest declines** — whenever a snapshot cannot guarantee identity
  it says why, in ``fidelity_log`` or the decline counters, and the run
  falls back cold;
* **prefix addressing** — prefix entries are keyed by the spec minus
  (steps, fault plan, recovery) and never collide with full-run
  entries.
"""

import math

from repro.chaos.campaign import WATCHDOG
from repro.chaos.faults import FaultEvent, FaultPlan
from repro.core import forkpoint, runcache
from repro.core.forkpoint import PREFIX_EXCLUDES
from repro.sim.monitor import TimeSeries
from repro.workflows import driver, run_coupled

#: a config whose steady certificate engages (cori certifies every
#: library at this scale), so prefix snapshots actually publish
STEADY = dict(machine="cori", method="dataspaces", nsim=32, nana=16,
              fidelity="steady")


def fresh_run(**kwargs):
    runcache.clear()
    return run_coupled(**kwargs)


def assert_float_identical(a, b):
    """Field-by-field RunResult equality, NaN-aware, fork-metadata blind."""
    import dataclasses

    for f in dataclasses.fields(a):
        if f.name == "forked":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, TimeSeries) or isinstance(y, TimeSeries):
            assert (x is None) == (y is None), f.name
            if x is not None:
                assert list(x.times) == list(y.times), f.name
                assert list(x.values) == list(y.values), f.name
        elif isinstance(x, float) and isinstance(y, float):
            assert x == y or (math.isnan(x) and math.isnan(y)), (
                f.name, x, y)
        else:
            assert x == y, (f.name, x, y)


# ------------------------------------------------ prefix-restored variants


class TestPrefixRestore:
    def test_steps_variant_float_identical_to_cold(self):
        cold = {s: fresh_run(steps=s, **STEADY) for s in (8, 16, 32)}
        runcache.clear()
        first = run_coupled(steps=8, **STEADY)
        assert first.forked is None  # nothing resident yet: simulated
        assert first.fidelity == "steady"
        for steps in (16, 32):
            restored = run_coupled(steps=steps, **STEADY)
            assert (restored.forked or "").startswith("prefix:")
            assert_float_identical(restored, cold[steps])

    def test_restore_counts_in_stats(self):
        runcache.clear()
        before = forkpoint.STATS.forks_served
        run_coupled(steps=8, **STEADY)
        run_coupled(steps=16, **STEADY)
        assert forkpoint.STATS.forks_served == before + 1

    def test_steps_inside_prefix_declines(self):
        runcache.clear()
        run_coupled(steps=8, **STEADY)
        key = forkpoint.prefix_key(_spec(steps=8))
        snap = runcache.CACHE.get_prefix(key)
        assert snap is not None
        reason = snap.decline_reason(snap.cutoff + 1)
        assert reason is not None and reason.startswith("prefix:")
        assert "inside the warm-up prefix" in reason
        # and the driver honors it: the short runs simulate cold, and
        # their declines aggregate under one key whatever the steps
        head = "prefix: steps end inside the warm-up prefix"
        before = forkpoint.STATS.fork_declines.get(head, 0)
        for steps in (snap.cutoff, snap.cutoff + 1):
            short = run_coupled(steps=steps, **STEADY)
            assert short.forked is None
        assert forkpoint.STATS.fork_declines[head] == before + 2

    def test_restored_log_equals_cold_log(self):
        # only an engaged steady run with nothing to decline publishes a
        # snapshot, so a restored result carries exactly the label and
        # (empty) log a cold run of the same steps records
        kwargs = dict(machine="cori", method="flexpath", nsim=32, nana=16,
                      fidelity="steady")
        cold = fresh_run(steps=16, **kwargs)
        runcache.clear()
        run_coupled(steps=8, **kwargs)
        restored = run_coupled(steps=16, **kwargs)
        assert (restored.forked or "").startswith("prefix:")
        assert restored.fidelity_log == cold.fidelity_log == ()
        assert restored.fidelity == cold.fidelity == "steady"

    def test_uncertified_orbit_recorded_in_fidelity_log(self):
        # titan/dimes never certifies steady at this scale: no snapshot
        # publishes, and the library's own steady decline explains it
        runcache.clear()
        kwargs = dict(machine="titan", method="dimes", nsim=32, nana=16,
                      fidelity="steady")
        run_coupled(steps=8, **kwargs)
        result = run_coupled(steps=16, **kwargs)
        assert result.forked is None
        assert_steady_entry_only(result)

    def test_uncertified_boundary_attributed_in_fidelity_log(self):
        # titan/dataspaces attempts certification but no boundary pair
        # matches: the steady entry says so, and no prefix entry repeats it
        runcache.clear()
        kwargs = dict(machine="titan", method="dataspaces", nsim=32,
                      nana=16, fidelity="steady")
        run_coupled(steps=8, **kwargs)
        result = run_coupled(steps=16, **kwargs)
        assert result.forked is None
        assert_steady_entry_only(result)
        assert "no boundary pair matched" in result.fidelity_log[0]


def assert_steady_entry_only(result):
    """One steady decline explains the missing prefix snapshot."""
    assert len(result.fidelity_log) == 1, result.fidelity_log
    assert result.fidelity_log[0].startswith("steady: ")


def _spec(**overrides):
    """The normalized point dict the driver hands to prefix_key."""
    kw = dict(
        machine="cori", workflow="lammps", method="dataspaces", nsim=32,
        nana=16, steps=8, transport=None, num_servers=None,
        shared_nodes=False, variable=None, sim_step_seconds=None,
        ana_step_seconds=None, topology_overrides=None, config=None,
        app_axis=None, fidelity="steady", fault_plan=None, recovery=None,
    )
    kw.update(overrides)
    _machine_spec, _spec_obj, point = driver._resolve_point(kw)
    return point


# --------------------------------------------------------- prefix keying


class TestPrefixKeys:
    def test_steps_share_a_key(self):
        keys = {forkpoint.prefix_key(_spec(steps=s)) for s in (8, 16, 99)}
        assert len(keys) == 1 and None not in keys

    def test_excluded_inputs(self):
        assert PREFIX_EXCLUDES == ("steps", "fault_plan", "recovery")
        plan = FaultPlan(
            events=(FaultEvent("server_crash", after_puts=5, target=0),),
            watchdog=WATCHDOG,
        )
        assert forkpoint.prefix_key(_spec(fault_plan=plan)) is None

    def test_non_steady_fidelity_has_no_key(self):
        assert forkpoint.prefix_key(_spec(fidelity="exact")) is None

    def test_put_get_round_trip(self):
        runcache.clear()
        run_coupled(steps=8, **STEADY)
        key = forkpoint.prefix_key(_spec(steps=8))
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
        full_key = driver.point_key(**dict(STEADY, steps=8))
        assert runcache.CACHE.get(full_key) is result
        assert runcache.CACHE.get_prefix(full_key) is None
        prefix = forkpoint.prefix_key(_spec(steps=8))
        assert prefix != full_key
        assert runcache.CACHE.get(prefix) is None
        assert result is not None
