"""Determinism and clustered-fidelity equivalence of the driver.

Two properties back the performance work of this repo:

* **determinism** — the simulation breaks time ties by event id, so the
  same configuration always produces bit-identical results (this is
  what makes the run cache and the golden files sound);
* **clustered == exact** — when ``fidelity="clustered"`` engages, the
  representative-group run must reproduce the exact run bit for bit,
  and it must *refuse* to engage whenever a structural coupling
  (non-uniform hops, shared services...) would break that.
"""

import pytest

from repro.core import runcache
from repro.workflows import run_coupled

SCALAR_FIELDS = (
    "end_to_end", "sim_finish", "ana_finish", "put_time", "get_time",
    "bytes_staged", "failure", "server_memory_peaks", "fidelity",
)


def fresh_run(**kwargs):
    """A run that cannot be served from the in-process cache."""
    runcache.clear()
    return run_coupled(**kwargs)


def assert_identical(a, b, ignore=()):
    for field in SCALAR_FIELDS:
        if field in ignore:
            continue
        assert getattr(a, field) == getattr(b, field), field
    for field in ("sim_memory", "ana_memory", "server_memory"):
        if field in ignore:
            continue
        sa, sb = getattr(a, field), getattr(b, field)
        assert (sa is None) == (sb is None), field
        if sa is not None:
            assert sa.times == sb.times, field
            assert sa.values == sb.values, field


# ---------------------------------------------------------- determinism


class TestDeterminism:
    @pytest.mark.parametrize("method", [None, "dataspaces", "mpiio"])
    def test_same_config_bit_identical(self, method):
        kwargs = dict(machine="titan", method=method, nsim=32, nana=16)
        first = fresh_run(**kwargs)
        second = fresh_run(**kwargs)
        assert first is not second
        assert_identical(first, second)

    def test_across_machines_differ(self):
        titan = fresh_run(machine="titan", method="dataspaces", nsim=32, nana=16)
        cori = fresh_run(machine="cori", method="dataspaces", nsim=32, nana=16)
        assert titan.end_to_end != cori.end_to_end


# ------------------------------------------------ clustered equivalence

class TestClusteredEquivalence:
    @pytest.mark.parametrize("machine", ["titan", "cori"])
    @pytest.mark.parametrize(
        "kwargs,engages",
        [
            # compute-only baselines: no interactions, always clusterable
            (dict(method=None, nsim=512, nana=256), {"titan": True, "cori": True}),
            # Decaf islands: uniform one-hop distances on Cori's
            # dragonfly; Titan's torus hops vary with placement offset
            (dict(method="decaf", nsim=512, nana=256), {"titan": False, "cori": True}),
        ],
        ids=["compute-only", "decaf"],
    )
    def test_bitwise_equal_and_engagement(self, machine, kwargs, engages):
        exact = fresh_run(machine=machine, fidelity="exact", **kwargs)
        clustered = fresh_run(machine=machine, fidelity="clustered", **kwargs)
        expected = "clustered" if engages[machine] else "exact"
        assert clustered.fidelity == expected
        assert exact.fidelity == "exact"
        assert_identical(exact, clustered, ignore=("fidelity",))

    def test_clustered_runs_fewer_actors(self):
        # The point of the mode: representative chains, same numbers.
        from repro.sim.engine import Environment

        counts = []
        orig = Environment.step

        def counting(env):
            counts[-1] += 1
            orig(env)

        Environment.step = counting
        try:
            for fidelity in ("exact", "clustered"):
                counts.append(0)
                fresh_run(machine="cori", method="decaf",
                          nsim=512, nana=256, fidelity=fidelity)
        finally:
            Environment.step = orig
        exact_events, clustered_events = counts
        assert clustered_events < exact_events / 2

    def test_exact_default(self):
        result = fresh_run(machine="titan", method=None, nsim=32, nana=16)
        assert result.fidelity == "exact"

    def test_invalid_fidelity_rejected(self):
        with pytest.raises(ValueError):
            run_coupled(fidelity="fast")
