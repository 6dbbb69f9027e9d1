"""A finished run keeps no simulator and builds only what it touches."""

import dataclasses
import gc
import weakref

import pytest

from repro.chaos.faults import FaultEvent, FaultPlan
from repro.core import runcache
from repro.hpc import cluster as cluster_module
from repro.sim import Environment
from repro.workflows import RunResult, RunSpec, driver, run_coupled

#: a fault that slows one OST for a second and lets the run finish
OST_SLOW = FaultPlan((FaultEvent("ost_slow", at=6.0, factor=2.0,
                                 duration=1.0),))


class _WeakEnvironment(Environment):
    __slots__ = ("__weakref__",)


@pytest.fixture
def envs(monkeypatch):
    """Weak references to every Environment the driver builds."""
    refs = []

    def build():
        env = _WeakEnvironment()
        refs.append(weakref.ref(env))
        return env

    monkeypatch.setattr(driver, "Environment", build)
    runcache.clear()
    yield refs
    runcache.clear()


@pytest.fixture
def lustres(monkeypatch):
    """Every LustreFilesystem a cluster builds, in build order."""
    built = []
    real = cluster_module.LustreFilesystem

    def build(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cluster_module, "LustreFilesystem", build)
    runcache.clear()
    yield built
    runcache.clear()


def test_run_result_has_no_library_field():
    assert "library" not in {f.name for f in dataclasses.fields(RunResult)}


@pytest.mark.parametrize("method,fault_plan,fidelity,where", [
    # no boundary pair matches: a shorter step rotates across writers
    ("mpiio", None, "exact", dict(workflow="laplace", nsim=64, nana=32)),
    ("mpiio", None, "steady", {}),  # also publishes a prefix snapshot
    (None, None, "exact", {}),
    ("mpiio", OST_SLOW, "exact", {}),
], ids=["no-match", "mpiio", "compute-only", "ost-slow"])
def test_a_finished_run_is_garbage(envs, method, fault_plan, fidelity, where):
    point = dict(machine="titan", workflow="lammps", method=method, nsim=32,
                 nana=16, steps=6, fault_plan=fault_plan)
    point.update(where)
    result = run_coupled(**point)
    assert result.ok
    assert result.fidelity == fidelity
    held = (result, runcache.CACHE.get(RunSpec.of(**point).key),
            dict(runcache.CACHE._prefixes))
    assert held[1] is result
    assert len(held[2]) == (fidelity == "steady")
    assert len(envs) == 1
    gc.collect()
    assert envs[0]() is None, "a cached result pins its simulation"


#: plans that cannot slow an OST: the pool stays frozen
RANK_DEATH = FaultPlan((FaultEvent("rank_death", after_puts=2, target=1),))
TRANSPORT_DEGRADE = FaultPlan((FaultEvent("transport_degrade", at=6.0,
                                          factor=2.0, duration=1.0),))


@pytest.mark.parametrize("method,fault_plan,frozen", [
    ("dataspaces", None, []),         # never touches the filesystem
    ("mpiio", None, [True]),          # one pool, frozen at birth
    ("mpiio", OST_SLOW, [False]),     # ost_slow keeps the OSTs mutable
    ("dataspaces", OST_SLOW, [False]),  # built when the fault fires
    ("mpiio", RANK_DEATH, [True]),    # a rate-neutral plan
    ("mpiio", TRANSPORT_DEGRADE, [True]),  # degrades the NICs only
], ids=["dataspaces", "mpiio", "mpiio-ost-slow", "dataspaces-ost-slow",
        "mpiio-rank-death", "mpiio-transport-degrade"])
def test_lustre_is_built_once_on_first_touch(lustres, method, fault_plan,
                                             frozen):
    result = run_coupled("titan", "lammps", method, nsim=32, nana=16,
                         steps=2, fault_plan=fault_plan)
    assert result.ok
    assert [fs._rates_frozen for fs in lustres] == frozen
    for fs in lustres:
        if fs._rates_frozen:
            assert fs._pipes is None  # a frozen pool builds no OST pipes
        else:
            assert len(fs._pipes) == fs.spec.num_osts
            assert not any(ost._rate_frozen for ost in fs._pipes)
