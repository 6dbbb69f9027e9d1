"""The content-addressed run cache."""

import dataclasses
import multiprocessing
import pickle
import types

import pytest

from repro.core import runcache
from repro.core.runcache import RunCache
from repro.hpc.machines import get_machine
from repro.sim import TimeSeries
from repro.staging.base import StagingConfig
from repro.staging.ndarray import Variable
from repro.workflows import RunSpec, run_coupled
from repro.workflows.trace import ActivityTrace


@pytest.fixture(autouse=True)
def clean_cache():
    runcache.clear()
    yield
    runcache.clear()


def key(**kwargs):
    return RunSpec.of(**kwargs).key


class TestConfigKey:
    BASE = dict(machine="titan", workflow="lammps", method="dataspaces",
                nsim=32, nana=16, steps=5)

    def test_stable(self):
        assert key(**self.BASE) == key(**self.BASE)

    def test_kwarg_order_irrelevant(self):
        forward = key(**self.BASE, topology_overrides=dict(
            sim_ranks_per_node=1, ana_ranks_per_node=2))
        backward = key(**dict(reversed(list(self.BASE.items()))),
                       topology_overrides=dict(ana_ranks_per_node=2,
                                               sim_ranks_per_node=1))
        assert forward == backward

    @pytest.mark.parametrize("field,value", [
        ("machine", "cori"), ("method", "dimes"), ("nsim", 64), ("steps", 6),
    ])
    def test_sensitive_to_every_input(self, field, value):
        assert key(**{**self.BASE, field: value}) != key(**self.BASE)

    def test_dataclasses_canonicalized(self):
        a = key(config=StagingConfig(), variable=Variable("v", (8, 8)))
        b = key(config=StagingConfig(), variable=Variable("v", (8, 8)))
        c = key(config=StagingConfig(max_versions=2),
                variable=Variable("v", (8, 8)))
        assert a == b != c

    def test_uncanonicalizable_rejected(self):
        with pytest.raises(TypeError, match="not run_coupled arguments"):
            key(callback=lambda: None)
        # an object of the wrong type would key by its address
        with pytest.raises(TypeError, match="config must be a StagingConfig"):
            key(config=types.SimpleNamespace(transport="ugni"))


class TestRunCache:
    def test_memory_roundtrip(self):
        cache = RunCache()
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        assert cache.hits == 1
        assert cache.get("missing") is None
        assert cache.misses == 1

    def test_disk_roundtrip_preserves_every_field(self, tmp_path):
        cache = RunCache(disk_dir=str(tmp_path))
        result = run_coupled(machine="titan", method="dataspaces",
                             nsim=32, nana=16)
        assert result.ok
        cache.put("k", result)

        reloaded = RunCache(disk_dir=str(tmp_path)).get("k")
        assert reloaded is not None and reloaded is not result
        for f in dataclasses.fields(result):
            want, got = getattr(result, f.name), getattr(reloaded, f.name)
            if isinstance(want, TimeSeries):
                assert (got.times, got.values) == (want.times, want.values), f.name
            else:
                assert got == want, f.name

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = RunCache(disk_dir=str(tmp_path))
        (tmp_path / "bad.pkl").write_bytes(b"not a pickle")
        assert cache.get("bad") is None

    def test_truncated_entry_recomputed_not_raised(self, tmp_path):
        cache = RunCache(disk_dir=str(tmp_path))
        cache.put("k", _entry(1))
        path = tmp_path / "k.pkl"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        fresh = RunCache(disk_dir=str(tmp_path))
        assert fresh.get("k") is None  # miss, no exception
        fresh.put("k", _entry(2))  # recompute overwrites the wreck
        assert RunCache(disk_dir=str(tmp_path)).get("k").payload == 2

    def test_seed_is_memory_only(self, tmp_path):
        cache = RunCache(disk_dir=str(tmp_path))
        cache.seed("k", _entry(7))
        assert not list(tmp_path.iterdir())  # nothing on disk
        assert cache.get("k").payload == 7
        assert cache.misses == 0


def _entry(payload):
    """A picklable stand-in for a RunResult."""
    return types.SimpleNamespace(payload=payload, pad="x" * 20000)


def _hammer(directory, worker, writes):
    """Write the same small key set over and over (spawn target)."""
    cache = RunCache(disk_dir=directory)
    for i in range(writes):
        cache.put(f"key{i % 4}", _entry((worker, i)))


class TestConcurrentDisk:
    """The ``--jobs`` contract: many processes, one cache directory."""

    def test_concurrent_writers_and_reader(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_hammer, args=(str(tmp_path), w, 50))
            for w in range(3)
        ]
        for p in procs:
            p.start()
        # read continuously while the writers race on the same keys
        reader = RunCache(disk_dir=str(tmp_path))
        while any(p.is_alive() for p in procs):
            for i in range(4):
                entry = reader.get(f"key{i}")
                assert entry is None or isinstance(entry.payload, tuple)
            reader._memory.clear()  # force disk reads every round
        for p in procs:
            p.join()
            assert p.exitcode == 0
        # every surviving entry is complete, and no temp files leak
        for i in range(4):
            assert RunCache(disk_dir=str(tmp_path)).get(f"key{i}") is not None
        leftovers = [n for n in (p.name for p in tmp_path.iterdir())
                     if n.endswith(".tmp")]
        assert leftovers == []


class TestDriverIntegration:
    KW = dict(machine="titan", method="dataspaces", nsim=32, nana=16)

    def test_second_call_is_a_hit(self):
        first = run_coupled(**self.KW)
        hits = runcache.CACHE.hits
        second = run_coupled(**self.KW)
        assert second is first
        assert runcache.CACHE.hits == hits + 1

    def test_fidelity_not_in_key(self):
        # the ignored keyword keys and answers as the run without it
        first = run_coupled(**self.KW)
        again = run_coupled(fidelity="steady", **self.KW)
        assert again is first

    def test_traced_runs_bypass(self):
        cached = run_coupled(**self.KW)
        traced = run_coupled(trace=ActivityTrace(), **self.KW)
        assert traced is not cached
        # and the traced run did not poison the cache
        assert run_coupled(**self.KW) is cached

    def test_ad_hoc_machine_spec_bypasses(self):
        spec = dataclasses.replace(get_machine("titan"))
        assert spec is not get_machine("titan")
        first = run_coupled(machine=spec, method=None, nsim=32, nana=16)
        second = run_coupled(machine=spec, method=None, nsim=32, nana=16)
        assert first is not second
        assert first.end_to_end == second.end_to_end

    def test_cached_result_pickles(self, tmp_path):
        runcache.enable_disk(str(tmp_path))
        try:
            run_coupled(**self.KW)
            files = list(tmp_path.glob("*.pkl"))
            assert len(files) == 1
            with open(files[0], "rb") as fh:
                assert pickle.load(fh).end_to_end > 0
        finally:
            runcache.CACHE.disk_dir = None
