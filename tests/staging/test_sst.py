"""The SST-style streaming library: pacing, discard, and certificates.

Covers the sixth (beyond-the-paper) scenario family end to end: data
round-trips under both queue policies, reader pacing as real
backpressure, latest-step-wins discard semantics, and the honest
fidelity certificates — engage where the structural proof holds,
decline with a recorded reason where it does not, and fall back
bit-identically to the exact run either way.
"""

import numpy as np
import pytest

from repro.core import runcache
from repro.hpc import Cluster, TITAN
from repro.sim import Environment
from repro.staging import (
    StagingConfig,
    Variable,
    application_decomposition,
    make_library,
)
from repro.workflows import run_coupled

SMALL_ACTORS = dict(sim_ranks_per_node=1, ana_ranks_per_node=1)

CELL = dict(
    workflow="lammps", nsim=8, nana=4, steps=5,
    topology_overrides=dict(SMALL_ACTORS),
)


@pytest.fixture(autouse=True)
def fresh_cache():
    runcache.clear()
    yield
    runcache.clear()


def _config(**knobs):
    knobs.setdefault("use_adios", True)
    return StagingConfig(**knobs)


def run_sst(machine=TITAN, nsim=4, nana=2, steps=4, reader_delay=0.0,
            config=None, with_data=True):
    """Drive writers/readers through Sst directly; (env, lib, results)."""
    env = Environment()
    cluster = Cluster(env, machine)
    var = Variable("field", (4, 8, 100))
    lib = make_library(
        "sst", cluster, nsim=nsim, nana=nana, variable=var, steps=steps,
        config=config or _config(transport="ugni"),
        topology_overrides=dict(SMALL_ACTORS),
    )
    topo = lib.topology
    write_regions = application_decomposition(var, topo.sim_actors, 1)
    read_regions = application_decomposition(var, topo.ana_actors, 1)
    rng = np.random.default_rng(42)
    full = rng.random(var.dims) if with_data else None
    results = {}

    def writer(actor):
        for v in range(steps):
            payload = None
            if with_data:
                payload = full[write_regions[actor].local_slices(var.bounds)] + v
            yield env.process(lib.put(actor, write_regions[actor], v,
                                      data=payload))

    def reader(actor):
        for v in range(steps):
            if reader_delay:
                yield env.pause(reader_delay)
            total, data = yield env.process(
                lib.get(actor, read_regions[actor], v)
            )
            results[(actor, v)] = (total, data)

    def main(env):
        yield env.process(lib.bootstrap())
        procs = [env.process(writer(i)) for i in range(topo.sim_actors)]
        procs += [env.process(reader(i)) for i in range(topo.ana_actors)]
        yield env.all_of(procs)

    env.process(main(env))
    env.run()
    if with_data:
        for (actor, v), (total, data) in results.items():
            if data is None:
                continue  # a discarded step: the reader observed the skip
            expected = full[read_regions[actor].local_slices(var.bounds)] + v
            np.testing.assert_allclose(data, expected)
    return env, lib, results


class TestStreamingSemantics:
    def test_paced_roundtrip_delivers_every_step(self):
        env, lib, results = run_sst()
        assert lib.stats.puts == lib.topology.sim_actors * 4
        assert lib.steps_discarded == 0
        assert all(data is not None for _, data in results.values())

    def test_pacing_window_is_the_queue_depth(self):
        _, q1, _ = run_sst(config=_config(transport="ugni"))
        _, q4, _ = run_sst(config=_config(transport="ugni", queue_size=4))
        assert q1.gate.window == 1
        assert q4.gate.window == 4

    def test_slow_reader_blocks_the_paced_writer(self):
        """Backpressure: a deeper queue absorbs more reader lag."""
        shallow, lib1, _ = run_sst(steps=6, reader_delay=5.0)
        deep, lib4, _ = run_sst(
            steps=6, reader_delay=5.0,
            config=_config(transport="ugni", queue_size=4),
        )
        assert lib1.stats.put_time > lib4.stats.put_time
        assert lib1.steps_discarded == lib4.steps_discarded == 0

    def test_discard_drops_stale_steps_for_a_slow_reader(self):
        """Latest-step-wins: the writer never blocks; unconsumed steps
        fall off the queue and the reader observes the skips."""
        env, lib, results = run_sst(
            steps=6, reader_delay=5.0,
            config=_config(transport="ugni", sst_discard=True),
        )
        assert lib.steps_discarded > 0
        skipped = [k for k, (total, data) in results.items()
                   if data is None and total == 0.0]
        assert len(skipped) > 0
        # The freshest step always survives (never discarded).
        last = max(v for _, v in results)
        assert all(results[(a, last)][1] is not None
                   for a in range(lib.topology.ana_actors))

    def test_discard_writer_is_faster_than_paced_writer(self):
        _, paced, _ = run_sst(steps=6, reader_delay=5.0)
        _, discard, _ = run_sst(
            steps=6, reader_delay=5.0,
            config=_config(transport="ugni", sst_discard=True),
        )
        assert discard.stats.put_time < paced.stats.put_time

    def test_keeping_pace_discards_nothing(self):
        env, lib, results = run_sst(
            config=_config(transport="ugni", sst_discard=True)
        )
        assert lib.steps_discarded == 0
        assert all(data is not None for _, data in results.values())


def _coupled(machine, fidelity, **overrides):
    kwargs = dict(CELL)
    config_knobs = overrides.pop("config_knobs", {})
    transport = "mpi" if machine == "cori" else "ugni"
    kwargs.update(overrides)
    return run_coupled(
        machine=machine, method="sst",
        config=_config(transport=transport, **config_knobs),
        fidelity=fidelity, **kwargs,
    )


class TestFidelityCertificates:
    def test_cori_mpi_engages_both_reductions(self):
        """Dragonfly hops are uniform and MPI needs no DRC: the stream
        groups are provably identical, so clustering + steady engage."""
        result = _coupled("cori", "steady+clustered")
        assert result.ok
        assert result.fidelity == "steady+clustered"
        assert not any(e.startswith("steady:") for e in result.fidelity_log)

    def test_cori_engagement_is_bit_identical_to_exact(self):
        reduced = _coupled("cori", "steady+clustered")
        exact = _coupled("cori", "exact")
        assert reduced.end_to_end == exact.end_to_end
        assert reduced.put_time == exact.put_time
        assert reduced.get_time == exact.get_time
        assert reduced.bytes_staged == exact.bytes_staged

    def test_titan_torus_declines_clustering(self):
        """Unequal hop counts across the torus break the one-group-
        stands-for-all proof; steady still engages on its own."""
        result = _coupled("titan", "steady+clustered")
        assert result.ok
        assert result.fidelity == "steady"

    def test_titan_decline_falls_back_bit_identically(self):
        declined = _coupled("titan", "steady+clustered")
        exact = _coupled("titan", "exact")
        assert declined.end_to_end == exact.end_to_end
        assert declined.put_time == exact.put_time
        assert declined.get_time == exact.get_time

    def test_discard_declines_steady_with_a_recorded_reason(self):
        """Which steps get dropped depends on the absolute writer/reader
        phase: hidden aperiodic state no fingerprint can vouch for."""
        result = _coupled(
            "cori", "steady+clustered", config_knobs=dict(sst_discard=True)
        )
        assert result.ok
        assert result.fidelity == "exact"  # clustering declines too
        assert any("aperiodic hidden state" in e
                   for e in result.fidelity_log)

    def test_discard_decline_falls_back_bit_identically(self):
        declined = _coupled(
            "cori", "steady+clustered", config_knobs=dict(sst_discard=True)
        )
        exact = _coupled(
            "cori", "exact", config_knobs=dict(sst_discard=True)
        )
        assert declined.end_to_end == exact.end_to_end
        assert declined.put_time == exact.put_time

    def test_pmem_mirroring_declines_clustering(self):
        """Every group would write through the one shared tier device."""
        result = _coupled(
            "cori", "clustered", config_knobs=dict(pmem_checkpoint=True)
        )
        assert result.ok
        assert result.fidelity == "exact"
        plain = _coupled("cori", "clustered")
        assert plain.fidelity == "clustered"

    def test_short_runs_record_the_warmup_decline(self):
        """steps=5 under queue_size=4 leaves no room past the warm-up."""
        result = _coupled(
            "cori", "steady+clustered", config_knobs=dict(queue_size=4)
        )
        assert result.ok
        assert result.fidelity == "clustered"
        assert any(e.startswith("steady:") and "warm-up" in e
                   for e in result.fidelity_log)
