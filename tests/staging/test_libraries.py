"""Integration-style unit tests for the five staging libraries.

Each test drives real coroutine writers/readers through a library on a
simulated machine, moving real numpy payloads where correctness is the
point and plain sizes where behaviour/limits are the point.
"""

import numpy as np
import pytest

from repro.hpc import (
    CORI,
    Cluster,
    DrcOverload,
    MB,
    OutOfMemory,
    OutOfRdmaHandlers,
    OutOfRdmaMemory,
    OutOfSockets,
    SchedulerPolicyViolation,
    TITAN,
)
from repro.sim import Environment
from repro.staging import (
    StagingConfig,
    Topology,
    Variable,
    application_decomposition,
    make_library,
)

# One rank per node => actors == real processors: full-fidelity runs.
SMALL_ACTORS = dict(sim_ranks_per_node=1, ana_ranks_per_node=1)


def run_workflow(method, machine=TITAN, nsim=8, nana=4, steps=2, dims=None,
                 with_data=True, axis=1, **make_kwargs):
    """Drive a small coupled run; returns (env, lib, results dict)."""
    env = Environment()
    cluster = Cluster(env, machine)
    if dims is None:
        dims = (4, max(nsim, 8), 100)
    var = Variable("field", dims)
    make_kwargs.setdefault("topology_overrides", dict(SMALL_ACTORS))
    lib = make_library(method, cluster, nsim=nsim, nana=nana, variable=var,
                       steps=steps, **make_kwargs)
    topo = lib.topology
    write_regions = application_decomposition(var, topo.sim_actors, axis)
    read_regions = application_decomposition(var, topo.ana_actors, axis)
    rng = np.random.default_rng(42)
    full = rng.random(var.dims) if with_data else None
    results = {}

    def writer(actor):
        for v in range(steps):
            payload = None
            if with_data:
                payload = full[write_regions[actor].local_slices(var.bounds)] + v
            yield env.process(lib.put(actor, write_regions[actor], v, data=payload))

    def reader(actor):
        for v in range(steps):
            total, data = yield env.process(lib.get(actor, read_regions[actor], v))
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
            expected = full[read_regions[actor].local_slices(var.bounds)] + v
            np.testing.assert_allclose(data, expected)
    return env, lib, results


ALL_METHODS = ["dataspaces", "dataspaces-adios", "dimes", "dimes-adios",
               "flexpath", "decaf", "mpiio"]


class TestDataRoundTrip:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_roundtrip_titan(self, method):
        env, lib, results = run_workflow(method)
        assert lib.stats.puts == lib.topology.sim_actors * 2
        assert lib.stats.gets == lib.topology.ana_actors * 2
        assert lib.stats.bytes_staged > 0

    @pytest.mark.parametrize("method", ["dataspaces", "flexpath", "decaf"])
    def test_roundtrip_cori(self, method):
        run_workflow(method, machine=CORI)

    def test_sizes_only_mode(self):
        env, lib, results = run_workflow("dataspaces", with_data=False)
        for (actor, v), (total, data) in results.items():
            assert data is None
            assert total > 0


class TestVersionCoupling:
    def test_writer_cannot_run_ahead(self):
        """max_versions=1: version v+1 waits for v's consumption."""
        env = Environment()
        var = Variable("field", (4, 8, 100))
        lib = make_library("dataspaces", Cluster(env, TITAN), nsim=8, nana=4,
                           variable=var, steps=3,
                           topology_overrides=dict(SMALL_ACTORS))
        topo = lib.topology
        write_regions = application_decomposition(var, topo.sim_actors, 1)
        read_regions = application_decomposition(var, topo.ana_actors, 1)
        slow = 1.0  # reader think time, far above a put's cost
        put_end, get_end = {}, {}

        def writer(actor):
            for v in range(3):
                yield env.process(lib.put(actor, write_regions[actor], v))
                put_end[actor, v] = env.now

        def reader(actor):
            for v in range(3):
                yield env.timeout(slow)
                yield env.process(lib.get(actor, read_regions[actor], v))
                get_end[actor, v] = env.now

        def main(env):
            yield env.process(lib.bootstrap())
            yield env.all_of(
                [env.process(writer(i)) for i in range(topo.sim_actors)]
                + [env.process(reader(j)) for j in range(topo.ana_actors)]
            )

        env.process(main(env))
        env.run()
        assert len(put_end) == topo.sim_actors * 3
        assert len(get_end) == topo.ana_actors * 3
        # version 0 stages at once; every later put waited for the
        # slowest reader to consume the version before it
        assert max(t for (_, v), t in put_end.items() if v == 0) < slow
        for v in (1, 2):
            consumed = max(t for (_, u), t in get_end.items() if u == v - 1)
            assert consumed >= v * slow
            assert min(t for (_, u), t in put_end.items() if u == v) >= consumed

    def test_flexpath_queue_size_two_runs(self):
        config = StagingConfig(transport="nnti", use_adios=True, queue_size=2)
        env, lib, _ = run_workflow("flexpath", steps=3, config=config)
        assert lib.gate.window == 2


class TestServerSizing:
    def test_dataspaces_paper_default(self):
        env, lib, _ = run_workflow("dataspaces", nsim=128, nana=64)
        assert lib.topology.nservers == 8  # 64 analytics / 8

    def test_dimes_always_four_metadata_servers(self):
        env, lib, _ = run_workflow("dimes", nsim=128, nana=64)
        assert lib.topology.nservers == 4

    def test_decaf_one_dflow_per_analytics_proc(self):
        env, lib, _ = run_workflow("decaf", nsim=128, nana=64)
        assert lib.topology.nservers == 64

    def test_flexpath_and_mpiio_serverless(self):
        for method in ("flexpath", "mpiio"):
            env, lib, _ = run_workflow(method)
            assert lib.topology.nservers == 0
            assert lib.servers == []

    def test_server_count_override(self):
        env, lib, _ = run_workflow("dataspaces", nsim=128, nana=64, num_servers=16)
        assert lib.topology.nservers == 16


class TestServerMemory:
    def test_dataspaces_server_memory_includes_index_and_buffering(self):
        env, lib, _ = run_workflow("dataspaces", nsim=16, nana=8)
        server = lib.servers[0]
        breakdown = server.memory.by_category
        assert breakdown.get("index", 0) > 0
        assert server.memory.peak > 0

    def test_decaf_seven_x_expansion(self):
        env, lib, _ = run_workflow("decaf", nsim=8, nana=4, with_data=False)
        var_bytes = 4 * 8 * 100 * 8
        staged = sum(s.memory.category_total("staged-rich") for s in lib.servers)
        # Trackers report real per-server bytes: the live version holds
        # 7x the raw bytes spread over the real servers, of which the
        # actors represent 1/server_scale.
        expected = 7 * var_bytes / lib.topology.server_scale
        assert staged == pytest.approx(expected, rel=0.01)

    def test_dimes_servers_metadata_only(self):
        env, lib, _ = run_workflow("dimes", nsim=16, nana=8)
        for server in lib.servers:
            assert server.memory.category_total("staged") == 0
            assert server.memory.category_total("metadata") > 0

    def test_old_versions_evicted(self):
        env, lib, _ = run_workflow("dataspaces", steps=3, with_data=False)
        var = lib.variable
        # Only the newest version may remain staged (max_versions=1).
        assert lib.global_store.versions(var) == [2]


class TestAtScaleValidation:
    def test_dataspaces_out_of_rdma_memory_large_problem(self):
        """Figure 3: 128 MB/proc with default servers exhausts RDMA."""
        with pytest.raises(OutOfRdmaMemory):
            run_workflow(
                "dataspaces", nsim=1024, nana=512,
                dims=(4096, 1024, 4096), with_data=False,
            )

    def test_dataspaces_doubling_servers_fixes_rdma(self):
        """The paper's remediation: double the staging servers."""
        run_workflow(
            "dataspaces", nsim=1024, nana=512, num_servers=128,
            dims=(4096, 1024, 4096), with_data=False, steps=1,
        )

    def test_dimes_out_of_rdma_memory_client_side(self):
        """DIMES pins staged data in simulation-node memory."""
        with pytest.raises(OutOfRdmaMemory):
            run_workflow(
                "dimes", nsim=1024, nana=512,
                dims=(4096, 1024, 4096), with_data=False,
                topology_overrides=dict(
                    sim_ranks_per_node=16, ana_ranks_per_node=8
                ),
            )

    def test_rdma_handler_exhaustion_at_largest_scale(self):
        """The (8192, 4096) Titan failure: too many live handlers."""
        with pytest.raises(OutOfRdmaHandlers):
            run_workflow(
                "dimes", nsim=8192, nana=4096,
                dims=(5, 8192, 512000), with_data=False,
                topology_overrides={},  # the paper's 8 ranks/node
            )

    def test_drc_overload_on_cori_at_largest_scale(self):
        """Both workflows fail at (8192, 4096) on Cori via DRC."""
        with pytest.raises(DrcOverload):
            run_workflow(
                "dataspaces", machine=CORI, nsim=8192, nana=4096,
                dims=(5, 8192, 512000), with_data=False,
            )

    def test_no_drc_issue_at_medium_scale_on_cori(self):
        run_workflow(
            "dataspaces", machine=CORI, nsim=2048, nana=1024,
            dims=(5, 2048, 51200), with_data=False, steps=1,
        )

    def test_socket_exhaustion_beyond_1024_512(self):
        """Figure 10: socket descriptors deplete beyond (1024, 512)."""
        with pytest.raises(OutOfSockets):
            run_workflow(
                "dataspaces", transport="tcp", nsim=2048, nana=1024,
                dims=(5, 2048, 51200), with_data=False,
            )

    def test_sockets_ok_at_1024_512(self):
        run_workflow(
            "dataspaces", transport="tcp", nsim=1024, nana=512,
            dims=(5, 1024, 51200), with_data=False, steps=1,
        )

    def test_decaf_oom_on_extreme_dataset(self):
        """Table IV: Decaf's 7x expansion can exceed node RAM."""
        with pytest.raises(OutOfMemory):
            run_workflow(
                "decaf", nsim=64, nana=32,
                # ~640 MB/proc raw -> x7 x8 servers/node >> 32 GB
                dims=(4096, 64, 20480), with_data=False,
            )


class TestSchedulingPolicies:
    def test_shared_nodes_rejected_on_titan(self):
        with pytest.raises(SchedulerPolicyViolation):
            run_workflow("flexpath", machine=TITAN, shared_nodes=True)

    def test_shared_nodes_allowed_on_cori(self):
        # Shared mode spreads both components over the same node set
        # (2 sim + 1 analytics rank per node), so every reader is
        # co-located with the writers of its region.
        env, lib, _ = run_workflow(
            "flexpath", machine=CORI, shared_nodes=True, transport="shm",
            nsim=8, nana=4,
            topology_overrides=dict(sim_ranks_per_node=2, ana_ranks_per_node=1),
        )
        assert lib.shared_nodes

    def test_decaf_shared_mode_needs_heterogeneous_launch(self):
        """Finding 5: Cori lacks MPMD, so Decaf cannot run shared."""
        with pytest.raises(SchedulerPolicyViolation):
            run_workflow("decaf", machine=CORI, shared_nodes=True)


class TestTransportSelection:
    def test_default_transports(self):
        env, lib, _ = run_workflow("dataspaces")
        assert lib.transport.name == "ugni"
        env, lib, _ = run_workflow("flexpath")
        assert lib.transport.name == "nnti"
        env, lib, _ = run_workflow("decaf")
        assert lib.transport.name == "mpi"

    def test_socket_override(self):
        env, lib, _ = run_workflow("dataspaces", transport="tcp")
        assert lib.transport.name == "tcp"

    def test_socket_slower_than_rdma(self):
        env_rdma, _, _ = run_workflow("dataspaces", dims=(64, 8, 10000),
                                      with_data=False)
        env_tcp, _, _ = run_workflow("dataspaces", transport="tcp",
                                     dims=(64, 8, 10000), with_data=False)
        assert env_tcp.now > env_rdma.now

    def test_decaf_rejects_non_mpi(self):
        with pytest.raises(ValueError):
            run_workflow("decaf", transport="tcp")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_workflow("redis")


class TestHashVersion:
    """Table I's hash_version knob: flat DHT (1) vs Hilbert SFC (2)."""

    def test_sfc_index_costs_more_memory(self):
        cfg1 = StagingConfig(transport="ugni", hash_version=1)
        cfg2 = StagingConfig(transport="ugni", hash_version=2)
        env1, lib1, _ = run_workflow("dataspaces", nsim=16, nana=8,
                                     dims=(4096, 16384), with_data=False,
                                     config=cfg1, steps=1)
        env2, lib2, _ = run_workflow("dataspaces", nsim=16, nana=8,
                                     dims=(4096, 16384), with_data=False,
                                     config=cfg2, steps=1)
        index1 = lib1.servers[0].memory.category_total("index")
        index2 = lib2.servers[0].memory.category_total("index")
        assert index2 > 50 * index1

    def test_both_hash_versions_roundtrip_data(self):
        for version in (1, 2):
            cfg = StagingConfig(transport="ugni", hash_version=version)
            run_workflow("dataspaces", config=cfg)
