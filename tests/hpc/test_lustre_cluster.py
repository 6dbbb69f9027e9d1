"""Unit tests for the Lustre model, machine catalog and placement."""

import pytest

from repro.hpc import (
    CORI,
    Cluster,
    GB,
    LustreFilesystem,
    LustreSpec,
    MB,
    Placement,
    SchedulerPolicyViolation,
    TITAN,
    get_machine,
)
from repro.sim import Environment


class TestMachineCatalog:
    def test_lookup_case_insensitive(self):
        assert get_machine("Titan") is TITAN
        assert get_machine("CORI") is CORI

    def test_unknown_machine(self):
        with pytest.raises(KeyError):
            get_machine("summit")

    def test_paper_specs_titan(self):
        assert TITAN.num_nodes == 18688
        assert TITAN.node.cores == 16
        assert TITAN.node.injection_bw == 5.5 * GB
        assert TITAN.node.rdma_capacity == 1843 * MB
        assert TITAN.node.rdma_max_handlers == 3675
        assert TITAN.lustre.num_mds == 4
        assert not TITAN.allows_node_sharing
        assert not TITAN.interconnect.requires_drc

    def test_paper_specs_cori(self):
        assert CORI.node.cores == 68
        assert CORI.node.injection_bw == 15.6 * GB
        assert CORI.lustre.num_osts == 248
        assert CORI.lustre.num_mds == 1
        assert CORI.allows_node_sharing
        assert not CORI.supports_heterogeneous_launch
        assert CORI.interconnect.requires_drc

    def test_cori_relative_speed(self):
        # "the CPU frequency of Cori is only 63.6% of Titan"
        assert CORI.relative_core_speed == pytest.approx(0.636, abs=0.001)
        assert CORI.compute_time(10.0) == pytest.approx(15.71, abs=0.01)


class TestLustre:
    def make_fs(self, env, num_osts=4, bw=400.0, num_mds=1):
        spec = LustreSpec(
            num_osts=num_osts,
            peak_bandwidth=bw,
            capacity_bytes=10**12,
            num_mds=num_mds,
            mds_op_time=0.5,
        )
        return LustreFilesystem(env, spec)

    def test_open_costs_one_mds_op(self):
        env = Environment()
        fs = self.make_fs(env)

        def proc(env):
            yield env.process(fs.open("/f1"))

        env.process(proc(env))
        env.run()
        assert env.now == pytest.approx(0.5)
        assert fs.files_created == 1

    def test_mds_serializes_opens(self):
        env = Environment()
        fs = self.make_fs(env, num_mds=1)

        def proc(env, path):
            yield env.process(fs.open(path))

        for i in range(4):
            env.process(proc(env, f"/f{i}"))
        env.run()
        assert env.now == pytest.approx(2.0)  # 4 opens x 0.5 s through 1 MDS

    def test_more_mds_parallelizes_opens(self):
        env = Environment()
        fs = self.make_fs(env, num_mds=4)

        def proc(env, path):
            yield env.process(fs.open(path))

        for i in range(4):
            env.process(proc(env, f"/f{i}"))
        env.run()
        assert env.now == pytest.approx(0.5)

    def test_striped_write_uses_parallel_osts(self):
        env = Environment()
        fs = self.make_fs(env, num_osts=4, bw=400.0)  # 100 B/s per OST
        done = []

        def proc(env):
            handle = yield env.process(fs.open("/f", stripe_count=-1, stripe_size=100))
            yield env.process(fs.write(handle, 0, 400))
            done.append(env.now)

        env.process(proc(env))
        env.run()
        # open 0.5 s + 400 B over 4 OSTs in parallel (100 B each at 100 B/s)
        assert done == [pytest.approx(1.5)]
        assert fs.bytes_written == 400

    def test_single_stripe_serializes_on_one_ost(self):
        env = Environment()
        fs = self.make_fs(env, num_osts=4, bw=400.0)
        done = []

        def proc(env):
            handle = yield env.process(fs.open("/f", stripe_count=1, stripe_size=100))
            yield env.process(fs.write(handle, 0, 400))
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [pytest.approx(4.5)]

    def test_read_accounting(self):
        env = Environment()
        fs = self.make_fs(env)

        def proc(env):
            handle = yield env.process(fs.open("/f"))
            yield env.process(fs.read(handle, 0, 123))

        env.process(proc(env))
        env.run()
        assert fs.bytes_read == 123

    def test_invalid_stripe_count(self):
        env = Environment()
        fs = self.make_fs(env)

        def proc(env):
            yield env.process(fs.open("/f", stripe_count=0))

        env.process(proc(env))
        with pytest.raises(ValueError):
            env.run()


class TestClusterPlacement:
    def test_node_creation_lazy_and_cached(self):
        env = Environment()
        cluster = Cluster(env, TITAN)
        n5 = cluster.node(5)
        assert cluster.node(5) is n5
        assert len(cluster.booted_nodes) == 1

    def test_lustre_creation_lazy_and_cached(self):
        cluster = Cluster(Environment(), TITAN)
        assert cluster._lustre is None
        fs = cluster.lustre
        assert cluster.lustre is fs
        assert len(fs._osts) == TITAN.lustre.num_osts
        assert not fs._rates_frozen

    def test_lustre_first_touched_after_freeze_is_frozen(self):
        cluster = Cluster(Environment(), TITAN)
        cluster.freeze_rates()
        assert cluster._lustre is None  # freezing builds nothing
        fs = cluster.lustre
        assert fs._rates_frozen
        assert all(ost._rate_frozen for ost in fs._osts)
        with pytest.raises(RuntimeError):
            fs.degrade_ost(0, 2.0)

    def test_lustre_touched_before_freeze_is_frozen_by_it(self):
        cluster = Cluster(Environment(), CORI)
        fs = cluster.lustre
        cluster.freeze_rates()
        assert fs._rates_frozen
        assert all(ost._rate_frozen for ost in fs._osts)

    def test_node_id_range_checked(self):
        env = Environment()
        cluster = Cluster(env, TITAN)
        with pytest.raises(ValueError):
            cluster.node(TITAN.num_nodes)

    def test_drc_only_on_cori(self):
        env = Environment()
        assert Cluster(env, TITAN).drc is None
        assert Cluster(env, CORI).drc is not None

    def test_dedicated_placement_no_overlap(self):
        env = Environment()
        cluster = Cluster(env, TITAN)  # 16 cores/node
        placement = Placement(cluster)
        sim = placement.place("simulation", 32)
        ana = placement.place("analytics", 16)
        sim_nodes = {loc.node_id for loc in sim}
        ana_nodes = {loc.node_id for loc in ana}
        assert sim_nodes == {0, 1}
        assert ana_nodes == {2}

    def test_shared_placement_overlaps(self):
        env = Environment()
        cluster = Cluster(env, CORI)
        placement = Placement(cluster, shared_nodes=True)
        sim = placement.place("simulation", 68)
        ana = placement.place("analytics", 68)
        assert {loc.node_id for loc in sim} == {loc.node_id for loc in ana} == {0}

    def test_titan_refuses_shared_mode(self):
        env = Environment()
        cluster = Cluster(env, TITAN)
        with pytest.raises(SchedulerPolicyViolation):
            Placement(cluster, shared_nodes=True)

    def test_duplicate_component_rejected(self):
        env = Environment()
        placement = Placement(Cluster(env, TITAN))
        placement.place("simulation", 8)
        with pytest.raises(ValueError):
            placement.place("simulation", 8)

    def test_node_of_resolves(self):
        env = Environment()
        cluster = Cluster(env, TITAN)
        placement = Placement(cluster)
        placement.place("servers", 4, ranks_per_node=2)
        assert placement.node_of("servers", 0).node_id == 0
        assert placement.node_of("servers", 3).node_id == 1

    def test_unplaced_component_raises(self):
        env = Environment()
        placement = Placement(Cluster(env, TITAN))
        with pytest.raises(KeyError):
            placement.locations("ghost")
