"""Unit tests for the method factory and the Topology actor math."""

import pytest

from repro.hpc import Cluster, TITAN
from repro.sim import Environment
from repro.staging import (
    DataSpaces,
    Decaf,
    Dimes,
    Flexpath,
    METHODS,
    MpiIo,
    StagingConfig,
    Topology,
    Variable,
    make_library,
    method_names,
)


def make(method, nsim=32, nana=16, **kwargs):
    env = Environment()
    cluster = Cluster(env, TITAN)
    var = Variable("v", (4, max(nsim, 8), 100))
    return make_library(method, cluster, nsim=nsim, nana=nana, variable=var, **kwargs)


class TestFactory:
    def test_method_names_stable(self):
        assert method_names() == [
            "dataspaces", "dataspaces-adios", "dimes", "dimes-adios",
            "flexpath", "decaf", "mpiio", "sst",
        ]

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("dataspaces", DataSpaces),
            ("dataspaces-adios", DataSpaces),
            ("dimes", Dimes),
            ("flexpath", Flexpath),
            ("decaf", Decaf),
            ("mpiio", MpiIo),
        ],
    )
    def test_classes(self, name, cls):
        assert isinstance(make(name), cls)

    def test_adios_flag(self):
        assert make("dataspaces-adios").config.use_adios
        assert not make("dataspaces").config.use_adios
        assert make("mpiio").config.use_adios  # MPI-IO runs through ADIOS

    def test_explicit_config_wins(self):
        config = StagingConfig(transport="verbs", max_versions=3)
        lib = make("dataspaces", config=config)
        assert lib.config.max_versions == 3
        assert lib.transport.name == "verbs"

    def test_transport_override_on_explicit_config(self):
        config = StagingConfig(transport="verbs")
        lib = make("dataspaces", config=config, transport="tcp")
        assert lib.transport.name == "tcp"

    @pytest.mark.parametrize("lock_type", [1, 3])
    def test_a_run_config_refuses_the_unmodelled_lock_types(self, lock_type):
        # a DataSpaces run models version-window locking only; types 1
        # and 3 used to reach the library and crash every run with a
        # "not fully staged" KeyError, which the pool retried
        with pytest.raises(ValueError, match="lock_type must be 2"):
            StagingConfig(lock_type=lock_type)

    def test_display_names(self):
        assert METHODS["flexpath"].display == "Flexpath (ADIOS)"


class TestTopology:
    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            Topology(nsim=0, nana=1)
        with pytest.raises(ValueError):
            Topology(nsim=1, nana=1, sim_ranks_per_node=0)

    def test_node_counts(self):
        topo = Topology(nsim=100, nana=40, nservers=5,
                        sim_ranks_per_node=8, ana_ranks_per_node=8,
                        servers_per_node=2)
        assert topo.sim_nodes == 13
        assert topo.ana_nodes == 5
        assert topo.server_nodes == 3

    def test_small_runs_one_actor_per_node(self):
        topo = Topology(nsim=32, nana=16, nservers=2)
        assert topo.node_scale == 1
        assert topo.sim_actors == topo.sim_nodes
        assert topo.sim_scale == 32 / topo.sim_actors

    def test_large_runs_share_one_scale_factor(self):
        """Node ratios between components are preserved exactly."""
        topo = Topology(nsim=8192, nana=4096, nservers=512,
                        sim_ranks_per_node=8, ana_ranks_per_node=8,
                        servers_per_node=1, max_actor_nodes=32)
        k = topo.node_scale
        assert k == 32  # 1024 sim nodes / 32
        assert topo.sim_actors == 32
        assert topo.ana_actors == 16
        assert topo.server_actors == 16
        # Ratio preservation: actors mirror node ratios.
        assert topo.sim_actors / topo.ana_actors == topo.sim_nodes / topo.ana_nodes

    def test_actor_cap_respected(self):
        topo = Topology(nsim=100000, nana=50000, nservers=1000,
                        max_actor_nodes=16)
        assert topo.sim_actors <= 16
        assert topo.ana_actors <= 16

    def test_zero_servers(self):
        topo = Topology(nsim=8, nana=4, nservers=0)
        assert topo.server_actors == 0
        assert topo.server_scale == 1.0

    def test_scales_multiply_back(self):
        topo = Topology(nsim=8192, nana=4096, nservers=512)
        assert topo.sim_scale * topo.sim_actors == pytest.approx(8192, rel=0.05)
        assert topo.ana_scale * topo.ana_actors == pytest.approx(4096, rel=0.05)
