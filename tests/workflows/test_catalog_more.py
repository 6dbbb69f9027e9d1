"""Additional catalog and driver coverage."""

import pytest

from repro.hpc import MB
from repro.staging import calibration as cal
from repro.workflows import (
    LAMMPS,
    LAPLACE,
    SYNTHETIC,
    WORKFLOWS,
    run_coupled,
)


class TestCatalogDetails:
    def test_calc_memory_models(self):
        # LAMMPS: fixed 173 MB regardless of output size.
        assert LAMMPS.sim_calc_bytes(20 * MB) == cal.LAMMPS_CALC_BYTES
        assert LAMMPS.sim_calc_bytes(128 * MB) == cal.LAMMPS_CALC_BYTES
        # Laplace: two grid copies.
        assert LAPLACE.sim_calc_bytes(128 * MB) == 2.0 * 128 * MB
        # Analytics working sets scale with what they read.
        assert LAMMPS.ana_calc_bytes(40 * MB) == cal.MSD_CALC_FACTOR * 40 * MB

    def test_ranks_per_node_defaults(self):
        assert LAMMPS.sim_ranks_per_node == 8
        assert LAPLACE.sim_ranks_per_node == 16  # fills Titan's cores

    def test_catalog_complete(self):
        assert set(WORKFLOWS) == {"lammps", "laplace", "synthetic"}

    def test_synthetic_zero_compute(self):
        assert SYNTHETIC.sim_step_seconds == 0.0


class TestDriverEdges:
    def test_step_override(self):
        r = run_coupled("titan", "lammps", None, nsim=8, nana=4, steps=2,
                        sim_step_seconds=1.0, ana_step_seconds=0.5)
        assert r.end_to_end == pytest.approx(5.0 + 2 * 1.0)

    def test_explicit_variable_wins(self, monkeypatch):
        from repro.core import runcache
        from repro.staging import Variable
        from repro.workflows import driver

        built = []
        make_library = driver.make_library

        def capture(*args, **kwargs):
            built.append(make_library(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(driver, "make_library", capture)
        runcache.clear()  # a cached result would build no library
        var = Variable("custom", (4, 8, 10))
        r = run_coupled("titan", "synthetic", "flexpath", nsim=8, nana=4,
                        steps=1, variable=var,
                        sim_step_seconds=0.0, ana_step_seconds=0.0)
        assert r.ok
        assert len(built) == 1
        assert built[0].variable is var

    def test_scheduler_violation_captured(self):
        r = run_coupled("titan", "lammps", "flexpath", nsim=8, nana=4,
                        shared_nodes=True)
        assert not r.ok
        assert "SchedulerPolicyViolation" in r.failure

    def test_bytes_staged_accounting(self):
        r = run_coupled("titan", "lammps", "dimes", nsim=32, nana=16, steps=2)
        var_bytes = r.variable_nbytes
        assert r.bytes_staged == pytest.approx(2 * var_bytes)

    def test_server_breakdown_in_result(self):
        r = run_coupled("titan", "lammps", "dataspaces", nsim=32, nana=16,
                        steps=1)
        assert "index" in r.server_memory_breakdown
        assert "server-base" in r.server_memory_breakdown
