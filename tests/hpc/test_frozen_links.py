"""Frozen links against wrapped-process links, on clean runs.

With both NIC pipes frozen, :meth:`repro.hpc.network.Link.send` is tick
arithmetic: one timeout for the transport's op latency plus the wire
latency, each chain claimed inline, a zero-delay hop between the two
crossings and another before the caller resumes.  Every point here must
give the same ``RunResult`` as the wrapped-process form a run takes with
``Cluster.freeze_rates`` monkeypatched to a no-op.  The pinned points
are drawn points that change when one of the two hops is deleted.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import runcache
from repro.staging.factory import method_names
from repro.workflows.catalog import get_workflow

from ..chaos.test_frozen_plans import assert_frozen_matches_unfrozen

SCALES = [(4, 2), (8, 4), (16, 8), (32, 16), (64, 32), (128, 64),
          (256, 128), (512, 256), (1024, 512)]
TRANSPORTS = [None, "ugni", "nnti", "verbs", "tcp", "tcp-pool", "shm", "mpi"]
ONE_RANK_PER_NODE = dict(sim_ranks_per_node=1, ana_ranks_per_node=1)


@pytest.fixture(autouse=True)
def fresh_cache():
    runcache.clear()
    yield
    runcache.clear()


def _scaled_steps(scale):
    # simulated work grows with ranks x steps: large scales draw few steps
    nsim, nana = scale
    return st.tuples(st.just(nsim), st.just(nana),
                     st.integers(1, max(1, min(30, 2048 // nsim))))


@given(
    method=st.sampled_from([None] + method_names()),
    machine=st.sampled_from(["titan", "cori"]),
    workflow=st.sampled_from(["lammps", "laplace", "synthetic"]),
    shape=st.sampled_from(SCALES).flatmap(_scaled_steps),
    transport=st.sampled_from(TRANSPORTS),
    num_servers=st.one_of(st.none(), st.integers(1, 8)),
    shared_nodes=st.booleans(),
    app_axis=st.sampled_from([None, 0, 1, 2]),
    one_rank_per_node=st.booleans(),
)
@settings(max_examples=30, derandomize=True, deadline=None)
def test_frozen_links_match_wrapped_links_on_drawn_clean_runs(
        method, machine, workflow, shape, transport, num_servers,
        shared_nodes, app_axis, one_rank_per_node):
    nsim, nana, steps = shape
    # configurations the libraries refuse outright are no points
    assume(method != "decaf" or transport in (None, "mpi"))
    dims = get_workflow(workflow).variable(nsim).dims
    assume(app_axis is None or (app_axis < len(dims)
                                and dims[app_axis] >= nsim))
    assert_frozen_matches_unfrozen(
        machine=machine, workflow=workflow, method=method, nsim=nsim,
        nana=nana, steps=steps, transport=transport,
        num_servers=num_servers, shared_nodes=shared_nodes,
        app_axis=app_axis,
        topology_overrides=ONE_RANK_PER_NODE if one_rank_per_node else None,
    )


@pytest.mark.parametrize("point", [
    dict(workflow="lammps", method="dataspaces-adios", nsim=64, nana=32,
         steps=19),
    dict(workflow="laplace", method="dataspaces", nsim=128, nana=64,
         steps=19, transport="mpi", app_axis=0),
    dict(workflow="synthetic", method="dataspaces", nsim=256, nana=128,
         steps=20, transport="tcp-pool"),
    dict(workflow="synthetic", method="dataspaces", nsim=128, nana=64,
         steps=24, num_servers=4, app_axis=1),
], ids=["lammps-adios", "laplace-mpi", "synthetic-tcp-pool",
        "synthetic-servers"])
def test_points_that_need_the_claim_hop(point):
    result = assert_frozen_matches_unfrozen(
        machine="cori", shared_nodes=True, **point)
    assert result.ok


@pytest.mark.parametrize("point", [
    dict(workflow="lammps", method="dimes", nsim=32, nana=16, steps=5,
         transport="tcp"),
    dict(workflow="lammps", method="dimes", nsim=4, nana=2, steps=28,
         transport="mpi", topology_overrides=ONE_RANK_PER_NODE),
    dict(workflow="lammps", method="dataspaces", nsim=8, nana=4, steps=18,
         transport="verbs", num_servers=4, app_axis=1,
         topology_overrides=ONE_RANK_PER_NODE),
    dict(workflow="lammps", method="dataspaces-adios", nsim=4, nana=2,
         steps=10, transport="verbs", num_servers=2,
         topology_overrides=ONE_RANK_PER_NODE),
], ids=["dimes-tcp", "dimes-mpi", "dataspaces-verbs", "adios-verbs"])
def test_points_that_need_the_wake_hop(point):
    result = assert_frozen_matches_unfrozen(
        machine="cori", shared_nodes=True, **point)
    assert result.ok
