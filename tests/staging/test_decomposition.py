"""Unit tests for domain decomposition and the N-to-1 diagnosis."""

import pytest
from hypothesis import given, strategies as st

from repro.staging.decomposition import (
    access_plan,
    application_decomposition,
    first_slab_chunks,
    is_n_to_one,
    region_to_server,
    servers_touched,
    split_along,
    staging_partition,
)
from repro.staging.ndarray import Region, Variable


class TestSplitAlong:
    def test_even_split(self):
        regions = split_along((4, 8), axis=1, parts=4)
        assert [r.shape for r in regions] == [(4, 2)] * 4
        assert regions[0].lb == (0, 0)
        assert regions[3].ub == (4, 8)

    def test_uneven_split_distributes_remainder(self):
        regions = split_along((10,), axis=0, parts=3)
        assert [r.shape[0] for r in regions] == [4, 3, 3]

    def test_split_covers_domain_disjointly(self):
        regions = split_along((7, 13), axis=1, parts=5)
        total = sum(r.num_elements for r in regions)
        assert total == 7 * 13
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                assert a.intersect(b) is None

    def test_parts_capped_by_extent(self):
        regions = split_along((3,), axis=0, parts=10)
        assert len(regions) == 3

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            split_along((4,), axis=1, parts=2)
        with pytest.raises(ValueError):
            split_along((4,), axis=0, parts=0)

    @given(
        st.integers(1, 200),
        st.integers(1, 16),
    )
    def test_property_cover_and_disjoint(self, extent, parts):
        regions = split_along((extent,), axis=0, parts=parts)
        covered = sorted((r.lb[0], r.ub[0]) for r in regions)
        assert covered[0][0] == 0
        assert covered[-1][1] == extent
        for (l1, u1), (l2, u2) in zip(covered, covered[1:]):
            assert u1 == l2


class TestStagingPartition:
    def test_power_of_two_regions_in_longest_dim(self):
        # LAMMPS: 5 x nprocs x 512000 — longest dim is the third.
        var = Variable("atoms", (5, 32, 512000))
        partition = staging_partition(var, num_servers=3)
        assert len(partition) == 4  # 2^ceil(log2(3))
        assert all(r.shape[0] == 5 and r.shape[1] == 32 for r in partition)

    def test_exact_power_of_two(self):
        var = Variable("x", (1024,))
        assert len(staging_partition(var, num_servers=8)) == 8

    def test_single_server(self):
        var = Variable("x", (100,))
        partition = staging_partition(var, 1)
        assert partition == [Region((0,), (100,))]

    def test_invalid_server_count(self):
        with pytest.raises(ValueError):
            staging_partition(Variable("x", (8,)), 0)


class TestRegionToServer:
    def test_sequential_wrap(self):
        assert [region_to_server(i, 8, 4) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            region_to_server(8, 8, 4)


class TestAccessPlan:
    def test_mismatched_layout_touches_all_servers(self):
        """Figure 8a: decomposition in dim 2, partition along dim 3."""
        var = Variable("atoms", (5, 4, 512000))
        partition = staging_partition(var, num_servers=4)
        procs = application_decomposition(var, nprocs=4, axis=1)
        plans = [access_plan(p, partition, 4) for p in procs]
        # Every processor's plan touches every server, starting at server 0.
        for plan in plans:
            assert servers_touched(plan) == [0, 1, 2, 3]
        assert is_n_to_one(plans, 4)

    def test_matched_layout_spreads_servers(self):
        """Figure 8b: partition dimension matches the scaling dimension."""
        var = Variable("atoms", (5, 512, 4000))
        # Make the scaled dimension longest: 5 x 512 x (1000*nprocs).
        var = Variable("atoms", (5, 512, 1000 * 16))
        partition = staging_partition(var, num_servers=4)
        procs = application_decomposition(var, nprocs=16, axis=2)
        plans = [access_plan(p, partition, 4) for p in procs]
        first_targets = {plan[0][0] for plan in plans}
        assert len(first_targets) == 4
        assert not is_n_to_one(plans, 4)

    def test_plan_regions_cover_local_region(self):
        var = Variable("x", (64, 64))
        partition = staging_partition(var, num_servers=4)
        local = Region((10, 0), (20, 64))
        plan = access_plan(local, partition, 4)
        assert sum(r.num_elements for _, r in plan) == local.num_elements

    def test_n_to_one_trivially_false_for_single_server(self):
        assert not is_n_to_one([[(0, Region((0,), (1,)))]], 1)

    def test_n_to_one_false_for_empty(self):
        assert not is_n_to_one([], 4)


@given(
    dims=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    nprocs=st.integers(1, 64),
    num_servers=st.integers(1, 20),
    data=st.data(),
)
def test_first_slab_chunks_counts_the_access_plan(dims, nprocs, num_servers,
                                                  data):
    # the count read off slab bounds equals building both decompositions
    var = Variable("v", tuple(dims))
    axis = data.draw(st.integers(0, len(dims) - 1))
    slab = application_decomposition(var, min(nprocs, dims[axis]), axis)[0]
    plan = access_plan(slab, staging_partition(var, num_servers), num_servers)
    assert first_slab_chunks(var, nprocs, axis, num_servers) == len(plan)
