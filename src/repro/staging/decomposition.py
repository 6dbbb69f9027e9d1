"""Domain decomposition strategies.

Two decompositions interact in the study (Section III-B4, Figure 8):

* the *application* decomposition — how the simulation splits the global
  array over its MPI processors (LAMMPS splits the second dimension);
* the *staging* decomposition — how DataSpaces/DIMES partition the
  global domain over staging servers: "2^ceil(log(n)) regions in the
  longest dimension, where n is the number of staging servers".

When the two split different dimensions, every processor's local region
intersects every server region, and because processors walk their
sub-regions "from begin to end ... in the same sequence", all N
processors converge on one server at a time: the N-to-1 pattern behind
Finding 3.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from .ndarray import Region, Variable, longest_dimension


def split_along(dims: Tuple[int, ...], axis: int, parts: int) -> List[Region]:
    """Split an array of shape ``dims`` into ``parts`` slabs along ``axis``.

    Extents are distributed as evenly as possible; the number of
    returned regions is ``min(parts, dims[axis])``.
    """
    if not 0 <= axis < len(dims):
        raise ValueError(f"axis {axis} out of range for {dims}")
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    extent = dims[axis]
    parts = min(parts, extent)
    base, extra = divmod(extent, parts)
    # Decompositions at the paper's full processor range produce tens
    # of thousands of slabs; build each region by mutating the axis
    # entry of prototype bounds (every slab is valid by construction,
    # so the dataclass validation is skipped).
    lb_proto = [0] * len(dims)
    ub_proto = list(dims)
    new_region = object.__new__
    set_field = object.__setattr__
    regions = []
    start = 0
    for i in range(parts):
        size = base + 1 if i < extra else base
        lb_proto[axis] = start
        start += size
        ub_proto[axis] = start
        region = new_region(Region)
        set_field(region, "lb", tuple(lb_proto))
        set_field(region, "ub", tuple(ub_proto))
        regions.append(region)
    return regions


def application_decomposition(
    var: Variable, nprocs: int, axis: int
) -> List[Region]:
    """How the simulation assigns the global array to its processors.

    Returns one region per processor (processor ``i`` owns region ``i``).
    LAMMPS decomposes in the second dimension of its 5 x nprocs x 512000
    output; the synthetic workflow can choose any axis (Figure 9).
    """
    regions = split_along(var.dims, axis, nprocs)
    if len(regions) < nprocs:
        raise ValueError(
            f"cannot split dimension {axis} (extent {var.dims[axis]}) "
            f"into {nprocs} processor regions"
        )
    return regions


def staging_partition(var: Variable, num_servers: int) -> List[Region]:
    """The DataSpaces/DIMES server partition of the global domain.

    The domain is split into ``2 ** ceil(log2(n))`` regions along the
    *longest* dimension (n = number of staging servers); sub-regions are
    then mapped to servers sequentially (see :func:`region_to_server`).
    """
    if num_servers <= 0:
        raise ValueError("num_servers must be positive")
    num_regions = 1 << max(0, math.ceil(math.log2(num_servers)))
    axis = longest_dimension(var.dims)
    return split_along(var.dims, axis, num_regions)


def region_to_server(region_index: int, num_regions: int, num_servers: int) -> int:
    """Sequential mapping of partition sub-regions onto servers.

    Consecutive sub-regions land on consecutive servers (wrapping),
    matching the "mapped to the staging servers sequentially" behaviour
    illustrated in Figure 8a.
    """
    if not 0 <= region_index < num_regions:
        raise ValueError(f"region {region_index} out of range {num_regions}")
    return region_index % num_servers


def access_plan(
    local: Region, partition: List[Region], num_servers: int
) -> List[Tuple[int, Region]]:
    """The ordered server accesses one processor performs for ``local``.

    Returns ``(server, overlap_region)`` pairs *in partition order* —
    processors walk their region "from begin to end in each iteration,
    without enabling multi-threads", so the order is fixed and identical
    across processors.
    """
    plan: List[Tuple[int, Region]] = []
    for index, server_region in enumerate(partition):
        overlap = local.intersect(server_region)
        if overlap is not None:
            plan.append((region_to_server(index, len(partition), num_servers), overlap))
    return plan


def servers_touched(plan: List[Tuple[int, Region]]) -> List[int]:
    """Distinct servers appearing in an access plan, in access order."""
    seen = []
    for server, _ in plan:
        if server not in seen:
            seen.append(server)
    return seen


def is_n_to_one(
    plans: List[List[Tuple[int, Region]]], num_servers: int
) -> bool:
    """Detect the Figure-8a pathology across all processors' plans.

    True when every processor's *first* access targets the same server
    while other servers exist — the concurrent N-to-1 herd the paper
    diagnosed.
    """
    if num_servers <= 1 or not plans:
        return False
    first_targets = {plan[0][0] for plan in plans if plan}
    return len(first_targets) == 1 and any(len(plan) > 1 for plan in plans)
