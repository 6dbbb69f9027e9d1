"""The ``whatif`` request stream: point submissions drawn from a seed.

Three request classes, each exercising a different path of the daemon:

* ``fresh``  -- a point never submitted before: simulated on the warm
  pool, then stored in the run cache;
* ``steps``  -- an earlier fresh point at another step count (8, 16, 32
  or 64): the prefix-resume path when the worker that gets it holds the
  point's steady-boundary snapshot, a simulation otherwise;
* ``repeat`` -- a point submitted earlier, answered from the run cache.

Which points are fresh and which are steps variants is a fixed design
rather than a draw.  A few cells (DataSpaces and FlexPath running
LAMMPS at 256 ranks for 40 steps) cost ~100 times the median point, so
drawing fresh points at random moved the stream's total simulation
time by 15-20% between seeds, more than any bound a regression gate
could use.  Every seed therefore submits each (library, workflow,
scale, steps) cell once, with the (machine, fidelity) pair rotating
over the cells, and each (library, workflow, scale) group at all four
variant step counts, each variant extending a fixed fresh point of its
group.  The seed picks the order of the stream and which earlier point
each repeat sends again: the cache, coalescing and queueing behaviour
the daemon sees.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, NamedTuple

LIBRARIES = ("dataspaces", "dimes", "flexpath", "decaf", "mpiio", "sst")
MACHINES = ("titan", "cori")
WORKFLOWS = ("lammps", "laplace")
SCALES = ((32, 16), (64, 32), (128, 64), (256, 128))
STEPS = (10, 20, 40)
FIDELITIES = ("exact", "steady+clustered")
VARIANT_STEPS = (8, 16, 32, 64)

#: requests per stream: with 1000 samples the p99 has 10 beyond it
REQUESTS = 1000


class Request(NamedTuple):
    kind: str  # "fresh" | "steps" | "repeat"
    spec: Dict


def fresh_points() -> List[Dict]:
    """Every (library, workflow, scale, steps) cell once."""
    combos = list(itertools.product(MACHINES, FIDELITIES))
    points = []
    for i, (lib, wf, (nsim, nana), steps) in enumerate(
        itertools.product(LIBRARIES, WORKFLOWS, SCALES, STEPS)
    ):
        # three step counts per scale against four pairs: each pair
        # gets 36 cells, 3 per (library, workflow)
        machine, fidelity = combos[i % len(combos)]
        points.append(dict(
            machine=machine, workflow=wf, method=lib, nsim=nsim, nana=nana,
            steps=steps, fidelity=fidelity,
        ))
    return points


def make_stream(seed: int, requests: int = REQUESTS) -> List[Request]:
    """The seeded request sequence (same seed, same list).

    A shorter stream (``--quick``) keeps the full stream's proportions
    of the three classes over a seeded subset of the fresh points.
    """
    rng = random.Random(seed)
    fresh = fresh_points()
    rng.shuffle(fresh)
    fresh = fresh[:max(1, min(len(fresh), requests * len(fresh) // REQUESTS))]
    groups: Dict[tuple, List[int]] = {}
    for index, point in enumerate(fresh):
        groups.setdefault(
            (point["method"], point["workflow"], point["nsim"]), []
        ).append(index)
    # each variant extends a fixed member of its group (by step count),
    # so the variants' machine and fidelity, hence their cost, do not
    # depend on the seed
    variants = []
    for members in groups.values():
        members.sort(key=lambda index: fresh[index]["steps"])
        variants += [(members[k % len(members)], steps)
                     for k, steps in enumerate(VARIANT_STEPS)]
    rng.shuffle(variants)
    full = len(LIBRARIES) * len(WORKFLOWS) * len(SCALES) * len(VARIANT_STEPS)
    variants = variants[:requests * full // REQUESTS]

    remaining = {
        "fresh": len(fresh),
        "steps": len(variants),
        "repeat": requests - len(fresh) - len(variants),
    }
    kinds = [kind for kind, count in remaining.items() for _ in range(count)]
    rng.shuffle(kinds)
    stream: List[Request] = []
    sent: List[Dict] = []  # distinct specs, in first-send order
    ready: List[Dict] = []  # variants whose fresh point has been sent
    by_base: Dict[int, List[Dict]] = {}
    for base, steps in variants:
        by_base.setdefault(base, []).append(dict(fresh[base], steps=steps))
    for wanted in kinds:
        feasible = {
            "fresh": remaining["fresh"] > 0,
            "steps": remaining["steps"] > 0 and bool(ready),
            "repeat": remaining["repeat"] > 0 and bool(sent),
        }
        kind = wanted if feasible[wanted] else next(
            k for k in ("fresh", "steps", "repeat") if feasible[k]
        )
        remaining[kind] -= 1
        if kind == "fresh":
            base = len(fresh) - remaining["fresh"] - 1
            spec = fresh[base]
            ready.extend(by_base.get(base, ()))
        elif kind == "steps":
            spec = ready.pop(rng.randrange(len(ready)))
        else:
            spec = sent[rng.randrange(len(sent))]
        if kind != "repeat":
            sent.append(spec)
        stream.append(Request(kind, spec))
    return stream
