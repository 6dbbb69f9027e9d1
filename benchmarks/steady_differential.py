#!/usr/bin/env python
"""Steady vs exact on the whatif request stream: the deep differential.

Every run is offered the steady fast-forward, which must never change a
result.  This replays every distinct point of the ``whatif`` stream
(:func:`benchmarks.e2e.stream.make_stream`) in first-send order through
one in-process run cache, as the daemon would answer it — steady where
its certificate holds, prefix resumes where an earlier point published
its orbit — and again as a traced run, which simulates every step.  A
point fails when any physics field of the two results differs (floats
by identity, time series sample by sample), or when its decision record
breaks the rule that an exact run carries exactly one ``steady:`` entry
and an engaged one none.  Exits 1 on any failure; the summary counts
the exact points per ``steady:`` reason.

Usage, from the repository root::

    PYTHONPATH=src python -m benchmarks.steady_differential [--seed 1]
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from collections import Counter
from typing import List

from repro.core import runcache
from repro.sim.monitor import TimeSeries
from repro.workflows import run_coupled
from repro.workflows.trace import ActivityTrace

from .e2e.stream import make_stream

#: RunResult fields that record how a result was computed, not what
HOW = ("fidelity", "fidelity_log", "forked")


def differences(a, b) -> List[str]:
    """The physics fields on which two results differ."""
    names = []
    for f in dataclasses.fields(a):
        if f.name in HOW:
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, TimeSeries) or isinstance(y, TimeSeries):
            same = (x is None) == (y is None) and (
                x is None or (list(x.times) == list(y.times)
                              and list(x.values) == list(y.values))
            )
        elif isinstance(x, float) and isinstance(y, float):
            same = x == y or (math.isnan(x) and math.isnan(y))
        else:
            same = x == y
        if not same:
            names.append(f.name)
    return names


def log_is_consistent(result) -> bool:
    steady = [e for e in result.fidelity_log if e.startswith("steady: ")]
    return len(steady) == (0 if result.fidelity == "steady" else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    points, seen = [], set()
    for request in make_stream(args.seed):
        key = tuple(sorted(request.spec.items()))
        if key not in seen:
            seen.add(key)
            points.append(request.spec)

    runcache.clear()
    how, reasons = Counter(), Counter()
    failures = 0
    for spec in points:
        chosen = run_coupled(**spec)
        exact = run_coupled(trace=ActivityTrace(), **spec)
        how["prefix resume" if chosen.forked else chosen.fidelity] += 1
        reasons.update(e for e in chosen.fidelity_log
                       if e.startswith("steady: "))
        diff = differences(chosen, exact)
        if diff or not log_is_consistent(chosen):
            failures += 1
            print(f"MISMATCH {spec}: fields {diff}, "
                  f"{chosen.fidelity} {chosen.fidelity_log}")
    summary = ", ".join(f"{n} {label}" for label, n in sorted(how.items()))
    print(f"seed {args.seed}: {len(points)} distinct points ({summary}); "
          f"{failures} mismatched the traced exact run")
    for reason, n in reasons.most_common():
        print(f"  {n:4d}x {reason}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
