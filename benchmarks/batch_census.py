#!/usr/bin/env python
"""Batch-engagement census: which Figure 2 cells compile, which decline.

Sweeps every (machine, scale, method) cell of the Figure 2 grid at the
study's small scales and records, per cell, the fidelity the driver
settled on and its full ``fidelity_log`` — one verbatim
``"<tier>: <reason>"`` entry per requested tier that did not engage,
so a batch decline reads from the cell's ``batch:`` entry.  The output
JSON is
uploaded as a CI artifact so engagement regressions (a certificate
that silently stops firing, or a decline string that drifts) are
visible per run without digging through test output.

The census is *descriptive*, not a gate: the per-cell expectations
that must hold are pinned in ``tests/workflows/test_batch_actors.py``.

Usage::

    PYTHONPATH=src python benchmarks/batch_census.py [-o batch_census.json]
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
from typing import Dict

from repro.core.figures import FIG2_METHODS, SMALL_SCALES
from repro.workflows import run_coupled


def census(workflow: str = "lammps", steps: int = 5) -> Dict[str, object]:
    cells = []
    for machine in ("titan", "cori"):
        for nsim, nana in SMALL_SCALES:
            for method in FIG2_METHODS:
                result = run_coupled(
                    machine, workflow, method, nsim=nsim, nana=nana,
                    steps=steps, fidelity="steady+clustered",
                )
                cells.append({
                    "machine": machine,
                    "scale": [nsim, nana],
                    "method": method,
                    "ok": result.ok,
                    "fidelity": result.fidelity,
                    "engaged": result.fidelity == "clustered+batch",
                    "fidelity_log": list(result.fidelity_log),
                })
    engaged = sum(1 for c in cells if c["engaged"])
    reasons = Counter(
        entry for c in cells for entry in c["fidelity_log"]
        if entry.startswith("batch: ")
    )
    return {
        "workflow": workflow,
        "steps": steps,
        "cells": cells,
        "engaged": engaged,
        "declined": len(cells) - engaged,
        "decline_reasons": dict(reasons.most_common()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="batch_census.json")
    args = parser.parse_args(argv)
    report = census()
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{report['engaged']} engaged / {report['declined']} declined "
          f"-> {args.output}")
    for reason, count in report["decline_reasons"].items():
        print(f"  {count:3d}x {reason}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
