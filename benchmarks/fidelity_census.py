#!/usr/bin/env python
"""Fidelity census: which tier each Figure 2 cell ran, and why not others.

Sweeps every (machine, scale, method) cell of the Figure 2 grid at the
study's small scales — the compute-only baseline (``method`` None)
included — and records, per cell, the fidelity label the driver
settled on (``steady`` or ``exact``) and its full ``fidelity_log`` —
one verbatim ``"<tier>: <reason>"`` entry per tier that did not
engage, so every exact cell has one ``steady:`` entry.  The summary
counts cells per label and per log entry.  The output JSON is uploaded
as a CI artifact so tier regressions (a certificate that silently stops
firing, or a decline string that drifts) are visible per run without
digging through test output.

The census is *descriptive*, not a gate: the per-cell labels that must
hold are pinned in ``tests/workflows/test_fidelity.py``.

Usage::

    PYTHONPATH=src python benchmarks/fidelity_census.py [-o fidelity_census.json]
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
            for method in [None] + FIG2_METHODS:
                result = run_coupled(
                    machine, workflow, method, nsim=nsim, nana=nana,
                    steps=steps,
                )
                cells.append({
                    "machine": machine,
                    "scale": [nsim, nana],
                    "method": method,
                    "ok": result.ok,
                    "fidelity": result.fidelity,
                    "fidelity_log": list(result.fidelity_log),
                })
    labels = Counter(c["fidelity"] for c in cells)
    entries = Counter(entry for c in cells for entry in c["fidelity_log"])
    return {
        "workflow": workflow,
        "steps": steps,
        "cells": cells,
        "labels": dict(labels.most_common()),
        "log_entries": dict(entries.most_common()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="fidelity_census.json")
    args = parser.parse_args(argv)
    report = census()
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(report['cells'])} cells -> {args.output}")
    for label, count in report["labels"].items():
        print(f"  {count:3d}x {label}")
    for entry, count in report["log_entries"].items():
        print(f"  {count:3d}x {entry}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
