"""The module -> layer table, code size per layer, and the profile fold.

A layer is a group of ``repro`` modules.  The same table names the rows
of the traced run's time attribution and of the ``src_lines`` code-size
count, so a change that deletes a module shows up in both.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: every layer, in report order; ``external`` is what no layer claims
LAYERS = (
    "sim", "hpc", "transport", "mpi",
    "staging.dataspaces", "staging.dimes", "staging.flexpath",
    "staging.decaf", "staging.mpiio", "staging.sst", "staging.batch",
    "staging.common",
    "adios", "kernels", "workflows",
    "core.runcache", "core.forkpoint", "core.study",
    "chaos", "exec", "serve",
    "external",
)

#: layer -> module patterns.  ``pkg.*`` matches the package and every
#: module below it; anything else matches one module exactly.  An exact
#: match wins over a package match, which is how ``core.runcache`` and
#: ``core.forkpoint`` are cut out of ``core.study``'s ``repro.core.*``.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim.*",),
    "hpc": ("repro.hpc.*",),
    "transport": ("repro.transport.*",),
    "mpi": ("repro.mpi.*",),
    "staging.dataspaces": (
        "repro.staging.dataspaces", "repro.staging.dart", "repro.staging.sfc",
    ),
    "staging.dimes": ("repro.staging.dimes",),
    "staging.flexpath": (
        "repro.staging.flexpath", "repro.staging.evpath", "repro.staging.ffs",
    ),
    "staging.decaf": ("repro.staging.decaf",),
    "staging.mpiio": ("repro.staging.mpiio",),
    "staging.sst": ("repro.staging.sst",),
    "staging.batch": ("repro.staging.batch",),
    "staging.common": (
        "repro.staging", "repro.staging.base", "repro.staging.store",
        "repro.staging.locks", "repro.staging.ndarray",
        "repro.staging.decomposition", "repro.staging.factory",
        "repro.staging.calibration",
    ),
    "adios": ("repro.adios.*",),
    "kernels": ("repro.kernels.*",),
    "workflows": ("repro.workflows.*",),
    "core.runcache": ("repro.core.runcache",),
    "core.forkpoint": ("repro.core.forkpoint",),
    # the package root and the CLI drive the study, so they count as it
    "core.study": ("repro", "repro.__main__", "repro.core.*"),
    "chaos": ("repro.chaos.*",),
    "exec": ("repro.exec.*",),
    "serve": ("repro.serve.*",),
}


def rules_for(module: str) -> Tuple[List[str], List[str]]:
    """(layers matching ``module`` exactly, layers matching by package)."""
    exact, package = [], []
    for layer, patterns in LAYER_MODULES.items():
        for pattern in patterns:
            if pattern.endswith(".*"):
                base = pattern[:-2]
                if module == base or module.startswith(base + "."):
                    package.append(layer)
            elif module == pattern:
                exact.append(layer)
    return exact, package


def layer_of_module(module: str) -> Optional[str]:
    """The layer owning ``module``, or None when no rule (or more than
    one rule of the deciding kind) claims it."""
    exact, package = rules_for(module)
    deciding = exact or package
    return deciding[0] if len(deciding) == 1 else None


#: the ``src`` directory of the repository this file sits in
SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def module_of_path(path: str, root: str) -> Optional[str]:
    """``<root>/repro/core/study.py`` -> ``repro.core.study``."""
    rel = os.path.relpath(os.path.abspath(path), root)
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[0] != "repro":
        return None
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def iter_modules() -> Iterator[Tuple[str, str]]:
    """(module, path) for every source file of the ``repro`` package."""
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC_ROOT, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                yield module_of_path(path, SRC_ROOT), path


def src_lines() -> Dict[str, int]:
    """Non-blank, non-comment source lines: ``total`` and per layer."""
    counts = {layer: 0 for layer in LAYERS if layer != "external"}
    total = 0
    for module, path in iter_modules():
        with open(path, encoding="utf-8") as fh:
            n = sum(
                1 for line in fh
                if line.strip() and not line.lstrip().startswith("#")
            )
        total += n
        layer = layer_of_module(module)
        if layer is not None:
            counts[layer] += n
    counts["total"] = total
    return counts


def path_classifier() -> Callable[[str], Optional[str]]:
    """filename -> layer for profile entries (None: not ``repro`` code)."""
    memo: Dict[str, Optional[str]] = {}

    def classify(filename: str) -> Optional[str]:
        if filename not in memo:
            module = module_of_path(filename, SRC_ROOT)
            memo[filename] = layer_of_module(module) if module else None
        return memo[filename]

    return classify


def fold_profile(stats: Dict, layer_of: Callable[[str], Optional[str]]) -> Dict[str, float]:
    """Fold per-function self time into layers.

    ``stats`` is :attr:`pstats.Stats.stats`: ``func -> (cc, nc, tt, ct,
    callers)`` with ``func = (filename, line, name)`` and ``callers``
    mapping each calling ``func`` to its own ``(cc, nc, tt, ct)`` edge.
    A ``repro`` function's self time goes to its layer.  Self time of
    anything else (builtins, the stdlib, numpy, this benchmark's own
    wrappers) is split over its callers by the time each edge carried,
    and climbs caller edges until it reaches ``repro`` code; whatever
    never does is ``external``.
    """
    memo: Dict[tuple, Dict[str, float]] = {}

    def upward(func, seen) -> Dict[str, float]:
        """Fractions of ``func``'s time owned by each layer above it."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in seen or func not in stats:
            return {}
        callers = stats[func][4]
        weight = sum(edge[3] for edge in callers.values())
        shares: Dict[str, float] = {}
        if weight > 0:
            for caller, edge in callers.items():
                for lay, frac in upward(caller, seen | {func}).items():
                    shares[lay] = shares.get(lay, 0.0) + frac * edge[3] / weight
        memo[func] = shares
        return shares

    totals = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            totals[layer] += tt
            continue
        weight = sum(edge[2] for edge in callers.values())
        if weight <= 0:
            totals["external"] += tt
            continue
        for caller, edge in callers.items():
            part = tt * edge[2] / weight
            shares = upward(caller, frozenset([func]))
            for lay, frac in shares.items():
                totals[lay] += part * frac
            totals["external"] += part * (1.0 - sum(shares.values()))
    return totals
