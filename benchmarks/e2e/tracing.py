"""Counters and timers wrapped around ``repro``'s public functions.

The traced run never edits ``repro``: it swaps thin wrappers in for
``run_coupled`` and ``RunCache.get``/``put``, profiles the workload with
:mod:`cProfile`, and folds the profile into layers with
:func:`benchmarks.e2e.layers.fold_profile`.  The profile's exact call
count of ``Environment.step`` is the event count, so the hottest
function of the simulator carries no second wrapper frame.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import sys
import time
from typing import Any, Callable, Dict

from .layers import fold_profile, path_classifier

#: RunResult.fidelity -> tier name (``prefix`` is read from ``forked``)
TIERS = {
    "exact": "exact",
    "clustered": "clustered",
    "clustered+batch": "clustered_batch",
    "steady": "steady",
    "steady+clustered": "steady_clustered",
}
TIER_NAMES = (*TIERS.values(), "prefix")


class Tracer:
    """Install with ``with Tracer() as tracer:``; read :meth:`counters`."""

    def __init__(self) -> None:
        self.runs = 0
        self.tier = dict.fromkeys(TIER_NAMES, 0)
        self.tier_s = dict.fromkeys(TIER_NAMES, 0.0)
        self.batch_engaged = 0
        self.batch_declined = 0
        #: RunCache method -> [calls, inclusive seconds]
        self.timers = {"get": [0, 0.0], "put": [0, 0.0]}
        self._undo: list = []

    # -- installation --------------------------------------------------

    def __enter__(self) -> "Tracer":
        from repro.core import runcache
        from repro.workflows import driver

        for method, timer in self.timers.items():
            self._patch(runcache.RunCache, method, self._wrap_timed(
                getattr(runcache.RunCache, method), timer))
        original = driver.run_coupled
        wrapped = self._wrap_run_coupled(original, runcache.CACHE)
        # modules that imported the name hold their own reference
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and \
                    getattr(module, "run_coupled", None) is original:
                self._patch(module, "run_coupled", wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    @staticmethod
    def _wrap_timed(fn: Callable, timer: list) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timer[0] += 1
                timer[1] += clock() - start
        return timed

    def _wrap_run_coupled(self, run_coupled: Callable, cache) -> Callable:
        clock = time.perf_counter

        @functools.wraps(run_coupled)
        def traced_run_coupled(*args, **kwargs):
            hits, stores = cache.hits, cache.stores
            start = clock()
            result = run_coupled(*args, **kwargs)
            seconds = clock() - start
            self.runs += 1
            # a cache hit neither simulates nor stores; a prefix resume
            # stores the restored result, so it counts as a tier below
            if cache.hits > hits and cache.stores == stores:
                return result
            tier = tier_of(result)
            self.tier[tier] += 1
            self.tier_s[tier] += seconds
            if result.fidelity == "clustered+batch":
                self.batch_engaged += 1
            elif result.batch_fallback is not None:
                self.batch_declined += 1
            return result
        return traced_run_coupled

    # -- readout -------------------------------------------------------

    def counters(self) -> Dict[str, Any]:
        return dict(
            runs=self.runs,
            tier=dict(self.tier),
            tier_s=dict(self.tier_s),
            batch_engaged=self.batch_engaged,
            batch_declined=self.batch_declined,
            get_calls=self.timers["get"][0],
            get_s=self.timers["get"][1],
            put_calls=self.timers["put"][0],
            put_s=self.timers["put"][1],
        )


def tier_of(result) -> str:
    if (result.forked or "").startswith("prefix:"):
        return "prefix"
    return TIERS.get(result.fidelity, "exact")


def profiled(fn: Callable[[], Any]):
    """Run ``fn`` under cProfile.

    Returns its value, layer -> seconds, and the number of
    ``Environment.step`` calls (simulated events).
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        value = fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    engine = os.path.join("repro", "sim", "engine.py")
    events = sum(
        entry[1] for (filename, _line, name), entry in stats.items()
        if name == "step" and filename.endswith(engine)
    )
    return value, fold_profile(stats, path_classifier()), events
