#!/usr/bin/env python
"""Wall-clock benchmark of the study: per-figure seconds + event counts.

Runs the paper's experiments and writes ``BENCH_study.json`` with, per
figure, the wall-clock seconds and the number of discrete events the
simulator processed — the two numbers the DES/fast-forward/caching
optimizations move.  Modes:

* ``--smoke``      — a small subset (CI-friendly, well under a minute);
* default          — every study experiment at the small scales;
* ``--full``       — Figure 2 at the paper's full processor range, the
  acceptance metric of the performance work (seed: ~122 s);
* ``--jobs-sweep`` — the whole campaign through the :mod:`repro.exec`
  scheduler at jobs=1/2/4, recording wall-clock, executed points and
  dedup counts per job level (plus the host's CPU count, without which
  the numbers are meaningless);
* ``--chaos``      — the seed-7 fault-injection campaign (``python -m
  repro chaos``): wall-clock and event count of all 35 chaos points;
* ``--engine``     — the event-core microbenchmark: the shipped lazy
  calendar queue against PR 4's binary heap on synthetic event
  streams (same-tick cascades, short-horizon uniform, wide-horizon),
  events/sec per structure under the ``engine`` key;
* ``--serve``      — the serving-layer latency benchmark: a cold
  ``python -m repro study fig6`` subprocess (interpreter start +
  import + serial simulation) against a resident daemon's first
  (cache-cold) and warm (cache-hot) submissions of the same figure,
  plus the warm pool's resident events/sec, under the ``serve`` key;
* ``--fork-ab``    — the resident-state A/B: the cold chaos campaign
  against a resubmission served from the resident run cache, and a
  steady step-count column cold vs arithmetic prefix resume —
  byte-identity asserted on every arm, under the ``fork`` key;
* ``--gate PATH``  — the CI perf gate: re-measure the ``--full``
  figures, the chaos campaign and the ``--fork-ab`` A/B, exit
  non-zero if a figure regresses more than 25 % in wall time, coupled
  events/sec drops more than 25 % (figures or chaos) against the
  committed baseline at ``PATH``, ``fig2a_full`` falls below the
  absolute :data:`COUPLED_EPS_FLOOR`, or the A/B misses its
  absolute :data:`FORK_GATE_FLOORS`;
* ``--profile FIG`` — run one figure (any ``--full`` or study
  experiment name) under :mod:`cProfile` and write the top 25
  functions by cumulative time to ``profile-<fig>.txt`` next to the
  JSON report — the first stop when a figure's events/sec drops.

Schema 2 adds ``events_per_second`` per figure — the
machine-independent throughput number (wall seconds vary with the
host; events are deterministic).  Schema 3 adds the ``engine``
microbenchmark section and ``events_per_second`` to the ``chaos``
entry (now part of the gate).  Schema 4 adds the ``batch_ab`` section
and gates the figures' events/sec too.  Schema 5 adds the ``serve``
section — the warm-daemon submission latencies the serving layer
exists to deliver.  Schema 6 adds the beyond-the-paper ``fig_sst`` /
``fig_pmem`` figures to the ``--full`` set and the gate, and the
chaos entry now covers the extended (pmem-tier) campaign.  Schema 7
adds the ``fork`` section (checkpoint-fork A/B, gated on absolute
speedup floors) and best-of-``repeats`` timing in the ``engine``
microbenchmark.  Schema 8 records the ``exec.pool.effective_jobs``
clamp per ``jobs_sweep`` level (skipping levels the clamp makes
redundant instead of timing pure worker-spawn overhead) and adds the
contended-path compilers (dimes, mpiio, flexpath) to ``batch_ab``.
Schema 9 drops the ``batch_ab`` section with the batch-compilation
tier it measured.  Schema 10 drops the ``fork`` section's ``cell`` arm
and the ``matrix`` fork-on arm (``forked_seconds``, ``speedup``,
``forks_served``) with the chaos fork pass they measured.

The run cache is cleared before every experiment so timings measure
simulation, not memoization.  Results merge into the output JSON, so
the ``figures`` and ``jobs_sweep`` sections can be refreshed
independently.

Usage::

    PYTHONPATH=src python benchmarks/bench_study.py \\
        [--smoke|--full|--jobs-sweep] [-o PATH]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from heapq import heappop, heappush
from typing import Callable, Dict, List

from repro.core import figures, runcache
from repro.core.study import Study
from repro.sim.engine import Environment


class EventCounter:
    """Counts processed events by wrapping ``Environment.step``."""

    def __init__(self) -> None:
        self.count = 0
        self._orig: Callable = Environment.step

    def __enter__(self) -> "EventCounter":
        orig = self._orig

        def counting_step(env) -> None:
            self.count += 1
            orig(env)

        Environment.step = counting_step
        return self

    def __exit__(self, *exc) -> None:
        Environment.step = self._orig


def experiments(mode: str) -> Dict[str, Callable[[], object]]:
    if mode == "smoke":
        return {
            "fig2a": lambda: figures.fig2_end_to_end("lammps"),
            "fig6": figures.fig6_index_cost,
        }
    if mode == "full":
        return {
            "fig2a_full": lambda: figures.fig2_end_to_end("lammps", full=True),
            "fig2b_full": lambda: figures.fig2_end_to_end("laplace", full=True),
            # The beyond-the-paper families ride the same gate: their
            # sweeps exercise the SST pacing queue and the pmem mirror
            # path, whose per-event cost the study figures never touch.
            "fig_sst": figures.fig_sst_streaming,
            "fig_pmem": figures.fig_pmem_tier,
        }
    study = Study()
    return dict(study.experiments())


def jobs_sweep(levels=(1, 2, 4)) -> Dict[str, Dict[str, object]]:
    """Wall-clock the full campaign at each parallelism level.

    Every entry records the ``exec.pool.effective_jobs`` clamp next to
    the requested level, and levels whose clamped worker count was
    already measured are skipped instead of run: on a single-CPU host
    ``--jobs 2`` used to report *slower* than ``--jobs 1`` purely from
    worker start-up overhead, which read as a scaling regression when
    it was really the same serial run plus spawn cost.
    """
    from repro.exec.pool import effective_jobs

    sweep: Dict[str, Dict[str, object]] = {}
    measured: Dict[int, int] = {}
    for jobs in levels:
        effective = effective_jobs(jobs)
        if effective in measured:
            sweep[str(jobs)] = {
                "effective_jobs": effective,
                "skipped": f"clamps to {effective} workers, "
                           f"already measured at jobs={measured[effective]}",
            }
            print(f"jobs={jobs}   skipped (clamps to jobs={measured[effective]})")
            continue
        runcache.clear()
        start = time.perf_counter()
        study = Study(jobs=jobs)
        study.run()
        elapsed = time.perf_counter() - start
        entry: Dict[str, object] = {
            "seconds": round(elapsed, 3),
            "effective_jobs": effective,
        }
        if study.run_report is not None:
            entry["executed"] = study.run_report.executed
            entry["deduped_refs"] = study.run_report.deduped_refs
            entry["rounds"] = len(study.run_report.rounds)
        sweep[str(jobs)] = entry
        measured[effective] = jobs
        print(f"jobs={jobs}   {elapsed:8.2f} s  ({effective} workers)")
    return sweep


def profile_figure(fig: str, output: str) -> int:
    """Run one figure under cProfile; top-25 cumulative to a text file.

    The dump lands at ``profile-<fig>.txt`` next to the JSON report
    path, so ``-o`` steers both.  Cache cleared first: a memoized run
    would profile the replay machinery instead of the simulator.
    """
    import cProfile
    import pstats

    runners: Dict[str, Callable] = {}
    for mode in ("study", "full"):
        runners.update(experiments(mode))
    if fig not in runners:
        print(f"unknown figure {fig!r}; choose from: "
              f"{', '.join(sorted(runners))}", file=sys.stderr)
        return 2
    runcache.clear()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    runners[fig]()
    profiler.disable()
    elapsed = time.perf_counter() - start
    path = os.path.join(os.path.dirname(os.path.abspath(output)) or ".",
                        f"profile-{fig}.txt")
    with open(path, "w") as fh:
        pstats.Stats(profiler, stream=fh).sort_stats(
            "cumulative").print_stats(25)
    print(f"{fig:12s} {elapsed:8.2f} s under cProfile -> {path}")
    return 0


def chaos_bench(seed: int = 7) -> Dict[str, object]:
    """Wall-clock the chaos campaign (serial, cold cache)."""
    from repro.chaos import run_campaign

    runcache.clear()
    with EventCounter() as counter:
        start = time.perf_counter()
        run_campaign(seed=seed)
        elapsed = time.perf_counter() - start
    print(f"chaos(seed={seed}) {elapsed:8.2f} s  {counter.count:>12,} events")
    return {
        "seed": seed,
        "seconds": round(elapsed, 3),
        "events": counter.count,
        "events_per_second": round(counter.count / elapsed, 1)
        if elapsed > 0 else 0.0,
    }


# ---------------------------------------------------- engine microbench

class _HeapQueue:
    """PR 4's event queue: one binary heap of ``(tick, eid, event)``.

    The eid tie-break tuple is the structure's real cost — every push
    allocates a triple and every sift compares tuples lexicographically.
    """

    __slots__ = ("_heap", "_eid", "now_tick")

    def __init__(self) -> None:
        self._heap: list = []
        self._eid = 0
        self.now_tick = 0

    def push(self, delay: int, ev) -> None:
        heappush(self._heap, (self.now_tick + delay, self._eid, ev))
        self._eid += 1

    def pop(self):
        tick, _eid, ev = heappop(self._heap)
        self.now_tick = tick
        return ev

    def empty(self) -> bool:
        return not self._heap


class _CalendarQueue:
    """The shipped lazy calendar queue (``Environment._insert``/``step``
    with the event bodies stripped, so the comparison times the queue
    structure alone).  A singleton bucket stores its event *bare* — a
    list is only built on collision and recycled through a free pool
    once drained — so the dominant one-event-per-tick case (sparse
    uniform/wide streams) costs one dict store and no allocation, and
    per-bucket FIFO order *is* the eid tie-break."""

    __slots__ = ("_buckets", "_ticks", "_current", "_pos", "_bfree",
                 "now_tick")

    def __init__(self) -> None:
        self._buckets: dict = {}
        self._ticks: list = []
        self._current = None
        self._pos = 0
        self._bfree: list = []
        self.now_tick = 0

    def push(self, delay: int, ev) -> None:
        if delay == 0 and self._current is not None:
            self._current.append(ev)
            return
        tick = self.now_tick + delay
        buckets = self._buckets
        got = buckets.get(tick)
        if got is None:
            buckets[tick] = ev
            heappush(self._ticks, tick)
        elif type(got) is list:
            got.append(ev)
        else:
            bfree = self._bfree
            if bfree:
                bucket = bfree.pop()
                bucket.append(got)
                bucket.append(ev)
            else:
                bucket = [got, ev]
            buckets[tick] = bucket

    def pop(self):
        pos = self._pos
        cur = self._current
        if cur is not None and pos < len(cur):
            self._pos = pos + 1
            return cur[pos]
        if cur is not None:
            del cur[:]
            self._bfree.append(cur)
            self._current = None
        tick = heappop(self._ticks)
        got = self._buckets.pop(tick)
        self.now_tick = tick
        if type(got) is list:
            self._current = got
            self._pos = 1
            return got[0]
        self._pos = 0
        return got

    def empty(self) -> bool:
        return (self._current is None or self._pos >= len(self._current)) \
            and not self._ticks


#: the engine's observed delay mix: over half of all events land on the
#: current tick (succeed() cascades, process kick-offs, resource grants)
_ENGINE_STREAMS = {
    "cascade": lambda rng: 0 if rng.random() < 0.55 else rng.randrange(1, 1 << 20),
    "uniform": lambda rng: rng.randrange(1, 1 << 20),
    "wide": lambda rng: rng.randrange(1, 1 << 44),
}


def _stream_delays(profile: str, n_ops: int, seed: int) -> List[int]:
    rng = random.Random(seed)
    draw = _ENGINE_STREAMS[profile]
    return [draw(rng) for _ in range(n_ops)]


def _drive(queue, warm: List[int], delays: List[int]) -> float:
    """Pop/push ``delays`` through ``queue``; returns elapsed seconds."""
    for i, d in enumerate(warm):
        queue.push(d, i)
    pop, push = queue.pop, queue.push
    start = time.perf_counter()
    for i, d in enumerate(delays):
        pop()
        push(d, i)
    return time.perf_counter() - start


def engine_bench(n_ops: int = 200_000, seed: int = 1234,
                 repeats: int = 3) -> Dict[str, object]:
    """Heap vs calendar queue on synthetic event streams.

    Each stream holds the queue at a constant population (1000 pending
    events) and measures pure pop+push throughput.  Both structures see
    the same absolute ticks, and their pop sequences are asserted
    identical first — the calendar queue's per-bucket FIFO *is* the
    heap's ``(tick, eid)`` order.  Each timing is the best of
    ``repeats`` passes: the first pass runs on cold caches and can be
    ~10% slower than steady state, which single-shot timing would
    misattribute to the structure under test.
    """
    results: Dict[str, object] = {"ops": n_ops, "repeats": repeats}
    streams: Dict[str, object] = {}
    for profile in _ENGINE_STREAMS:
        warm = _stream_delays(profile, 1000, seed ^ 0xA5A5)
        delays = _stream_delays(profile, n_ops, seed)

        check_n = min(n_ops, 20_000)
        heap_q, cal_q = _HeapQueue(), _CalendarQueue()
        for i, d in enumerate(warm):
            heap_q.push(d, i)
            cal_q.push(d, i)
        for i, d in enumerate(delays[:check_n]):
            assert heap_q.pop() == cal_q.pop(), profile
            heap_q.push(d, 1000 + i)
            cal_q.push(d, 1000 + i)

        heap_s = min(_drive(_HeapQueue(), warm, delays)
                     for _ in range(repeats))
        cal_s = min(_drive(_CalendarQueue(), warm, delays)
                    for _ in range(repeats))
        entry = {
            "heap_events_per_second": round(n_ops / heap_s, 1),
            "calendar_events_per_second": round(n_ops / cal_s, 1),
            "speedup": round(heap_s / cal_s, 3),
        }
        streams[profile] = entry
        print(f"engine/{profile:8s} heap {n_ops / heap_s:>12,.0f} ev/s   "
              f"calendar {n_ops / cal_s:>12,.0f} ev/s   "
              f"({heap_s / cal_s:.2f}x)")
    results["streams"] = streams
    return results


# ---------------------------------------------------- serving latency

def serve_bench(figure: str = "fig6") -> Dict[str, object]:
    """Cold CLI start vs resident-daemon submissions of one figure.

    Three numbers frame what keeping the service resident buys:

    * ``cold_study_seconds`` — a fresh ``python -m repro study`` run
      of the figure in a subprocess: interpreter start, imports,
      serial simulation (what a batch user pays every invocation);
    * ``first_submission_seconds`` — submit+wait against a freshly
      started daemon (cache cold): the points still simulate, but the
      interpreter/import cost is already sunk in the resident pool;
    * ``warm_submission_seconds`` — the same submission again: every
      point a cache hit, only planning and replay remain.
    """
    import subprocess
    import tempfile
    import threading

    from repro.serve.client import ServeClient
    from repro.serve.daemon import ServeDaemon

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "study", figure],
        check=True, capture_output=True, env=env,
    )
    cold = time.perf_counter() - start

    tmp = tempfile.mkdtemp(prefix="repro-serve-bench-")
    sock = os.path.join(tmp, "bench.sock")
    runcache.clear()
    daemon = ServeDaemon(socket_path=sock, jobs=os.cpu_count() or 1)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    daemon.ready.wait(60)
    try:
        with ServeClient(socket_path=sock).connect(retry_seconds=10) as c:
            timings = []
            for _ in range(2):
                start = time.perf_counter()
                final = c.wait(c.submit_figure(figure)["job"])
                timings.append(time.perf_counter() - start)
                assert final["state"] == "done", final
            stats = c.stats()
    finally:
        daemon.request_shutdown()
        thread.join(60)
    first, warm = timings
    print(f"serve/{figure}: cold study {cold:6.2f} s   first submission "
          f"{first:6.2f} s   warm submission {warm:6.2f} s   "
          f"({cold / warm:.1f}x over cold)")
    return {
        "figure": figure,
        "cold_study_seconds": round(cold, 3),
        "first_submission_seconds": round(first, 3),
        "warm_submission_seconds": round(warm, 3),
        "speedup_warm_vs_cold": round(cold / warm, 1) if warm > 0 else 0.0,
        "pool_events_total": stats["pool"]["events_total"],
        "pool_events_per_second_resident":
            stats["pool"]["events_per_second_resident"],
        "cache": {k: stats["cache"][k]
                  for k in ("hits", "misses", "stores", "seeds")},
    }


# ---------------------------------------------------- resident-state A/B

def _results_identical(a, b) -> bool:
    """Field-by-field RunResult equality, NaN-aware, fork-metadata blind.

    ``forked`` is provenance, not physics.  TimeSeries lacks ``__eq__``
    and aborted runs carry NaN finish times, so both need explicit
    handling.
    """
    import dataclasses
    import math

    from repro.sim.monitor import TimeSeries

    for f in dataclasses.fields(a):
        if f.name == "forked":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, TimeSeries) or isinstance(y, TimeSeries):
            if x is None or y is None:
                return False
            if list(x.times) != list(y.times) or \
                    list(x.values) != list(y.values):
                return False
            continue
        if isinstance(x, float) and isinstance(y, float):
            if x != y and not (math.isnan(x) and math.isnan(y)):
                return False
            continue
        if x != y:
            return False
    return True


#: the steady column: one boundary snapshot serves every steps count
#: (cori, where the steady certificate engages for every library)
_FORK_COLUMN_STEPS = (8, 16, 32, 64, 128)
_FORK_COLUMN_CONFIG = dict(
    machine="cori", method="dataspaces", nsim=32, nana=16,
    fidelity="steady",
)


def _export_bytes(export_dir: str) -> Dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(export_dir)):
        with open(os.path.join(export_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def fork_ab_bench(seed: int = 7, repeats: int = 3) -> Dict[str, object]:
    """Cold vs resident-state wall clock, byte-identity asserted.

    Two comparisons:

    * ``matrix``  — the whole seed-``seed`` chaos campaign cold against
      a *resubmission* served from the resident run cache (what a
      ``repro.serve`` what-if resubmission pays); the exported tables
      must be byte-identical;
    * ``column``  — a steady step-count column: cold simulates the
      warm-up prefix once per steps count, the resident run snapshots
      the steady boundary on the first run and serves every other
      count by arithmetic resume (microseconds).

    Wall times are best-of-``repeats``; identity is asserted on every
    repeat — resident state must never change bytes, only wall-clock.
    """
    import shutil
    import tempfile

    from repro.chaos.campaign import run_campaign
    from repro.workflows import run_coupled

    results: Dict[str, object] = {}

    # -- matrix: the cold campaign vs a resident resubmission ----------
    cold_best = resident = math.inf
    for _ in range(repeats):
        runcache.clear()
        tmp = tempfile.mkdtemp(prefix="repro-fork-ab-")
        start = time.perf_counter()
        run_campaign(seed=seed, export_dir=tmp)
        cold_best = min(cold_best, time.perf_counter() - start)
        exported = _export_bytes(tmp)
        start = time.perf_counter()
        run_campaign(seed=seed, export_dir=tmp)
        resident = min(resident, time.perf_counter() - start)
        assert _export_bytes(tmp) == exported, \
            "resident resubmission exports diverged"
        shutil.rmtree(tmp)
    results["matrix"] = {
        "seed": seed,
        "cold_seconds": round(cold_best, 3),
        "resident_seconds": round(resident, 3),
        "resident_speedup": round(cold_best / resident, 2),
        "byte_identical": True,
    }
    print(f"fork-ab/matrix  cold {cold_best:6.2f} s   resident "
          f"resubmission {resident:6.2f} s   ({cold_best / resident:.2f}x)")

    # -- column: steps counts off one steady-boundary snapshot ---------
    cold_runs: Dict[int, object] = {}
    cold_best = fork_best = math.inf
    for _ in range(repeats):
        cold_total = 0.0
        for steps in _FORK_COLUMN_STEPS:
            runcache.clear()
            start = time.perf_counter()
            cold_runs[steps] = run_coupled(steps=steps, **_FORK_COLUMN_CONFIG)
            cold_total += time.perf_counter() - start
        cold_best = min(cold_best, cold_total)

        runcache.clear()
        start = time.perf_counter()
        fork_runs = {
            steps: run_coupled(steps=steps, **_FORK_COLUMN_CONFIG)
            for steps in _FORK_COLUMN_STEPS
        }
        fork_total = time.perf_counter() - start
        fork_best = min(fork_best, fork_total)
        for steps in _FORK_COLUMN_STEPS:
            assert _results_identical(fork_runs[steps], cold_runs[steps]), \
                f"prefix-restored steps={steps} diverged from cold"
        restored = [s for s in _FORK_COLUMN_STEPS
                    if (fork_runs[s].forked or "").startswith("prefix:")]
        assert len(restored) == len(_FORK_COLUMN_STEPS) - 1, \
            f"expected all but the first column entry restored: {restored}"
    results["column"] = {
        "config": {k: v for k, v in _FORK_COLUMN_CONFIG.items()},
        "steps": list(_FORK_COLUMN_STEPS),
        "cold_seconds": round(cold_best, 3),
        "forked_seconds": round(fork_best, 3),
        "speedup": round(cold_best / fork_best, 2),
        "identical": True,
    }
    print(f"fork-ab/column  cold {cold_best:6.2f} s   forked "
          f"{fork_best:6.2f} s   ({cold_best / fork_best:.2f}x, "
          f"{len(_FORK_COLUMN_STEPS)} steps counts)")
    return results


#: CI fails when a gated figure's wall time exceeds baseline by this
GATE_TOLERANCE = 0.25
GATED_FIGURES = ("fig2a_full", "fig2b_full", "fig_sst", "fig_pmem")

#: absolute coupled-throughput floor for fig2a_full (ev/s).  The
#: figure's contended N-to-1 cells (DataSpaces fan-in, FlexPath fan-out
#: notification graphs, shared metadata and MDS queues) run the exact
#: per-rank event machinery or its steady fast-forward, so the floor
#: gates the per-event cost of that machinery (188-222k ev/s observed
#: across runs when it was set).
COUPLED_EPS_FLOOR = 185_000


def perf_gate(
    baseline_path: str,
    measured: Dict[str, Dict],
    measured_chaos: Dict[str, object],
) -> int:
    """Compare measured perf against the committed baseline.

    Figures gate on wall time (must not grow past the tolerance) and
    on coupled events/sec (must not drop past it, and ``fig2a_full``
    must additionally clear the absolute :data:`COUPLED_EPS_FLOOR`);
    the chaos campaign gates on events/sec.  Returns the number of
    regressions beyond :data:`GATE_TOLERANCE`.  A missing baseline
    entry is a hard failure too — the gate must never pass vacuously.
    """
    with open(baseline_path) as fh:
        payload = json.load(fh)
    baseline = payload.get("figures", {})
    failures = 0
    for ident in GATED_FIGURES:
        if ident not in baseline:
            print(f"GATE FAIL {ident}: no baseline in {baseline_path}")
            failures += 1
            continue
        base = baseline[ident]["seconds"]
        now = measured[ident]["seconds"]
        ratio = now / base if base > 0 else float("inf")
        verdict = "ok" if ratio <= 1.0 + GATE_TOLERANCE else "GATE FAIL"
        print(f"{verdict:9s} {ident}: {now:.2f}s vs baseline {base:.2f}s "
              f"({ratio:.0%} of baseline, tolerance "
              f"{1.0 + GATE_TOLERANCE:.0%})")
        if ratio > 1.0 + GATE_TOLERANCE:
            failures += 1
        base_eps = baseline[ident].get("events_per_second")
        if not base_eps:
            print(f"GATE FAIL {ident}: no events_per_second baseline in "
                  f"{baseline_path}")
            failures += 1
            continue
        now_eps = measured[ident]["events_per_second"]
        eps_ratio = now_eps / base_eps
        verdict = "ok" if eps_ratio >= 1.0 - GATE_TOLERANCE else "GATE FAIL"
        print(f"{verdict:9s} {ident}: {now_eps:,.0f} ev/s vs baseline "
              f"{base_eps:,.0f} ev/s ({eps_ratio:.0%} of baseline, floor "
              f"{1.0 - GATE_TOLERANCE:.0%})")
        if eps_ratio < 1.0 - GATE_TOLERANCE:
            failures += 1
    if COUPLED_EPS_FLOOR is not None:
        now_eps = measured["fig2a_full"]["events_per_second"]
        verdict = "ok" if now_eps >= COUPLED_EPS_FLOOR else "GATE FAIL"
        print(f"{verdict:9s} fig2a_full: {now_eps:,.0f} ev/s vs absolute "
              f"floor {COUPLED_EPS_FLOOR:,.0f} ev/s")
        if now_eps < COUPLED_EPS_FLOOR:
            failures += 1
    base_eps = payload.get("chaos", {}).get("events_per_second")
    if not base_eps:
        print(f"GATE FAIL chaos: no events_per_second baseline in "
              f"{baseline_path}")
        failures += 1
    else:
        now_eps = measured_chaos["events_per_second"]
        ratio = now_eps / base_eps
        verdict = "ok" if ratio >= 1.0 - GATE_TOLERANCE else "GATE FAIL"
        print(f"{verdict:9s} chaos: {now_eps:,.0f} ev/s vs baseline "
              f"{base_eps:,.0f} ev/s ({ratio:.0%} of baseline, floor "
              f"{1.0 - GATE_TOLERANCE:.0%})")
        if ratio < 1.0 - GATE_TOLERANCE:
            failures += 1
    return failures


#: absolute resident-state gate floors (not baseline-relative: the
#: A/B's cold arm is re-measured in the same process, so the ratio is
#: already host-normalized)
FORK_GATE_FLOORS = {
    ("matrix", "resident_speedup"): 3.0,
    ("column", "speedup"): 3.0,
}


def fork_gate(fork: Dict[str, Dict]) -> int:
    """Gate the ``--fork-ab`` A/B on its absolute speedup floors.

    Byte-identity is asserted inside :func:`fork_ab_bench` itself (the
    bench dies rather than reporting divergent bytes), so the gate
    checks the recorded flags and the speedup floors.
    """
    failures = 0
    for section, flag in (("matrix", "byte_identical"),
                          ("column", "identical")):
        ok = fork[section].get(flag, False)
        print(f"{'ok' if ok else 'GATE FAIL':9s} fork/{section}: "
              f"{flag}={ok}")
        if not ok:
            failures += 1
    for (section, key), floor in FORK_GATE_FLOORS.items():
        got = fork[section][key]
        verdict = "ok" if got >= floor else "GATE FAIL"
        print(f"{verdict:9s} fork/{section}: {key} {got:.2f}x vs floor "
              f"{floor:.1f}x")
        if got < floor:
            failures += 1
    return failures


def _merge_existing(path: str, report: Dict) -> Dict:
    """Keep the other mode's sections when refreshing one of them."""
    try:
        with open(path) as fh:
            existing = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return report
    for key in ("figures", "jobs_sweep", "chaos", "engine", "serve", "fork"):
        if key in existing and key not in report:
            report[key] = existing[key]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--smoke", action="store_true",
                       help="small CI subset")
    group.add_argument("--full", action="store_true",
                       help="Figure 2 at the paper's full scales")
    group.add_argument("--jobs-sweep", action="store_true",
                       help="the whole campaign at jobs=1/2/4")
    group.add_argument("--chaos", action="store_true",
                       help="the seed-7 fault-injection campaign")
    group.add_argument("--engine", action="store_true",
                       help="the event-core microbenchmark: calendar "
                            "queue vs binary heap on synthetic streams")
    group.add_argument("--serve", action="store_true",
                       help="serving-layer latency: cold CLI study vs "
                            "first and warm submissions to a resident "
                            "daemon")
    group.add_argument("--fork-ab", action="store_true",
                       help="resident-state A/B: the chaos campaign cold "
                            "vs resubmitted, and a steady step-count "
                            "column cold vs prefix-resumed, byte-identity "
                            "asserted")
    group.add_argument("--profile", metavar="FIG",
                       help="run one figure under cProfile and write the "
                            "top 25 cumulative functions to "
                            "profile-<fig>.txt (no JSON report)")
    group.add_argument("--gate", metavar="BASELINE",
                       help="CI perf gate: rerun the --full figures, the "
                            "chaos campaign and the --fork-ab A/B; fail on a "
                            ">25%% wall-time regression (figures), a "
                            ">25%% events/sec drop (chaos) vs the "
                            "committed BASELINE json, or an A/B speedup "
                            "below its absolute floor")
    parser.add_argument("-o", "--output", default="BENCH_study.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    if args.profile:
        return profile_figure(args.profile, args.output)

    report: Dict[str, object] = {"schema": 10, "cpus": os.cpu_count()}
    if args.jobs_sweep:
        report["mode"] = "jobs-sweep"
        report["jobs_sweep"] = jobs_sweep()
        total = sum(e.get("seconds", 0.0)
                    for e in report["jobs_sweep"].values())
    elif args.chaos:
        report["mode"] = "chaos"
        report["chaos"] = chaos_bench()
        total = report["chaos"]["seconds"]
    elif args.engine:
        report["mode"] = "engine"
        start = time.perf_counter()
        report["engine"] = engine_bench()
        total = time.perf_counter() - start
    elif args.serve:
        report["mode"] = "serve"
        start = time.perf_counter()
        report["serve"] = serve_bench()
        total = time.perf_counter() - start
    elif args.fork_ab:
        report["mode"] = "fork-ab"
        start = time.perf_counter()
        report["fork"] = fork_ab_bench()
        total = time.perf_counter() - start
    else:
        if args.gate:
            mode = "full"
        else:
            mode = "smoke" if args.smoke else ("full" if args.full else "study")
        report["mode"] = mode
        report["figures"] = {}
        total = 0.0
        for ident, runner in experiments(mode).items():
            runcache.clear()
            with EventCounter() as counter:
                start = time.perf_counter()
                runner()
                elapsed = time.perf_counter() - start
            total += elapsed
            report["figures"][ident] = {
                "seconds": round(elapsed, 3),
                "events": counter.count,
                "events_per_second": round(counter.count / elapsed, 1)
                if elapsed > 0 else 0.0,
            }
            print(f"{ident:12s} {elapsed:8.2f} s  {counter.count:>12,} events")
        if args.gate:
            report["chaos"] = chaos_bench()
            total += report["chaos"]["seconds"]
            report["fork"] = fork_ab_bench()
    report["total_seconds"] = round(total, 3)
    report = _merge_existing(args.output, report)

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\ntotal {total:.2f} s -> {args.output}")
    if args.gate:
        failures = perf_gate(args.gate, report["figures"], report["chaos"])
        failures += fork_gate(report["fork"])
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
