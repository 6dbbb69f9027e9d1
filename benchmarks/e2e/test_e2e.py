"""Fast checks of the benchmark's own logic (no simulation runs).

Run with ``python -m pytest benchmarks/e2e`` from the repository root.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.e2e import stream
from benchmarks.e2e.compare import compare, verdict
from benchmarks.e2e.harness import (
    E2E_UNITS,
    PER_LAYER_UNITS,
    ROOT,
    WORKLOADS,
    layer_metrics,
)
from benchmarks.e2e.layers import (
    LAYERS,
    SRC_ROOT,
    fold_profile,
    iter_modules,
    layer_of_module,
    path_classifier,
    rules_for,
)
from benchmarks.e2e.stats import tail
from benchmarks.e2e.tracing import TIER_NAMES


# -- the percentile rule ------------------------------------------------

def test_tail_is_p99_with_ten_beyond_at_1000_samples():
    values = list(range(1000, 0, -1))
    percentile, value, n = tail(values)
    assert (percentile, n) == (99.0, 1000)
    assert sum(v > value for v in values) == 10


def test_tail_keeps_ten_beyond_for_small_counts():
    percentile, value, n = tail([float(v) for v in range(22)])
    assert n == 22 and value == 11.0
    assert percentile == pytest.approx(100 * 12 / 22)


def test_tail_falls_back_to_the_median_below_twenty_samples():
    percentile, value, n = tail([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (percentile, value, n) == (60.0, 3.0, 5)


# -- the whatif stream -----------------------------------------------------

def test_stream_is_a_function_of_its_seed():
    assert stream.make_stream(1) == stream.make_stream(1)
    assert stream.make_stream(1) != stream.make_stream(2)


def test_stream_sends_every_base_before_its_variants_and_repeats():
    sent = set()
    kinds = {"fresh": 0, "steps": 0, "repeat": 0}
    for request in stream.make_stream(1):
        key = tuple(sorted(request.spec.items()))
        base = tuple(sorted(dict(request.spec, steps=None).items()))
        kinds[request.kind] += 1
        if request.kind == "repeat":
            assert key in sent
        else:
            assert key not in sent
        if request.kind == "steps":
            assert request.spec["steps"] in stream.VARIANT_STEPS
            assert any(tuple(sorted(dict(dict(s), steps=None).items())) == base
                       for s in sent)
        sent.add(key)
    assert kinds == {"fresh": 144, "steps": 192, "repeat": 664}


def test_fresh_points_cover_every_cell_once():
    cells = {(p["method"], p["workflow"], p["nsim"], p["steps"])
             for p in stream.fresh_points()}
    assert len(cells) == len(stream.fresh_points()) == 144
    pairs = {}
    for p in stream.fresh_points():
        pairs[(p["machine"], p["fidelity"])] = pairs.get((p["machine"], p["fidelity"]), 0) + 1
    assert sorted(pairs.values()) == [36, 36, 36, 36]


def test_short_stream_keeps_the_proportions():
    kinds = [r.kind for r in stream.make_stream(1, 200)]
    assert len(kinds) == 200
    assert kinds.count("fresh") == 28 and kinds.count("steps") == 38


# -- layers ------------------------------------------------------------------

def test_every_repro_module_maps_to_exactly_one_layer():
    modules = [module for module, _path in iter_modules()]
    assert "repro.core.study" in modules
    for module in modules:
        exact, package = rules_for(module)
        assert len(exact) == 1 or (not exact and len(package) == 1), \
            (module, exact, package)
        assert layer_of_module(module) in LAYERS


def test_profile_fold_charges_builtin_self_time_to_the_calling_layer():
    repro = os.path.join(SRC_ROOT, "repro")
    sim = (os.path.join(repro, "sim", "engine.py"), 1, "step")
    hpc = (os.path.join(repro, "hpc", "network.py"), 1, "transfer")
    builtin = ("~", 0, "<built-in method builtins.len>")
    wrapper = (os.path.join(ROOT, "benchmarks", "e2e", "tracing.py"), 1, "timed")
    stdlib = ("/usr/lib/python3/heapq.py", 1, "heappush")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        sim: (1, 1, 1.0, 3.0, {}),
        builtin: (4, 4, 2.0, 2.0, {sim: (4, 4, 2.0, 2.0)}),
        hpc: (1, 1, 0.5, 1.25, {}),
        wrapper: (1, 1, 0.25, 0.75, {hpc: (1, 1, 0.25, 0.75)}),
        stdlib: (1, 1, 0.5, 0.5, {wrapper: (1, 1, 0.5, 0.5)}),
        orphan: (1, 1, 0.125, 0.125, {}),
    }
    folded = fold_profile(stats, path_classifier())
    assert folded["sim"] == pytest.approx(3.0)
    assert folded["hpc"] == pytest.approx(1.25)
    assert folded["external"] == pytest.approx(0.125)
    assert sum(folded.values()) == pytest.approx(4.375)


# -- compare ---------------------------------------------------------------

def test_verdicts_follow_bound_and_spread():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(base, [v * 1.02 for v in base], 0.1, "lower")[0] == "unchanged"
    assert verdict(base, [v * 1.3 for v in base], 0.1, "lower")[0] == "worse"
    assert verdict(base, [v * 0.7 for v in base], 0.1, "lower")[0] == "improved"
    assert verdict(base, [v * 1.3 for v in base], 0.1, "higher")[0] == "improved"
    noisy = [5.0, 10.0, 15.0, 7.0, 13.0]
    assert verdict(base, noisy, 0.1, "lower")[0] == "unresolved"
    # wide spread, but every new run beats every base run
    assert verdict(noisy, [1.0, 2.0, 3.0, 4.0, 4.5], 0.1, "lower")[0] == "improved"


def _report(wall, correct=True, failed=0, events=100):
    return {"workloads": {"study": {
        "correct": correct, "failed": failed,
        "metrics": {"wall_s": {"values": wall}},
        "layers": {"sim.events": events},
    }}}


def test_compare_counts_regressions():
    bench = {
        "end_to_end": [{"name": "wall_s", "bound": 0.1, "better": "lower"}],
        "per_layer": [{"name": "sim.events", "unit": "count"}],
    }
    base = _report([10.0, 10.0, 10.1])
    rows, regressions = compare(base, _report([10.0, 10.1, 10.0]), bench)
    assert regressions == 0 and "wall_s unchanged" in rows[0]
    rows, regressions = compare(base, _report([13.0, 13.1, 13.0], events=90), bench)
    assert regressions == 1 and "sim.events changed (100 -> 90)" in rows[0]
    _, regressions = compare(base, _report([10.0, 10.0, 10.1], correct=False), bench)
    assert regressions == 1


# -- per-layer metrics -------------------------------------------------------

def test_layer_metrics_report_every_declared_metric():
    layer_s = dict.fromkeys(LAYERS, 0.0)
    layer_s.update(sim=3.0, serve=1.0)
    traced = dict(
        wall_s=5.0, layer_s=layer_s,
        counters=dict(
            events=1000, runs=4, batch_engaged=1, batch_declined=1,
            tier=dict.fromkeys(TIER_NAMES, 1), tier_s=dict.fromkeys(TIER_NAMES, 0.5),
            get_calls=2, get_s=1e-5, put_calls=2, put_s=2e-5,
        ),
        cache=dict(hits=1, misses=3, stores=3, prefix_hits=0),
        forkpoint=dict(snapshots_taken=1, forks_served=3, fork_declines={"x": 1}),
    )
    out = layer_metrics(traced, untraced_wall=2.0)
    assert list(out) == list(PER_LAYER_UNITS)
    assert out["serve.self_share"] == pytest.approx(0.25)
    assert out["sim.ns_per_event"] == pytest.approx(2e6)
    assert out["trace.overhead"] == pytest.approx(2.5)
    assert out["core.forkpoint.fork_ratio"] == pytest.approx(0.75)
    assert out["serve.pool.busy_share"] == 0.0


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_matches_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
