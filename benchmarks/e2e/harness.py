"""Runs one workload: timed repeats, the traced run, and output checks.

Every timed repeat of a batch workload is a fresh interpreter
(:mod:`benchmarks.e2e.child`) with a cold run cache, and every ``whatif``
repeat a fresh daemon, because a user pays that start-up on each CLI
run.  End-to-end metrics come from untraced repeats only; the traced run
is separate and yields the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from . import stats, stream
from .child import QUICK_STUDY
from .layers import LAYERS, src_lines
from .tracing import TIER_NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("study", "fig2_scale", "chaos", "whatif")

#: the seed behind the committed ``results/chaos_*`` goldens
GOLDEN_CHAOS_SEED = 7
CHAOS_TABLES = ("chaos_matrix", "chaos_blast", "chaos_matrix_ext")
CHAOS_CAMPAIGNS = 32
QUICK_CHAOS_CAMPAIGNS = 4
#: non-golden campaigns rerun with the fork pass off and byte-compared
CHAOS_RECHECKS = 3
QUICK_REQUESTS = 200
#: set-up samples per run; the median is reported
SETUP_SAMPLES = {"whatif": 3}
DEFAULT_SETUP_SAMPLES = 5
#: timed runs per run at least: one stream's p99 rests on its 10
#: slowest requests, so a single stream is the noisiest number measured
MIN_RUNS = {"whatif": 2}


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a crashed child)."""


@dataclass
class Context:
    root: str
    workdir: str
    env: Dict[str, str]
    seed: int
    quick: bool


def prepare(seed: int, quick: bool, root: str = ROOT) -> Context:
    """Check the checkout has what the benchmark runs, and make the
    scratch directory every child writes into."""
    for needed in ("src/repro/__init__.py", "results/fig2a.csv"):
        if not os.path.exists(os.path.join(root, needed)):
            raise BenchError(f"{needed} not found under {root}: run from a "
                             "full checkout of the repository")
    # the whatif daemon's socket path is relative to the root, and the
    # in-process checks import repro from it
    os.chdir(root)
    if os.path.join(root, "src") not in sys.path:
        sys.path.insert(0, os.path.join(root, "src"))
    workdir = os.path.join(root, ".bench_e2e", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    env["TMPDIR"] = workdir
    return Context(root=root, workdir=workdir, env=env, seed=seed, quick=quick)


def cleanup(ctx: Context) -> None:
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(ctx.workdir))
    except OSError:
        pass  # another run still uses it


def spawn(ctx: Context, cfg: Dict[str, Any]) -> Tuple[float, Dict[str, Any], float]:
    """Run :mod:`benchmarks.e2e.child`: (set-up seconds, its JSON, peak
    RSS in MB of the child and every process it waited for)."""
    from .whatif import reap

    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(cfg)],
        cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        rss = reap(proc, timeout=60.0)
    if proc.returncode != 0 or ready.strip() != b"ready":
        raise BenchError(f"{cfg['workload']} child exited {proc.returncode}")
    lines = rest.decode().strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else {}), rss


class Budget:
    """Exactly ``repeats`` runs, or as many as bring the measured time
    closest to ``seconds``, and at least ``least``."""

    def __init__(self, seconds: float, repeats: Optional[int], least: int = 1) -> None:
        self.seconds = seconds
        self.repeats = repeats
        self.least = least
        self.start = time.monotonic()

    def more(self, done: int) -> bool:
        if self.repeats is not None:
            return done < self.repeats
        if done < self.least:
            return True
        elapsed = time.monotonic() - self.start
        # one more run of the average length ends nearer the target
        return elapsed + 0.5 * elapsed / done <= self.seconds


# -- references -------------------------------------------------------

def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def reference_digests(ctx: Context) -> Dict[str, str]:
    """fig2_scale table digests recorded from the parent commit."""
    with open(os.path.join(ctx.root, "benchmarks", "e2e", "reference.json")) as fh:
        return json.load(fh)["fig2_scale"]


def compare_digests(label: str, got: Dict[str, str], want: Dict[str, str]) -> List[str]:
    out = []
    for name in sorted(set(got) | set(want)):
        if got.get(name) != want.get(name):
            state = "missing" if name not in got else (
                "unexpected" if name not in want else "differs")
            out.append(f"{label}: {name} {state}")
    return out


def chaos_seeds(seed: int, count: int) -> List[int]:
    """The golden seed, then ``count - 1`` distinct seeds drawn from ``seed``."""
    rng = random.Random(seed)
    seeds = [GOLDEN_CHAOS_SEED]
    while len(seeds) < count:
        drawn = rng.randrange(1, 1 << 31)
        if drawn not in seeds:
            seeds.append(drawn)
    return seeds


# -- batch workloads (study, fig2_scale, chaos) -------------------------

def batch_config(ctx: Context, workload: str, trace: bool = False) -> Dict[str, Any]:
    cfg: Dict[str, Any] = dict(workload=workload, quick=ctx.quick, trace=trace)
    if workload == "fig2_scale":
        # the traced run is serial so that its simulation is visible
        cfg["jobs"] = 1 if trace else (os.cpu_count() or 1)
    if workload == "chaos":
        count = QUICK_CHAOS_CAMPAIGNS if ctx.quick else CHAOS_CAMPAIGNS
        cfg.update(seeds=chaos_seeds(ctx.seed, count), fork=True)
    return cfg


def golden(ctx: Context, names: List[str], prefix: str = "") -> Dict[str, str]:
    return {
        prefix + name: file_digest(os.path.join(ctx.root, "results", name))
        for name in names
    }


def batch_checks(ctx: Context, workload: str, run: Dict[str, Any]) -> List[str]:
    """Mismatches of one run's tables against their references."""
    got = run["digests"]
    if workload == "fig2_scale":
        want = reference_digests(ctx)
        if ctx.quick:
            want = {k: v for k, v in want.items() if k.startswith("fig2a.")}
        return compare_digests(workload, got, want)
    if workload == "study":
        idents = QUICK_STUDY if ctx.quick else sorted(
            name[:-4] for name in os.listdir(os.path.join(ctx.root, "results"))
            if name.endswith(".csv") and not name.startswith("chaos_")
        )
        names = [f"{ident}.{ext}" for ident in idents for ext in ("csv", "json")]
        return compare_digests(workload, got, golden(ctx, names))
    prefix = f"{GOLDEN_CHAOS_SEED}/"
    names = [f"{table}.{ext}" for table in CHAOS_TABLES for ext in ("csv", "json")]
    return compare_digests(
        "chaos seed 7",
        {k: v for k, v in got.items() if k.startswith(prefix)},
        golden(ctx, names, prefix),
    )


def chaos_recheck(ctx: Context, run: Dict[str, Any]) -> List[str]:
    """Rerun a few non-golden campaigns with the fork pass off; the
    forked run's tables must match them byte for byte."""
    seeds = [s for s in batch_config(ctx, "chaos")["seeds"] if s != GOLDEN_CHAOS_SEED]
    picked = random.Random(ctx.seed).sample(seeds, min(CHAOS_RECHECKS, len(seeds)))
    cfg = dict(batch_config(ctx, "chaos"), seeds=picked, fork=False)
    _, cold, _ = spawn(ctx, cfg)
    forked = {k: v for k, v in run["digests"].items()
              if int(k.split("/", 1)[0]) in picked}
    return compare_digests("chaos fork=False recheck", forked, cold["digests"])


def request_metrics(wall: float, latencies: List[float], attempted: int) -> Dict[str, float]:
    return dict(
        wall_s=wall,
        req_per_s=attempted / wall,
        req_p50_ms=1000.0 * statistics.median(latencies),
        req_tail_ms=1000.0 * stats.tail(latencies)[1],
    )


def timed_batch(ctx: Context, workload: str, budget: Budget) -> Dict[str, Any]:
    cfg = batch_config(ctx, workload)
    runs, mismatches = [], []
    while budget.more(len(runs)):
        setup, out, rss = spawn(ctx, cfg)
        mismatches += batch_checks(ctx, workload, out)
        if runs and out["digests"] != runs[0]["digests"]:
            mismatches.append(f"{workload}: repeat {len(runs)} changed its tables")
        out.update(setup_s=setup, peak_rss_mb=rss,
                   **request_metrics(out["wall_s"], out["latencies"], out["attempted"]))
        runs.append(out)
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES.get(workload, DEFAULT_SETUP_SAMPLES):
        setups.append(spawn(ctx, dict(cfg, setup_only=True))[0])
    if workload == "chaos":
        mismatches += chaos_recheck(ctx, runs[0])
    return dict(
        runs=runs, setups=setups, mismatches=mismatches,
        attempted=sum(r["attempted"] for r in runs),
        failed=sum(len(r["failures"]) for r in runs),
        failures=[f for r in runs for f in r["failures"]],
        tail=stats.tail(runs[0]["latencies"]),
    )


def traced_batch(ctx: Context, workload: str) -> Dict[str, Any]:
    cfg = batch_config(ctx, workload)
    _, plain, _ = spawn(ctx, cfg)
    _, traced, _ = spawn(ctx, batch_config(ctx, workload, trace=True))
    mismatches = batch_checks(ctx, workload, plain)
    mismatches += compare_digests(f"{workload} traced vs untraced",
                                  traced["digests"], plain["digests"])
    if workload == "chaos":
        mismatches += chaos_recheck(ctx, plain)
    failures = plain["failures"] + traced["failures"]
    return dict(
        layers=layer_metrics(
            traced, untraced_wall=plain["wall_s"], exec_info=plain.get("exec"),
        ),
        mismatches=mismatches, attempted=plain["attempted"] + traced["attempted"],
        failed=len(failures), failures=failures,
    )


# -- whatif -----------------------------------------------------------

def whatif_stream(ctx: Context) -> List[stream.Request]:
    return stream.make_stream(
        ctx.seed, QUICK_REQUESTS if ctx.quick else stream.REQUESTS)


def serve_once(ctx: Context, requests: List[stream.Request], ident: int) -> Dict[str, Any]:
    """One fresh daemon, one pass of the stream, the daemon's stats."""
    from .whatif import Daemon, run_stream

    daemon = Daemon(ctx.root, ctx.workdir, ctx.env, ident)
    try:
        setup = daemon.start()
        sent = run_stream(daemon, requests)
        served_stats = daemon.stats()
    finally:
        rss = daemon.stop()
    records = sent["records"]
    latencies = [r[0] for r in records if r[0] is not None]
    failures = [f"request {i}: {r[1]}" for i, r in enumerate(records) if r[1] != "done"]
    return dict(
        setup_s=setup, peak_rss_mb=rss, records=records, stats=served_stats,
        latencies=latencies, failures=failures, attempted=len(records),
        **request_metrics(sent["wall_s"], latencies, len(records)),
    )


def whatif_checks(ctx: Context, requests: List[stream.Request],
                  runs: List[Dict[str, Any]]) -> Tuple[List[str], Dict]:
    """Mismatches, and the digest of each distinct point as served."""
    from .whatif import cold_check, served_digests

    mismatches: List[str] = []
    served = None
    for run in runs:
        digests, bad = served_digests(requests, run["records"])
        mismatches += bad
        if served is None:
            served = digests
        elif digests != served:
            mismatches.append("whatif: a repeat of the stream served other results")
    mismatches += cold_check(served, ctx.seed)
    return mismatches, served


def timed_whatif(ctx: Context, budget: Budget) -> Dict[str, Any]:
    from .whatif import Daemon

    requests = whatif_stream(ctx)
    runs = []
    while budget.more(len(runs)):
        runs.append(serve_once(ctx, requests, len(runs)))
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES["whatif"]:
        daemon = Daemon(ctx.root, ctx.workdir, ctx.env, 100 + len(setups))
        try:
            setups.append(daemon.start())
        finally:
            daemon.stop()
    mismatches, _ = whatif_checks(ctx, requests, runs)
    return dict(
        runs=runs, setups=setups, mismatches=mismatches,
        attempted=sum(r["attempted"] for r in runs),
        failed=sum(len(r["failures"]) for r in runs),
        failures=[f for r in runs for f in r["failures"]],
        tail=stats.tail(runs[0]["latencies"]),
    )


def traced_whatif(ctx: Context) -> Dict[str, Any]:
    """One daemon stream for the serve numbers, then the first half of
    the same stream replayed in-process, untraced and under the
    profiler (the whole stream traced would outlast a run's time
    limit on a slow host)."""
    from repro.core import forkpoint, runcache

    from .tracing import Tracer, profiled
    from .whatif import replay

    requests = whatif_stream(ctx)
    run = serve_once(ctx, requests, 0)
    mismatches, served = whatif_checks(ctx, requests, [run])
    half = requests[:len(requests) // 2]
    plain_wall, _ = replay(half)
    forkpoint.STATS.clear()
    start = time.perf_counter()
    with Tracer() as tracer:
        (_, digests), layer_s, events = profiled(lambda: replay(half))
        cache = runcache.CACHE.stats()
    traced_wall = time.perf_counter() - start
    if digests != {key: served.get(key) for key in digests}:
        mismatches.append("whatif: in-process replay differs from served results")
    traced = dict(
        wall_s=traced_wall, counters=dict(tracer.counters(), events=events),
        layer_s=layer_s, forkpoint=forkpoint.STATS.stats(),
        cache={k: cache[k] for k in ("hits", "misses", "stores", "prefix_hits")},
    )
    pool = run["stats"]["pool"]
    return dict(
        layers=layer_metrics(
            traced, untraced_wall=plain_wall,
            serve_info=serve_layer(requests, run),
            # the daemon's own cost per event, over the whole stream
            ns_per_event=1e9 * _ratio(pool["busy_seconds"], pool["events_total"]),
        ),
        mismatches=mismatches, attempted=run["attempted"],
        failed=len(run["failures"]), failures=run["failures"],
    )


def serve_layer(requests, run) -> Dict[str, float]:
    """Client-side and ``stats``-verb numbers of one daemon stream."""
    wait = {"repeat": 0.0, "steps": 0.0, "fresh": 0.0}
    for request, (latency, _state, _payload) in zip(requests, run["records"]):
        wait[request.kind] += latency or 0.0
    total = sum(wait.values()) or 1.0
    pool = run["stats"]["pool"]
    cache = run["stats"]["cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "serve.wait_share.hit": wait["repeat"] / total,
        "serve.wait_share.steps": wait["steps"] / total,
        "serve.wait_share.fresh": wait["fresh"] / total,
        "serve.pool.busy_share": pool["busy_seconds"] / (
            pool["effective_jobs"] * run["wall_s"]),
        "serve.pool.events": pool["events_total"],
        "serve.pool.retries": pool["retries"],
        "serve.pool.quarantined": pool["quarantined"],
        "serve.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.jobs_coalesced": run["stats"]["jobs"]["coalesced"],
    }


# -- per-layer metrics --------------------------------------------------

#: what :func:`serve_layer` reports (0 on the batch workloads)
SERVE_METRICS = (
    "serve.wait_share.hit", "serve.wait_share.steps", "serve.wait_share.fresh",
    "serve.pool.busy_share", "serve.pool.events", "serve.pool.retries",
    "serve.pool.quarantined", "serve.cache.hit_ratio", "serve.jobs_coalesced",
)

#: name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.self_share": "share" for layer in LAYERS},
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "staging.batch.engaged": "count",
    "staging.batch.declined": "count",
    "staging.batch.engage_ratio": "ratio",
    "workflows.runs": "count",
    "workflows.simulated": "count",
    **{f"workflows.tier.{t}": "count" for t in TIER_NAMES},
    **{f"workflows.tier_share.{t}": "share" for t in TIER_NAMES},
    "core.runcache.hits": "count",
    "core.runcache.misses": "count",
    "core.runcache.stores": "count",
    "core.runcache.prefix_hits": "count",
    "core.runcache.hit_ratio": "ratio",
    "core.runcache.get_us": "us",
    "core.runcache.put_us": "us",
    "core.forkpoint.snapshots_taken": "count",
    "core.forkpoint.forks_served": "count",
    "core.forkpoint.fork_declines": "count",
    "core.forkpoint.fork_ratio": "ratio",
    "exec.tasks": "count",
    "exec.retries": "count",
    "exec.quarantined": "count",
    "exec.pool_share": "share",
    "exec.replay_share": "share",
    "exec.parallel_efficiency": "ratio",
    "serve.wait_share.hit": "share",
    "serve.wait_share.steps": "share",
    "serve.wait_share.fresh": "share",
    "serve.pool.busy_share": "share",
    # timing-dependent counts (which worker holds a prefix snapshot,
    # which submissions overlap) get their own units: only ``count``
    # metrics are held to exact repetition
    "serve.pool.events": "events",
    "serve.pool.retries": "count",
    "serve.pool.quarantined": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.jobs_coalesced": "jobs",
    "trace.overhead": "ratio",
    "src_lines.total": "count",
    **{f"src_lines.{layer}": "count" for layer in LAYERS if layer != "external"},
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    traced: Dict[str, Any],
    untraced_wall: float,
    exec_info: Optional[Dict[str, Any]] = None,
    serve_info: Optional[Dict[str, float]] = None,
    ns_per_event: Optional[float] = None,
) -> Dict[str, float]:
    """Every per-layer metric from one traced run and its untraced twin.

    Metrics of a layer the workload leaves idle read 0; those that
    would be seconds are shares of a wall time instead, so that no
    reported time is a constant.
    """
    layer_s = traced["layer_s"]
    profiled_s = sum(layer_s.values())
    traced_wall = traced["wall_s"]
    c = traced["counters"]
    out: Dict[str, float] = {
        f"{layer}.self_share": _ratio(layer_s.get(layer, 0.0), profiled_s)
        for layer in LAYERS
    }
    out["sim.events"] = c["events"]
    out["sim.ns_per_event"] = ns_per_event if ns_per_event is not None \
        else 1e9 * _ratio(untraced_wall, c["events"])
    out["staging.batch.engaged"] = c["batch_engaged"]
    out["staging.batch.declined"] = c["batch_declined"]
    out["staging.batch.engage_ratio"] = _ratio(
        c["batch_engaged"], c["batch_engaged"] + c["batch_declined"])
    out["workflows.runs"] = c["runs"]
    out["workflows.simulated"] = sum(
        n for tier, n in c["tier"].items() if tier != "prefix")
    for tier in TIER_NAMES:
        out[f"workflows.tier.{tier}"] = c["tier"][tier]
        out[f"workflows.tier_share.{tier}"] = _ratio(c["tier_s"][tier], traced_wall)
    cache = traced["cache"]
    for key in ("hits", "misses", "stores", "prefix_hits"):
        out[f"core.runcache.{key}"] = cache[key]
    out["core.runcache.hit_ratio"] = _ratio(
        cache["hits"], cache["hits"] + cache["misses"])
    out["core.runcache.get_us"] = 1e6 * _ratio(c["get_s"], c["get_calls"])
    out["core.runcache.put_us"] = 1e6 * _ratio(c["put_s"], c["put_calls"])
    fork = traced["forkpoint"]
    declines = sum(fork["fork_declines"].values())
    out["core.forkpoint.snapshots_taken"] = fork["snapshots_taken"]
    out["core.forkpoint.forks_served"] = fork["forks_served"]
    out["core.forkpoint.fork_declines"] = declines
    out["core.forkpoint.fork_ratio"] = _ratio(
        fork["forks_served"], fork["forks_served"] + declines)
    ex = exec_info or {}
    out["exec.tasks"] = ex.get("tasks", 0)
    out["exec.retries"] = ex.get("retries", 0)
    out["exec.quarantined"] = ex.get("quarantined", 0)
    out["exec.pool_share"] = _ratio(ex.get("pool_s", 0.0), untraced_wall)
    out["exec.replay_share"] = _ratio(ex.get("replay_s", 0.0), untraced_wall)
    out["exec.parallel_efficiency"] = _ratio(
        ex.get("task_s_sum", 0.0), ex.get("effective_jobs", 0) * ex.get("pool_s", 0.0))
    for name in SERVE_METRICS:
        out[name] = (serve_info or {}).get(name, 0.0)
    out["trace.overhead"] = _ratio(traced_wall, untraced_wall)
    for layer, lines in src_lines().items():
        out[f"src_lines.{layer}"] = lines
    return {name: out[name] for name in PER_LAYER_UNITS}


# -- one workload ---------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "req_per_s": "req/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
}


def run_workload(
    ctx: Context, workload: str, trace: str, budget: Budget,
) -> Dict[str, Any]:
    """``trace``: "0" timed repeats, "1" the traced run, "both"."""
    out: Dict[str, Any] = dict(mismatches=[], attempted=0, failed=0, failures=[])
    if trace in ("0", "both"):
        result = timed_whatif(ctx, budget) if workload == "whatif" else \
            timed_batch(ctx, workload, budget)
        values = {name: [r[name] for r in result["runs"]] for name in E2E_UNITS}
        values["setup_s"] = result["setups"]
        out["metrics"] = {
            name: dict(unit=E2E_UNITS[name], **stats.summarize(values[name]))
            for name in E2E_UNITS
        }
        percentile, _, n = result["tail"]
        out["tail_percentile"] = dict(percentile=percentile, n=n)
        _merge(out, result)
    if trace in ("1", "both"):
        result = traced_whatif(ctx) if workload == "whatif" else traced_batch(ctx, workload)
        out["layers"] = result["layers"]
        _merge(out, result)
    out["outputs_mismatched"] = len(out["mismatches"])
    out["fail_frac"] = _ratio(out["failed"], out["attempted"])
    out["correct"] = not out["mismatches"] and not out["failed"]
    return out


def _merge(out: Dict[str, Any], result: Dict[str, Any]) -> None:
    for key in ("mismatches", "failures"):
        out[key] += result[key]
    out["attempted"] += result["attempted"]
    out["failed"] += result["failed"]
