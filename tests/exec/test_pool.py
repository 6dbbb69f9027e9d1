"""Worker pool: parallel correctness, crash retry, quarantine, cache,
recycling, and the per-round batch record."""

import os
import sys
import threading
import time

import pytest

from repro.core import runcache
from repro.core.study import Study
from repro.exec import execute_parallel
from repro.exec.plan import PlannedTask
from repro.exec.pool import WorkerPool, effective_jobs
from repro.workflows import run_coupled

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(autouse=True)
def clean_cache():
    runcache.clear()
    yield
    runcache.clear()


@pytest.fixture
def make_pool():
    """Build pools that are shut down when the test ends."""
    pools = []

    def build(**kwargs):
        pools.append(WorkerPool(**kwargs))
        return pools[-1]

    yield build
    for pool in pools:
        pool.shutdown()


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def baseline_spec(nsim, **extra):
    """A compute-only baseline: the cheapest real simulation."""
    spec = dict(machine="titan", workflow="lammps", method=None,
                nsim=nsim, nana=max(1, nsim // 2), steps=1)
    spec.update(extra)
    return spec


def task(key, spec):
    return PlannedTask(key=key, spec=spec, experiments=["t"], refs=1)


class TestEffectiveJobs:
    def test_clamps_to_cpu_count(self):
        cores = usable_cpus()
        assert effective_jobs(10 * cores + 1) == cores

    def test_small_requests_pass_through(self):
        assert effective_jobs(1) == 1

    def test_never_below_one(self):
        assert effective_jobs(0) == 1
        assert effective_jobs(-3) == 1

    def test_pool_records_effective(self):
        pool = WorkerPool(jobs=10 * usable_cpus())
        assert pool.effective == usable_cpus()

    def test_clamps_to_the_affinity_mask(self, monkeypatch):
        # pinned to 2 of 64 cpus (taskset, SLURM/cgroup): 2 workers
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5},
                            raising=False)
        assert effective_jobs(8) == 2
        assert effective_jobs(1) == 1

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert effective_jobs(8) == 3


class TestPoolExecution:
    def test_parallel_results_match_serial(self, make_pool):
        specs = {f"k{n}": baseline_spec(n) for n in (2, 3, 4)}
        serial = {}
        for key, spec in specs.items():
            serial[key] = run_coupled(**spec).end_to_end
        runcache.clear()

        pool = make_pool(jobs=2)
        outcomes = pool.run([task(k, s) for k, s in specs.items()])
        assert all(o.status == "ok" for o in outcomes.values())
        for key, outcome in outcomes.items():
            assert outcome.result.end_to_end == serial[key]
            assert outcome.result.library is None
            assert outcome.attempts == 1

    def test_empty_task_list(self):
        pool = WorkerPool(jobs=2)
        assert pool.run([]) == {}
        assert pool.stats()["workers_alive"] == 0  # nothing was spawned

    def test_crash_is_retried_then_succeeds(self, make_pool):
        events = []
        pool = make_pool(jobs=2, backoff_base=0.05)
        outcomes = pool.run([
            task("crashy", baseline_spec(2, __crash__=1)),
            task("fine", baseline_spec(3)),
        ], progress=events.append)
        crashy = outcomes["crashy"]
        assert crashy.status == "ok"
        assert crashy.attempts == 2
        assert crashy.retried
        assert crashy.result.end_to_end > 0
        assert outcomes["fine"].status == "ok"
        assert any(e["status"] == "retrying" for e in events)

    def test_poison_task_is_quarantined_not_fatal(self, make_pool):
        pool = make_pool(jobs=2, max_attempts=2, backoff_base=0.05)
        outcomes = pool.run([
            task("poison", baseline_spec(2, __crash__=True)),
            task("fine", baseline_spec(3)),
        ])
        poison = outcomes["poison"]
        assert poison.status == "quarantined"
        assert poison.attempts == 2
        assert poison.result is None
        assert "died" in poison.error
        # the campaign survived: the healthy task completed
        assert outcomes["fine"].status == "ok"

    def test_worker_exception_is_retried_then_quarantined(self, make_pool):
        bad = dict(machine="titan", workflow="lammps", method=None,
                   nsim=2, nana=1, steps=1, no_such_kwarg=True)
        pool = make_pool(jobs=1, max_attempts=2, backoff_base=0.05)
        outcomes = pool.run([task("bad", bad)])
        assert outcomes["bad"].status == "quarantined"
        assert outcomes["bad"].attempts == 2
        assert "TypeError" in outcomes["bad"].error

    def test_workers_share_the_disk_cache(self, tmp_path, make_pool):
        spec = baseline_spec(2)
        first = make_pool(jobs=1, cache_dir=str(tmp_path)).run(
            [task("k", spec)]
        )["k"]
        assert not first.cache_hit
        assert list(tmp_path.glob("*.pkl"))
        second = make_pool(jobs=1, cache_dir=str(tmp_path)).run(
            [task("k", spec)]
        )["k"]
        assert second.cache_hit
        assert second.result.end_to_end == first.result.end_to_end

    def test_recycling_replaces_tired_workers(self, make_pool):
        specs = {f"k{n}": baseline_spec(n) for n in (2, 3, 4, 5)}
        serial = {k: run_coupled(**s).end_to_end for k, s in specs.items()}
        runcache.clear()

        pool = make_pool(jobs=2, recycle_after=1)
        outcomes = pool.run([task(k, s) for k, s in specs.items()])
        assert {k: o.result.end_to_end for k, o in outcomes.items()} == serial
        # a worker retires at its next idle moment, which may come just
        # after the last result was delivered
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            stats = pool.stats()
            if stats["workers_recycled"] >= 1 \
                    and stats["workers_alive"] == stats["effective_jobs"]:
                break
            time.sleep(0.05)
        assert stats["workers_recycled"] >= 1
        assert stats["workers_alive"] == stats["effective_jobs"]

    def test_concurrent_submitters_resolve_each_submission_once(self, make_pool):
        """Threads race submit() against the pool thread; duplicate keys
        single-flight, and every submission resolves exactly once."""
        pool = make_pool(jobs=2).start()
        keys = [f"k{n}" for n in (2, 3, 4)]
        done, lock = [], threading.Lock()

        def on_done(outcome):
            with lock:
                done.append(outcome.key)

        def submitter():
            for key in keys * 4:
                pool.submit(task(key, baseline_spec(int(key[1:]))), on_done)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submitter) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        deadline = time.monotonic() + 60
        while len(done) < 48 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert sorted(done) == sorted(keys * 16)
        stats = pool.stats()
        assert stats["submitted"] == 48
        flight = stats["singleflight"]
        assert stats["completed"] + flight["coalesced"] == 48
        assert flight["inflight_now"] == 0

    def test_shut_down_pool_stays_closed(self, make_pool):
        pool = make_pool(jobs=1).start()
        pool.shutdown()
        spawned = pool.stats()["workers_spawned"]
        outcomes = pool.run([task("k", baseline_spec(2))])
        assert outcomes["k"].status == "cancelled"
        assert pool.stats()["workers_spawned"] == spawned
        with pytest.raises(RuntimeError):
            pool.start()

    def test_batch_sizes_count_only_the_runs_own_tasks(self, make_pool):
        pool = make_pool(jobs=1).start()
        for n in (5, 6, 7):  # another submitter's tasks, queued first
            pool.submit(task(f"other{n}", baseline_spec(n)), lambda o: None)
        outcomes = pool.run([task(f"k{n}", baseline_spec(n)) for n in (2, 3, 4)])
        assert all(o.status == "ok" for o in outcomes.values())
        assert sum(pool.batch_sizes) == 3


class TestExecuteParallel:
    def test_rounds_record_batch_sizes_on_a_started_pool(self, make_pool):
        pool = make_pool(jobs=2).start()
        report = execute_parallel(
            {"fig6": Study().experiments()["fig6"]}, jobs=2, runner=pool
        )
        assert report.executed > 0
        assert report.rounds[0]["batch_sizes"]
        assert sum(report.rounds[0]["batch_sizes"]) >= report.executed
        # the caller's pool stays started for its next campaign
        assert pool.stats()["workers_alive"] == pool.effective
