"""The serve daemon end to end: one module-scoped daemon, many clients.

The daemon runs on a background thread inside the test process (its
warm workers are real spawn processes), so the serial golden for fig6
is rendered *first*, against a clean cache, before the daemon exists.
The daemon serves points only; ``repro submit --fig`` clients run in
subprocesses, each planning and replaying its figure itself.
"""

import asyncio
import copy
import io
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import runcache
from repro.core.export import to_csv, to_json
from repro.core.study import Study
from repro.__main__ import main as cli_main
from repro.exec import execute_parallel
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError, ServiceRunner
from repro.serve.daemon import Job, ServeDaemon
from repro.workflows import RunSpec, run_coupled

from ..workflows.test_fidelity import assert_same_physics
from ..workflows.test_perf_modes import exact_run

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture(scope="module")
def golden():
    """Serial fig6 bytes, rendered before the daemon touches the cache."""
    runcache.clear()
    study = Study()
    study.run(only=["fig6"])
    table = study.results["fig6"]
    payload = {"csv": to_csv(table), "json": to_json(table)}
    runcache.clear()
    return payload


@pytest.fixture(scope="module")
def served(golden):
    # a short /tmp path: AF_UNIX socket paths are capped near 107 bytes
    tmp = tempfile.mkdtemp(prefix="repro-serve-")
    try:
        sock = os.path.join(tmp, "d.sock")
        port = _free_port()
        daemon = ServeDaemon(
            socket_path=sock, host="127.0.0.1", port=port, jobs=2,
            drain_seconds=15.0,
        )
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        assert daemon.ready.wait(60), "daemon never came up"
        yield SimpleNamespace(daemon=daemon, sock=sock, port=port,
                              golden=golden)
        daemon.request_shutdown()
        thread.join(60)
        assert not thread.is_alive(), \
            "daemon did not stop on request_shutdown"
        assert not os.path.exists(sock), "socket not unlinked on shutdown"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def client(served, **kwargs) -> ServeClient:
    kwargs.setdefault("timeout", 120.0)
    return ServeClient(socket_path=served.sock, **kwargs).connect(
        retry_seconds=5
    )


def point_spec(**extra):
    spec = dict(machine="titan", workflow="lammps", method=None,
                nsim=2, nana=1, steps=1)
    spec.update(extra)
    return spec


def submit_cli(served, *args) -> subprocess.Popen:
    """``python -m repro submit`` against the daemon, in a subprocess."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "submit", "--socket", served.sock,
         *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )


def finish(proc: subprocess.Popen) -> str:
    """Wait for a CLI client; returns its stderr."""
    try:
        _out, err = proc.communicate(timeout=300)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    assert proc.returncode == 0, err
    return err


def pool_submissions(served, monkeypatch) -> list:
    """The task keys the daemon hands its pool from now on."""
    keys = []
    submit = served.daemon.pool.submit

    def recording(task, *args, **kwargs):
        keys.append(task.key)
        return submit(task, *args, **kwargs)

    monkeypatch.setattr(served.daemon.pool, "submit", recording)
    return keys


def assert_golden_export(served, directory) -> None:
    assert (directory / "fig6.csv").read_bytes() \
        == served.golden["csv"].encode("utf-8")
    assert (directory / "fig6.json").read_bytes() \
        == served.golden["json"].encode("utf-8")


class TestBasics:
    def test_ping(self, served):
        with client(served) as c:
            reply = c.ping()
        assert reply["pong"] == 2
        assert reply["uptime_seconds"] >= 0

    def test_tcp_listener(self, served):
        with ServeClient(host="127.0.0.1", port=served.port).connect() as c:
            assert c.ping()["pong"] == 2

    def test_socket_is_private(self, served):
        assert oct(os.stat(served.sock).st_mode & 0o777) == "0o600"

    def test_unknown_op_and_unknown_job(self, served):
        with client(served) as c:
            with pytest.raises(ServeError, match="unknown op"):
                c._request({"op": "frobnicate"})
            with pytest.raises(ServeError, match="unknown job"):
                c.status("j999999")

    def test_points_are_the_only_submission_kind(self, served):
        with client(served) as c:
            for request in (dict(kind="figure", figure="fig6", full=False),
                            dict(kind="chaos", seed=7)):
                with pytest.raises(ServeError, match="unknown submission "
                                   f"kind '{request['kind']}'"):
                    c._request(dict(op="submit", **request))
            with pytest.raises(ServeError, match="unknown op 'stream'"):
                c._request({"op": "stream", "job": "j1"})


class TestFigureServing:
    """``repro submit --fig`` plans and replays in its client; the
    daemon runs the figure's points."""

    def test_concurrent_duplicates_share_one_run_byte_identical(
            self, served, tmp_path, monkeypatch):
        runcache.clear()  # the daemon's cache: fig6 must reach the pool
        keys = pool_submissions(served, monkeypatch)
        streamed = submit_cli(served, "--fig", "6", "--stream",
                              "--export", str(tmp_path / "a"))
        silent = submit_cli(served, "--fig", "fig6",
                            "--export", str(tmp_path / "b"))
        progress = finish(streamed)
        assert finish(silent) == ""
        assert_golden_export(served, tmp_path / "a")
        assert_golden_export(served, tmp_path / "b")
        # the two clients' points coalesced or hit the daemon's cache:
        # the pool ran each fig6 point once
        assert keys and len(keys) == len(set(keys))
        # --stream prints the local executor's round and task lines
        assert progress.startswith("round 1: ")
        assert "  [1/" in progress

    def test_resubmission_is_a_new_job_served_from_cache(
            self, served, tmp_path, monkeypatch):
        finish(submit_cli(served, "--fig", "6"))
        submitted = served.daemon.jobs_submitted
        keys = pool_submissions(served, monkeypatch)
        finish(submit_cli(served, "--fig", "6", "--export", str(tmp_path)))
        assert_golden_export(served, tmp_path)
        # the rerun submitted its points anew, and the daemon answered
        # every one from its run cache
        assert served.daemon.jobs_submitted > submitted
        assert keys == []

    def test_submit_unknown_figure_exits_2_with_the_list_hint(
            self, served, capsys):
        code = cli_main(["submit", "--socket", served.sock, "--fig", "fig99"])
        assert code == 2
        out = capsys.readouterr().out
        assert "unknown experiment ids: fig99" in out
        assert "python -m repro list" in out


class TestPointServing:
    def test_point_round_trips_a_result(self, served):
        with client(served) as c:
            reply = c.submit_point(point_spec())
            final = c.wait(reply["job"])
        assert final["state"] == "done"
        result = final["result"]
        assert result["summary"]["ok"] is True
        assert result["summary"]["end_to_end"] > 0

    def test_duplicate_point_hits_the_shared_store(self, served):
        spec = point_spec(nsim=4, nana=2)
        with client(served) as c:
            submitted = c.submit_point(spec)
            first = c.wait(submitted["job"])
            coalesced = served.daemon.jobs_coalesced
            again = c.submit_point(spec)
            second = c.wait(again["job"])
        # the finished job left the single-flight index: a new job
        assert again["coalesced"] is False
        assert again["job"] != submitted["job"]
        assert served.daemon.jobs_coalesced == coalesced
        assert first["state"] == second["state"] == "done"
        assert second["result"]["cache_hit"] is True
        assert (second["result"]["summary"]["end_to_end"]
                == first["result"]["summary"]["end_to_end"])

    def test_repeated_hits_pickle_the_result_once(self, served, monkeypatch):
        spec = point_spec(nsim=14, nana=7)
        packed = []
        pack = protocol.pack_pickle

        def counting(obj):
            if not isinstance(obj, dict):  # a result, not a point spec
                packed.append(obj)
            return pack(obj)

        monkeypatch.setattr(protocol, "pack_pickle", counting)
        with client(served) as c:
            c.wait(c.submit_point(spec)["job"])  # from the pool
            hits = [c.wait(c.submit_point(spec)["job"]) for _ in range(3)]
            assert len(packed) == 2  # the pool's answer, then the first hit
            # a re-seeded entry is packed anew
            key = RunSpec.of(**spec).key
            runcache.CACHE.seed(key, copy.deepcopy(runcache.CACHE.get(key)))
            hits.append(c.wait(c.submit_point(spec)["job"]))
        assert len(packed) == 3
        assert {hit["result"]["result_b64"] for hit in hits} == {pack(packed[1])}
        assert all(hit["result"]["cache_hit"] for hit in hits)
        assert all(hit["result"]["attempts"] == 0 for hit in hits)

    def test_cached_point_is_answered_at_submission(self, served,
                                                    monkeypatch):
        spec = point_spec(nsim=18, nana=9)
        loop = served.daemon._loop
        create_task = loop.create_task
        tasks = []

        def counting(*args, **kwargs):
            tasks.append(args)
            return create_task(*args, **kwargs)

        with client(served) as c:
            # the round trip also makes sure this connection's handler
            # task exists before counting starts
            c.wait(c.submit_point(spec)["job"])  # from the pool
            monkeypatch.setattr(loop, "create_task", counting)
            replies = [c.submit_point(spec) for _ in range(5)]
            statuses = [c.status(reply["job"]) for reply in replies]
        assert tasks == []
        assert [reply["coalesced"] for reply in replies] == [False] * 5
        assert [status["state"] for status in statuses] == ["done"] * 5
        assert all(status["result"]["cache_hit"] for status in statuses)

    def test_steps_variant_resumes_at_submission(self, served):
        # the worker that simulated the base ships the prefix snapshot
        # its run published, so a steps variant of the finished point
        # resumes in the daemon itself, whichever worker ran the base
        base = dict(machine="titan", workflow="lammps",
                    method="dataspaces", nsim=32, nana=16, steps=8)
        variant = dict(base, steps=40)
        with client(served) as c:
            assert c.wait(c.submit_point(base)["job"])["state"] == "done"
            submitted = served.daemon.pool.stats()["submitted"]
            status = c.status(c.submit_point(variant)["job"])
        assert status["state"] == "done"
        assert served.daemon.pool.stats()["submitted"] == submitted
        result = protocol.unpack_pickle(status["result"]["result_b64"])
        assert result.forked.startswith("prefix:")
        assert result.fidelity == "steady" and result.fidelity_log == ()
        assert_same_physics(result, exact_run(**variant))

    def test_point_spellings_share_the_driver_key(self, served):
        # two spellings of one point, an omitted default and its explicit
        # spelling, then two values of the ignored fidelity keyword: each
        # second submission is answered from the daemon's own cache
        spec = point_spec(nsim=12, nana=6)
        with client(served) as c:
            for first_extra, second_extra in (
                ({}, {"num_servers": None}),
                ({"fidelity": "exact"}, {"fidelity": "steady"}),
            ):
                first = c.wait(
                    c.submit_point(dict(spec, **first_extra))["job"]
                )
                second = c.wait(
                    c.submit_point(dict(spec, **second_extra))["job"]
                )
                assert first["state"] == second["state"] == "done"
                assert second["result"]["cache_hit"] is True
                assert second["result"]["attempts"] == 0

    def test_worker_crash_is_retried_transparently(self, served):
        crashed_before = served.daemon.pool.workers_crashed
        with client(served) as c:
            reply = c.submit_point(point_spec(nsim=6, nana=3, __crash__=1))
            final = c.wait(reply["job"])
        assert final["state"] == "done"
        assert final["result"]["attempts"] == 2
        assert served.daemon.pool.workers_crashed == crashed_before + 1

    def test_poison_point_fails_cleanly(self, served):
        with client(served) as c:
            reply = c.submit_point(point_spec(nsim=8, nana=4, __crash__=True))
            final = c.wait(reply["job"])
        assert final["state"] == "failed"
        assert "died" in final["error"]

    def test_cancel_inflight_point(self, served):
        crashed_before = served.daemon.pool.workers_crashed
        with client(served) as c:
            reply = c.submit_point(point_spec(nsim=10, nana=5, __sleep__=30))
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                # in flight on a worker, not merely queued behind warm-up
                if c.status(reply["job"])["state"] == "running" \
                        and served.daemon.pool.stats()["inflight"]:
                    break
                time.sleep(0.05)
            c.cancel(reply["job"])
            final = c.wait(reply["job"])
        assert final["state"] == "cancelled"
        # killing the worker on purpose is a cancel, not a crash
        assert served.daemon.pool.workers_crashed == crashed_before

    def test_malformed_point_is_rejected(self, served):
        with client(served) as c:
            with pytest.raises(ServeError, match="missing keys"):
                c.submit_point({"machine": "titan"})
            # refused at submit time, not failed later in a worker
            with pytest.raises(ServeError,
                               match="bad submission: not run_coupled"):
                c.submit_point(point_spec(fidelty="steady"))
            with pytest.raises(ServeError,
                               match="bad submission: steps must be an int"):
                c.submit_point(point_spec(steps="16"))
            with pytest.raises(ServeError, match="bad submission: "
                               "unknown staging method 'no-such-method'"):
                c.submit_point(point_spec(method="no-such-method"))
            with pytest.raises(ServeError,
                               match="bad submission: method must be a str"):
                c.submit_point(point_spec(method=3))

    def test_point_the_pool_cannot_cost_fails_cleanly(self, served):
        # a key sent along with the point skips nothing: the daemon
        # resolves every point itself, so the bad spec never reaches the
        # pool thread
        request = dict(op="submit", kind="point", key="no-such-key",
                       spec_b64=protocol.pack_pickle(point_spec(steps="16")))
        with client(served) as c:
            with pytest.raises(ServeError,
                               match="bad submission: steps must be an int"):
                c._request(request)
            again = c.wait(c.submit_point(point_spec(nsim=16, nana=8))["job"])
        assert again["state"] == "done"

    def test_a_sent_key_cannot_redirect_a_point(self, served):
        # point A submitted under point B's key must not answer B
        a = point_spec(nsim=2, nana=1, steps=1)
        b = point_spec(nsim=4, nana=2, steps=3)
        request = dict(op="submit", kind="point", key=RunSpec.of(**b).key,
                       spec_b64=protocol.pack_pickle(a))
        with client(served) as c:
            assert c.wait(c._request(request)["job"])["state"] == "done"
            final = c.wait(c.submit_point(b)["job"])
        assert final["state"] == "done"
        summary = final["result"]["summary"]
        assert (summary["nsim"], summary["steps"]) == (4, 3)


class TestJobAccounting:
    def test_every_job_end_is_counted_once(self, served):
        daemon = served.daemon
        with client(served) as c:
            before = c.stats()["jobs"]
            cached = point_spec(nsim=20, nana=10)
            c.wait(c.submit_point(cached)["job"])  # a miss
            hit = c.submit_point(cached)
            # the hook rides to the worker but is not in the key, so the
            # plain spelling coalesces onto the sleeping job
            slept = c.submit_point(point_spec(nsim=22, nana=11, __sleep__=0.5))
            duplicate = c.submit_point(point_spec(nsim=22, nana=11))
            assert duplicate == dict(ok=True, job=slept["job"], coalesced=True)
            crashed = c.submit_point(point_spec(nsim=24, nana=12, __crash__=1))
            poison = c.submit_point(point_spec(nsim=26, nana=13,
                                               __crash__=True))
            finals = [c.wait(reply["job"])["state"]
                      for reply in (hit, slept, crashed, poison)]
            assert finals == ["done", "done", "done", "failed"]
            pinned = c.submit_point(point_spec(nsim=28, nana=14, __sleep__=30))
            deadline = time.monotonic() + 60
            while not daemon.pool.stats()["inflight"] \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            c.cancel(pinned["job"])
            assert c.wait(pinned["job"])["state"] == "cancelled"
            jobs = c.stats()["jobs"]
        assert jobs["submitted"] == (jobs["completed"] + jobs["failed"]
                                     + jobs["cancelled"]
                                     + jobs["states"].get("running", 0))
        # six jobs: four done, one failed, one cancelled
        assert [jobs[k] - before[k] for k in
                ("submitted", "completed", "failed", "cancelled",
                 "coalesced")] == [6, 4, 1, 1, 1]


class TestStudyOverService:
    def test_study_rides_the_daemon_byte_identical(self, served):
        study = Study(service=served.sock)
        study.run(only=["fig6"])
        assert to_csv(study.results["fig6"]) == served.golden["csv"]
        assert to_json(study.results["fig6"]) == served.golden["json"]
        report = study.run_report
        assert report is not None
        assert report.quarantined == []
        assert report.runcache is not None

    def test_the_first_round_reports_the_daemon_workers(self, served):
        workers = served.daemon.pool.effective
        runner = ServiceRunner(served.sock, timeout=120.0)
        assert runner.effective == workers  # known before any round runs
        runcache.clear()  # the daemon's cache too: the point is planned
        progress = io.StringIO()
        report = execute_parallel(
            {"point": lambda: run_coupled(**point_spec())}, jobs=1,
            runner=runner, progress_stream=progress,
        )
        round_line = progress.getvalue().splitlines()[0]
        assert round_line.startswith("round 1: 1 points to simulate")
        assert round_line.endswith(f"on {workers} workers")
        assert report.effective_jobs == workers
        # the client's jobs=1 is no request the daemon clamped
        assert "clamped" not in report.summary()


class TestJobEviction:
    """Finished-job retention: TTL + cap, applied at submission time."""

    def _daemon(self, tmp_path, **kwargs):
        kwargs.setdefault("job_cap", 3)
        kwargs.setdefault("job_ttl_seconds", 60.0)
        return ServeDaemon(
            socket_path=str(tmp_path / "evict.sock"), **kwargs
        )

    def _add(self, daemon, ident, state="done", finished_ago=0.0):
        """Register a point job as ``_submit`` does; a terminal state
        goes through the job's own finish hook, so the daemon decides
        what eviction may read (add them oldest-finished first)."""
        job = Job(ident=ident, key=f"key-{ident}",
                  spec=RunSpec.of(**point_spec()), on_finish=daemon._retire)
        daemon.jobs[ident] = job
        daemon._live[job.key] = job
        if state != "running":
            job.finish(state)
            job.finished = time.monotonic() - finished_ago
        return job

    @pytest.fixture()
    def loop(self):
        loop = asyncio.new_event_loop()
        yield loop
        loop.close()

    def test_cap_evicts_oldest_finished_first(self, tmp_path):
        daemon = self._daemon(tmp_path)
        # j0 finished longest ago; cap=3 keeps the 3 newest.
        for i in range(5):
            self._add(daemon, f"j{i}", finished_ago=50.0 - 10 * i)
        daemon._evict_finished()
        assert sorted(daemon.jobs) == ["j2", "j3", "j4"]
        assert daemon.jobs_evicted == 2

    def test_ttl_evicts_even_under_the_cap(self, tmp_path):
        daemon = self._daemon(tmp_path, job_ttl_seconds=30.0)
        self._add(daemon, "old", finished_ago=31.0)
        self._add(daemon, "new", finished_ago=1.0)
        daemon._evict_finished()
        assert sorted(daemon.jobs) == ["new"]
        assert daemon.jobs_evicted == 1

    def test_live_jobs_are_never_evicted(self, tmp_path):
        daemon = self._daemon(tmp_path, job_cap=1)
        self._add(daemon, "run", state="running")
        self._add(daemon, "run2", state="running")
        self._add(daemon, "fin", finished_ago=1.0)
        daemon._evict_finished()
        # Over the cap, but only the finished job is eligible.
        assert sorted(daemon.jobs) == ["run", "run2"]
        assert daemon.jobs_evicted == 1

    def test_evicted_counter_reaches_the_stats_payload(self, tmp_path):
        daemon = self._daemon(tmp_path, job_ttl_seconds=0.0)
        self._add(daemon, "gone", finished_ago=1.0)
        daemon._evict_finished()
        assert daemon.stats()["jobs"]["evicted"] == 1

    def test_cancelling_a_queued_job_leaves_the_index(self, tmp_path, loop):
        daemon = self._daemon(tmp_path, jobs=1)
        daemon._loop = loop
        run_coupled(**point_spec())  # cached: its job is born done
        hit_request = dict(op="submit", kind="point",
                           spec_b64=protocol.pack_pickle(point_spec()))
        sleeper = dict(op="submit", kind="point", spec_b64=protocol.pack_pickle(
            point_spec(nsim=30, nana=15, __sleep__=30)))

        def cancelled(reply):
            job = daemon.jobs[reply["job"]]
            daemon._cancel(job)
            loop.run_until_complete(
                asyncio.wait_for(job.done_event.wait(), 60))
            return job

        daemon.pool.start()
        try:
            hit = daemon.jobs[daemon._submit(hit_request)["job"]]
            first_reply = daemon._submit(sleeper)
            deadline = time.monotonic() + 60
            while not daemon.pool.stats()["inflight"] \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert daemon.pool.stats()["inflight"], "point never started"
            live = (dict(daemon._live), list(daemon._finished))
            first = cancelled(first_reply)
            again = daemon._submit(sleeper)
            hit_again = daemon._submit(hit_request)
            cancelled(again)
        finally:
            daemon.pool.shutdown()
        # the miss is indexed for single-flight; the hit was born done
        assert live == ({first.key: first}, [hit])
        assert (hit.state, first.state) == ("done", "cancelled")
        # nothing coalesces onto a finished job
        for reply, earlier in ((again, first), (hit_again, hit)):
            assert reply["coalesced"] is False
            assert reply["job"] != earlier.ident
        assert daemon._live == {}
        assert daemon.jobs_coalesced == 0
        # every job left through the finish hook, in finish order
        assert list(daemon._finished) == [
            hit, first, daemon.jobs[hit_again["job"]], daemon.jobs[again["job"]]
        ]
        assert (daemon.jobs_submitted, daemon.jobs_completed,
                daemon.jobs_cancelled) == (4, 2, 2)


class TestStopDuringPointJob:
    def test_stop_never_revives_the_pool(self):
        """The daemon stops while a point runs on a worker: the drain
        cancels it, its end is counted once, the shut-down pool spawns
        nothing more, and no worker outlives the daemon."""
        tmp = tempfile.mkdtemp(prefix="repro-stop-")
        sock = os.path.join(tmp, "d.sock")
        daemon = ServeDaemon(socket_path=sock, jobs=2, drain_seconds=0.0)
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        try:
            assert daemon.ready.wait(60), "daemon never came up"
            with ServeClient(socket_path=sock, timeout=120.0).connect(
                retry_seconds=5
            ) as c:
                job = c.submit_point(
                    point_spec(nsim=32, nana=16, __sleep__=30))["job"]
            deadline = time.monotonic() + 60
            while not daemon.pool.stats()["inflight"] \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert daemon.pool.stats()["inflight"], "point never started"
            spawned = daemon.pool.stats()["workers_spawned"]
            procs = [w.proc for w in daemon.pool._workers]
        finally:
            daemon.request_shutdown()
            thread.join(60)
            shutil.rmtree(tmp, ignore_errors=True)
        assert not thread.is_alive(), "daemon did not stop"
        stats = daemon.pool.stats()
        assert stats["workers_spawned"] == spawned
        assert stats["workers_alive"] == 0
        assert not any(proc.is_alive() for proc in procs)
        assert daemon.jobs[job].state == "cancelled"
        assert daemon.jobs_cancelled == 1
