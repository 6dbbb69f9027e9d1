"""The serve daemon end to end: one module-scoped daemon, many clients.

The daemon runs on a background thread inside the test process (its
warm workers are real spawn processes), so the serial golden for fig6
is rendered *first*, against a clean cache, before the daemon exists.
"""

import os
import tempfile
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import runcache
from repro.core.export import to_csv, to_json
from repro.core.study import Study
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


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
    tmp = tempfile.mkdtemp(prefix="repro-serve-")
    sock = os.path.join(tmp, "d.sock")
    port = _free_port()
    daemon = ServeDaemon(
        socket_path=sock, host="127.0.0.1", port=port, jobs=2,
        drain_seconds=15.0,
    )
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    assert daemon.ready.wait(60), "daemon never came up"
    yield SimpleNamespace(daemon=daemon, sock=sock, port=port, golden=golden)
    daemon.request_shutdown()
    thread.join(60)
    assert not thread.is_alive(), "daemon did not stop on request_shutdown"
    assert not os.path.exists(sock), "socket not unlinked on shutdown"


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


class TestBasics:
    def test_ping(self, served):
        with client(served) as c:
            reply = c.ping()
        assert reply["pong"] == 1
        assert reply["uptime_seconds"] >= 0

    def test_tcp_listener(self, served):
        with ServeClient(host="127.0.0.1", port=served.port).connect() as c:
            assert c.ping()["pong"] == 1

    def test_socket_is_private(self, served):
        assert oct(os.stat(served.sock).st_mode & 0o777) == "0o600"

    def test_unknown_op_and_unknown_job(self, served):
        with client(served) as c:
            with pytest.raises(ServeError, match="unknown op"):
                c._request({"op": "frobnicate"})
            with pytest.raises(ServeError, match="unknown job"):
                c.status("j999999")

    def test_bad_figure_id_fails_the_job(self, served):
        with client(served) as c:
            reply = c.submit_figure("fig99")
            final = c.wait(reply["job"])
        assert final["state"] == "failed"
        assert "unknown experiment id" in final["error"]


class TestFigureServing:
    def test_concurrent_duplicates_share_one_run_byte_identical(self, served):
        before = served.daemon.jobs_coalesced
        with client(served) as first, client(served) as second:
            submitted = first.submit_figure("6")
            duplicate = second.submit_figure("fig6")  # while in flight
            assert duplicate["job"] == submitted["job"]
            assert duplicate["coalesced"] is True
            assert submitted["coalesced"] is False
            events = []
            final_first = first.stream(submitted["job"], events.append)
            final_second = second.wait(duplicate["job"])
        assert final_first["state"] == "done"
        assert final_second["state"] == "done"
        assert events, "stream delivered no progress events"
        for final in (final_first, final_second):
            tables = final["result"]["tables"]
            assert tables["fig6"]["csv"] == served.golden["csv"]
            assert tables["fig6"]["json"] == served.golden["json"]
        assert served.daemon.jobs_coalesced == before + 1
        with client(served) as c:
            stats = c.stats()
        assert stats["cache"]["job_coalesced"] >= 1
        assert stats["jobs"]["coalesced"] >= 1

    def test_resubmission_is_a_new_job_served_from_cache(self, served):
        with client(served) as c:
            first = c.submit_figure("6")
            final1 = c.wait(first["job"])
            again = c.submit_figure("6")
            assert again["coalesced"] is False
            assert again["job"] != first["job"]
            final2 = c.wait(again["job"])
        assert final2["result"]["tables"] == final1["result"]["tables"]
        # every point of the rerun came from the shared store
        assert final2["result"]["report"]["executed"] == 0

    def test_stream_after_completion_replays_the_backlog(self, served):
        with client(served) as c:
            job = c.submit_figure("6")["job"]
            c.wait(job)
            events = []
            final = c.stream(job, events.append)
        assert final["state"] == "done"
        assert events, "finished job should replay its event backlog"


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
            first = c.wait(c.submit_point(spec)["job"])
            second = c.wait(c.submit_point(spec)["job"])
        assert first["state"] == second["state"] == "done"
        assert second["result"]["cache_hit"] is True
        assert (second["result"]["summary"]["end_to_end"]
                == first["result"]["summary"]["end_to_end"])

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


class TestJobEviction:
    """Finished-job retention: TTL + cap, applied at submission time."""

    def _daemon(self, tmp_path, **kwargs):
        kwargs.setdefault("job_cap", 3)
        kwargs.setdefault("job_ttl_seconds", 60.0)
        return ServeDaemon(
            socket_path=str(tmp_path / "evict.sock"), **kwargs
        )

    def _job(self, loop, ident, state="done", finished_ago=0.0):
        from repro.serve.daemon import Job

        job = Job(ident=ident, kind="figure", key=f"figure:{ident}",
                  params={}, loop=loop, state=state)
        if state in ("done", "failed", "cancelled"):
            job.finished = time.monotonic() - finished_ago
        return job

    @pytest.fixture()
    def loop(self):
        import asyncio

        loop = asyncio.new_event_loop()
        yield loop
        loop.close()

    def test_cap_evicts_oldest_finished_first(self, tmp_path, loop):
        daemon = self._daemon(tmp_path)
        # j0 finished longest ago; cap=3 keeps the 3 newest.
        for i in range(5):
            job = self._job(loop, f"j{i}", finished_ago=50.0 - 10 * i)
            daemon.jobs[job.ident] = job
        daemon._evict_finished()
        assert sorted(daemon.jobs) == ["j2", "j3", "j4"]
        assert daemon.jobs_evicted == 2

    def test_ttl_evicts_even_under_the_cap(self, tmp_path, loop):
        daemon = self._daemon(tmp_path, job_ttl_seconds=30.0)
        daemon.jobs["old"] = self._job(loop, "old", finished_ago=31.0)
        daemon.jobs["new"] = self._job(loop, "new", finished_ago=1.0)
        daemon._evict_finished()
        assert sorted(daemon.jobs) == ["new"]
        assert daemon.jobs_evicted == 1

    def test_live_jobs_are_never_evicted(self, tmp_path, loop):
        daemon = self._daemon(tmp_path, job_cap=1)
        daemon.jobs["run"] = self._job(loop, "run", state="running")
        daemon.jobs["que"] = self._job(loop, "que", state="queued")
        daemon.jobs["fin"] = self._job(loop, "fin", finished_ago=1.0)
        daemon._evict_finished()
        # Over the cap, but only the finished job is eligible.
        assert sorted(daemon.jobs) == ["que", "run"]
        assert daemon.jobs_evicted == 1

    def test_evicted_counter_reaches_the_stats_payload(self, tmp_path, loop):
        daemon = self._daemon(tmp_path, job_ttl_seconds=0.0)
        daemon.jobs["gone"] = self._job(loop, "gone", finished_ago=1.0)
        daemon._evict_finished()
        assert daemon.stats()["jobs"]["evicted"] == 1


class TestStopDuringFigureJob:
    def test_stop_never_revives_the_pool(self):
        """The daemon stops while a figure job's round is in flight: the
        shut-down pool must not spawn workers for a re-planning round,
        and no worker outlives the daemon."""
        runcache.clear()  # the figure's points must really simulate
        sock = os.path.join(tempfile.mkdtemp(prefix="repro-stop-"), "d.sock")
        daemon = ServeDaemon(socket_path=sock, jobs=2, drain_seconds=0.0)
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        try:
            assert daemon.ready.wait(60), "daemon never came up"
            with ServeClient(socket_path=sock, timeout=120.0).connect(
                retry_seconds=5
            ) as c:
                c.submit_figure("2a", full=True)
            deadline = time.monotonic() + 60
            while not daemon.pool.stats()["inflight"] \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert daemon.pool.stats()["inflight"], "figure never started"
            spawned = daemon.pool.stats()["workers_spawned"]
            procs = [w.proc for w in daemon.pool._workers]
        finally:
            daemon.request_shutdown()
            thread.join(60)
            runcache.clear()
        assert not thread.is_alive(), "daemon did not stop"
        stats = daemon.pool.stats()
        assert stats["workers_spawned"] == spawned
        assert stats["workers_alive"] == 0
        assert not any(proc.is_alive() for proc in procs)
        assert daemon.jobs_cancelled == 1
