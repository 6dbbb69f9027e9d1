"""The ``whatif`` workload: a resident ``repro serve`` daemon answering a
closed loop of point submissions.

The daemon is a real ``python -m repro serve --jobs N`` subprocess.  One
benchmark process drives it over ``CONNECTIONS`` connections, each
sending its next request only after the previous one is ``done``, and
times every request from submit to done.  Its spawn workers are out of
reach of an in-process profiler, so the traced run takes serve numbers
from client timings and the ``stats`` verb, and replays the same stream
through ``run_coupled`` in-process to attribute the simulation work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from .harness import BenchError
from .stream import Request

#: closed-loop connections, and the daemon's warm workers: the host's
#: two cores, one load-generating process
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

#: distinct points recomputed cold, in-process, after each stream
COLD_CHECKS = 25

#: RunResult fields that record provenance, not physics
IGNORED_FIELDS = ("library", "forked", "fork_fallback")


def result_digest(result) -> str:
    """sha256 over every physics field of a RunResult.

    Floats enter by ``repr``, so equal digests mean float identity with
    NaN equal to NaN; time series enter as their sample lists.
    """
    from repro.sim.monitor import TimeSeries

    def canon(value: Any) -> Any:
        if isinstance(value, TimeSeries):
            return ("series", list(value.times), list(value.values))
        if isinstance(value, dict):
            return sorted((str(k), canon(v)) for k, v in value.items())
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        return value

    fields = [
        (f.name, canon(getattr(result, f.name)))
        for f in dataclasses.fields(result) if f.name not in IGNORED_FIELDS
    ]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def spec_key(spec: Dict) -> Tuple:
    return tuple(sorted(spec.items()))


def running(proc: subprocess.Popen) -> bool:
    """Whether ``proc`` is still running, without reaping it (the peak
    RSS comes with the reaping :func:`reap`)."""
    return os.waitid(os.P_PID, proc.pid,
                     os.WEXITED | os.WNOHANG | os.WNOWAIT) is None


def reap(proc: subprocess.Popen, timeout: float) -> float:
    """Wait for ``proc`` (killing it past ``timeout``); returns the peak
    RSS in MB of it and every descendant it waited for."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


class Daemon:
    """One ``repro serve`` subprocess on a socket inside ``workdir``."""

    def __init__(self, root: str, workdir: str, env: Dict[str, str], ident: int):
        self.root = root
        self.socket = os.path.relpath(os.path.join(workdir, f"serve{ident}.sock"), root)
        self.log = os.path.join(workdir, f"serve{ident}.log")
        self.env = env
        self.proc: Optional[subprocess.Popen] = None

    def client(self, timeout: float = 120.0):
        from repro.serve.client import ServeClient

        # relative: the caller runs from ``root``, and a unix socket path
        # must stay short
        return ServeClient(socket_path=self.socket, timeout=timeout)

    def start(self) -> float:
        """Spawn the daemon; returns seconds until it answers ``ping``
        with every warm worker alive."""
        from repro.serve.client import ServeError

        start = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket",
                 self.socket, "--jobs", str(CONNECTIONS)],
                cwd=self.root, env=self.env, stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and running(self.proc):
            try:
                with self.client(timeout=5.0) as client:
                    client.ping()
                    pool = client.stats()["pool"]
                if pool["workers_alive"] == pool["effective_jobs"]:
                    return time.perf_counter() - start
            except (OSError, ServeError):
                pass
            time.sleep(0.002)
        self.stop()
        with open(self.log, encoding="utf-8", errors="replace") as fh:
            raise BenchError(f"repro serve did not come up:\n{fh.read()[-2000:]}")

    def stats(self) -> Dict[str, Any]:
        with self.client() as client:
            return client.stats()

    def stop(self) -> float:
        """Drain and stop the daemon; returns its tree's peak RSS (MB)."""
        from repro.serve.client import ServeError

        if self.proc is None:
            return 0.0
        if running(self.proc):
            try:
                with self.client(timeout=10.0) as client:
                    client.shutdown()
            except (OSError, ServeError):
                self.proc.terminate()
        rss = reap(self.proc, timeout=30.0)
        self.proc = None
        return rss


def run_stream(daemon: Daemon, stream: List[Request]) -> Dict[str, Any]:
    """Send ``stream`` over :data:`CONNECTIONS` closed-loop connections.

    Returns the wall time, and per request its latency, final state and
    the daemon's pickled result.
    """
    from repro.serve.client import ServeError

    records: List[Optional[Tuple[float, str, Optional[str]]]] = [None] * len(stream)
    cursor = iter(range(len(stream)))
    lock = threading.Lock()

    def connection() -> None:
        with daemon.client() as client:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                start = time.perf_counter()
                try:
                    job = client.submit_point(stream[index].spec)["job"]
                    reply = client.wait(job)
                    state = reply["state"]
                    payload = (reply.get("result") or {}).get("result_b64")
                except (OSError, ServeError) as exc:
                    state, payload = f"error: {exc}", None
                records[index] = (time.perf_counter() - start, state, payload)

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    for index, record in enumerate(records):
        if record is None:  # every connection died before reaching it
            records[index] = (None, "not sent", None)
    return dict(wall_s=wall, records=records)


def served_digests(stream: List[Request], records) -> Tuple[Dict[Tuple, str], List[str]]:
    """The digest of each distinct point as served, and every repeated
    submission whose payload differs from the point's first answer."""
    from repro.serve.protocol import unpack_pickle

    served: Dict[Tuple, str] = {}
    mismatches = []
    for request, (_latency, state, payload) in zip(stream, records):
        if state != "done" or payload is None:
            continue
        key = spec_key(request.spec)
        digest = result_digest(unpack_pickle(payload))
        if served.setdefault(key, digest) != digest:
            mismatches.append(f"whatif: repeated submission changed {dict(key)}")
    return served, mismatches


def cold_check(served: Dict[Tuple, str], seed: int) -> List[str]:
    """Recompute :data:`COLD_CHECKS` seeded points in-process, cold."""
    from repro.core import runcache
    from repro.workflows import run_coupled

    keys = sorted(served)
    sample = random.Random(seed).sample(keys, min(COLD_CHECKS, len(keys)))
    mismatches = []
    for key in sample:
        runcache.clear()
        if result_digest(run_coupled(**dict(key))) != served[key]:
            mismatches.append(f"whatif: served result differs from cold {dict(key)}")
    runcache.clear()
    return mismatches


def replay(stream: List[Request]) -> Tuple[float, Dict[Tuple, str]]:
    """Run the stream's points serially in-process, in stream order,
    against one warm run cache: the daemon's work without the daemon."""
    from repro.core import runcache
    from repro.workflows import run_coupled

    runcache.clear()
    results: Dict[Tuple, Any] = {}
    start = time.perf_counter()
    for request in stream:
        results.setdefault(spec_key(request.spec), run_coupled(**request.spec))
    wall = time.perf_counter() - start
    return wall, {key: result_digest(r) for key, r in results.items()}
