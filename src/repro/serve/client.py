"""Blocking client for the serve daemon, and the campaign adapter.

:class:`ServeClient` is the synchronous counterpart of the asyncio
daemon: one socket, one request per line, replies parsed back into
dicts.  The CLI (``python -m repro submit``), the tests and the bench
all drive it; :class:`ServiceRunner` adapts it to the
``runner.run(tasks, progress)`` contract of
:func:`repro.exec.execute_parallel`, which is how ``Study(service=...)``
and ``repro submit --fig``/``--chaos-seed`` ride a daemon's warm pool
instead of spawning their own: every planned point becomes a point
submission (its spec's fields, which the daemon resolves and keys
itself), duplicate keys coalesce daemon-side (across *all* connected
clients), and the pickled results seed the local in-process cache for
the byte-identical serial replay, which runs in the client.
"""

from __future__ import annotations

import dataclasses
import functools
import socket
import time
from typing import Any, Callable, Dict, Optional, Sequence

from ..exec.pool import TaskOutcome
from . import protocol


class ServeError(RuntimeError):
    """The daemon answered ``ok: false`` (or the wire broke)."""


class ServeClient:
    """One blocking connection to a serve daemon."""

    def __init__(
        self,
        address: Optional[str] = None,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 600.0,
    ) -> None:
        if address is not None:
            parts = protocol.parse_address(address)
            socket_path = parts.get("socket_path", socket_path)
            host = parts.get("host", host)
            port = parts.get("port", port)
        if socket_path is None and (host is None or port is None):
            raise ValueError("need a unix socket path or host+port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader = None

    # -- connection ----------------------------------------------------

    def connect(self, retry_seconds: float = 0.0) -> "ServeClient":
        """Connect, optionally retrying while the daemon boots."""
        deadline = time.monotonic() + retry_seconds
        while True:
            try:
                self._sock = self._open()
                self._reader = self._sock.makefile("rb")
                return self
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)

    def _open(self) -> socket.socket:
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        return sock

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServeClient":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wire ----------------------------------------------------------

    def _send(self, payload: Dict[str, Any]) -> None:
        if self._sock is None:
            self.connect()
        self._sock.sendall(protocol.encode(payload))

    def _recv(self) -> Dict[str, Any]:
        line = self._reader.readline()
        if not line:
            raise ServeError("connection closed by daemon")
        return protocol.decode(line)

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._send(payload)
        reply = self._recv()
        if not reply.get("ok", False):
            raise ServeError(reply.get("error", "daemon error"))
        return reply

    # -- ops -----------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._request({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        return self._request({"op": "stats"})["stats"]

    def shutdown(self) -> Dict[str, Any]:
        return self._request({"op": "shutdown"})

    def submit_point(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one ``run_coupled`` keyword dict; the daemon keys it."""
        return self._request({"op": "submit", "kind": "point",
                              "spec_b64": protocol.pack_pickle(spec)})

    def status(self, job: str) -> Dict[str, Any]:
        return self._request({"op": "status", "job": job})

    def wait(self, job: str) -> Dict[str, Any]:
        """Block until the job reaches a terminal state."""
        return self._request({"op": "wait", "job": job})

    def cancel(self, job: str) -> Dict[str, Any]:
        return self._request({"op": "cancel", "job": job})


class ServiceRunner:
    """:func:`repro.exec.execute_parallel` backend over a daemon.

    ``run(tasks)`` submits every planned task as a point, then waits
    for each in submission order (completion order is the daemon's
    concern); outcomes mirror the local pool's: ``ok`` with the
    unpickled result, or ``quarantined`` with the daemon's error so
    later rounds skip the key and the serial replay computes the point
    in-process — a dead daemon mid-campaign degrades, never corrupts.
    """

    def __init__(self, address: str, timeout: float = 3600.0) -> None:
        self.address = address
        self.timeout = timeout

    @functools.cached_property
    def effective(self) -> int:
        """The daemon's worker count, asked once, so the first round
        already reports it (the local pool's ``effective``)."""
        with ServeClient(address=self.address, timeout=self.timeout) as client:
            return client.stats()["pool"]["effective_jobs"]

    def run(
        self,
        tasks: Sequence[Any],
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, TaskOutcome]:
        outcomes: Dict[str, TaskOutcome] = {}
        with ServeClient(address=self.address, timeout=self.timeout) as client:
            submitted = []
            for task in tasks:
                point = {f.name: getattr(task.spec, f.name)
                         for f in dataclasses.fields(task.spec)}
                submitted.append((task, client.submit_point(point)["job"]))
            for task, job in submitted:
                outcome = TaskOutcome(
                    key=task.key, label=task.label(),
                    experiments=list(task.experiments),
                )
                reply = client.wait(job)
                outcome.attempts = 1
                if reply["state"] == "done":
                    result = reply["result"]
                    outcome.status = "ok"
                    outcome.result = protocol.unpack_pickle(result["result_b64"])
                    outcome.cache_hit = result["cache_hit"]
                    outcome.attempts = max(1, result.get("attempts", 1))
                else:
                    outcome.status = "quarantined"
                    outcome.error = reply.get("error", reply["state"])
                outcomes[task.key] = outcome
                if progress is not None:
                    progress(
                        dict(
                            key=outcome.key, label=outcome.label,
                            experiments=outcome.experiments,
                            status=outcome.status, attempts=outcome.attempts,
                            seconds=reply.get("seconds", 0.0),
                            cache_hit=outcome.cache_hit, worker="service",
                            backoff=0.0, error=outcome.error,
                        )
                    )
        return outcomes
