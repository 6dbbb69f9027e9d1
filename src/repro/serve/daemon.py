"""The serve daemon: an asyncio front-end over a started worker pool.

``python -m repro serve`` starts one :class:`ServeDaemon`.  It listens
on a unix socket (``0600``) and/or a TCP port, speaks the
newline-delimited JSON protocol of :mod:`repro.serve.protocol`, and
serves **points** to any number of concurrent clients: each
submission is one ``run_coupled`` configuration.  A figure, a table or
the chaos campaign reaches the daemon only as its points: the client
plans it, sends the points through
:class:`~repro.serve.client.ServiceRunner` and replays it serially
against the results (``repro submit --fig``, ``repro study
--service``), so no plan or replay runs here.

Execution model
---------------

The asyncio loop only shuffles bytes and bookkeeping, and answers the
points the run cache already holds at submission, the job born
``done`` (each cached result is pickled for the wire once, however
often it is asked for).  Other points go straight to the daemon's
:class:`~repro.exec.pool.WorkerPool`, started once and kept resident,
whose completion callback finishes their job on the loop.  So the loop
thread is the only code that reads or bumps the daemon's run cache,
its prefix counters and its job counters.

Duplicate concurrent submissions **single-flight** on the index of
live jobs (same point key -> one underlying job, ``coalesced`` counted
in ``stats``; the check is one lookup); the pool itself runs every
task it is given.  A point's key is always the daemon's own: it builds
one :class:`~repro.workflows.driver.RunSpec` from each distinct point
spelling it receives and keys the job by the spec's run-cache key, so
spellings of one point share a job.  Completed results are *not*
reused at the job level — re-submitting a finished point makes a new
job, born ``done`` from the shared run cache.  Finished jobs linger
for late ``status``/``wait`` readers and are then evicted at
submission time — oldest-finished first past ``job_cap`` total jobs,
unconditionally once ``job_ttl_seconds`` past their finish — so a
resident daemon's job registry stays bounded (``evicted`` in
``stats``).  Finished jobs are kept in finish order, so eviction stops
at the first job it keeps.  Each job's end is counted once, by state,
when it leaves the live index.

Two memos are not bounded, like the run cache beside them: the spec
memo keeps one entry per distinct submitted point spelling, and the
hit-payload memo one per cached point that was hit (336 and ~225 after
the 1,000-request seed-1 what-if stream of ``benchmarks/e2e``, whose
run cache then holds 336 entries).

SIGINT/SIGTERM (or the ``shutdown`` op) trigger the graceful sequence:
stop accepting, drain in-flight points up to ``drain_seconds`` (queued
ones resolve ``cancelled``), terminate every worker, unlink the socket.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from ..core import runcache
from ..exec.plan import PlannedTask
from ..exec.pool import Submission, TaskOutcome, WorkerPool
from ..workflows.driver import RunSpec, lookup
from . import protocol

#: what a point submission must name; the other inputs may default
_POINT_REQUIRED = ("machine", "workflow", "method", "nsim", "nana", "steps")


@dataclass
class Job:
    """One accepted point submission (possibly shared by many clients)."""

    ident: str
    #: the spec's run-cache key (``uncached:N`` for a point the cache
    #: cannot hold), the single-flight index's key
    key: str
    spec: RunSpec = field(repr=False)
    #: dunder test hooks: execution noise that rides to the worker
    hooks: Dict[str, Any] = field(default_factory=dict, repr=False)
    state: str = "running"  # -> done | failed | cancelled
    refs: int = 1
    created: float = field(default_factory=time.monotonic)
    finished: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: the job's pool submission (None for a job born done), the handle
    #: :meth:`ServeDaemon._cancel` passes to the pool
    submission: Optional[Submission] = field(default=None, repr=False)
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    #: called once the job reaches a terminal state
    on_finish: Optional[Callable[["Job"], None]] = field(
        default=None, repr=False
    )

    def finish(self, state: str, result=None, error=None) -> None:
        """Terminal transition (loop thread); wakes waiters."""
        if self.state != "running":
            return
        self.state = state
        self.result = result
        self.error = error
        self.finished = time.monotonic()
        if self.on_finish is not None:
            self.on_finish(self)
        self.done_event.set()

    def describe(self) -> Dict[str, Any]:
        payload = dict(
            ok=True,
            job=self.ident,
            state=self.state,
            refs=self.refs,
            seconds=round((self.finished or time.monotonic()) - self.created, 3),
        )
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            payload["result"] = self.result
        return payload


class ServeDaemon:
    """The long-running simulation service."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        drain_seconds: float = 10.0,
        recycle_after: Optional[int] = None,
        job_cap: int = 256,
        job_ttl_seconds: float = 3600.0,
    ) -> None:
        if socket_path is None and (host is None or port is None):
            raise ValueError("need a unix socket path and/or host+port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        pool_kwargs: Dict[str, Any] = dict(
            jobs=jobs, cache_dir=cache_dir, drain_seconds=drain_seconds
        )
        if recycle_after is not None:
            pool_kwargs["recycle_after"] = recycle_after
        self.pool = WorkerPool(**pool_kwargs)
        if cache_dir:
            runcache.enable_disk(cache_dir)
        self.jobs: Dict[str, Job] = {}
        #: running jobs by key: the single-flight index
        self._live: Dict[str, Job] = {}
        #: finished jobs in finish order, the order eviction reads
        self._finished: Deque[Job] = deque()
        #: retention for finished jobs (done/failed/cancelled): kept for
        #: late status/wait readers, then evicted oldest-finished
        #: first past ``job_cap`` total jobs, and unconditionally once
        #: ``job_ttl_seconds`` past their finish time
        self.job_cap = job_cap
        self.job_ttl_seconds = job_ttl_seconds
        self._job_seq = itertools.count(1)
        self._uncached_seq = itertools.count(1)
        #: submitted point bytes -> (the RunSpec built from them, their
        #: test hooks): one entry per distinct spelling, like the run
        #: cache's own entries
        self._specs: Dict[str, Tuple[RunSpec, Dict[str, Any]]] = {}
        #: run-cache key -> (cached result, its cache-hit payload)
        self._hit_payloads: Dict[str, Tuple[Any, Dict[str, Any]]] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self._stop_requested: Optional[asyncio.Event] = None
        self.started_at = time.monotonic()
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.jobs_coalesced = 0
        self.jobs_evicted = 0
        #: set once the listeners are up (thread-start synchronization)
        self.ready = threading.Event()

    # -- lifecycle -----------------------------------------------------

    def run(self) -> None:
        """Blocking entry point: serve until a signal or ``shutdown``."""
        asyncio.run(self._main())

    def request_shutdown(self) -> None:
        """Thread-safe graceful-stop trigger (signals, the shutdown op,
        tests)."""
        loop, stop = self._loop, self._stop_requested
        if loop is None or stop is None:
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._loop.add_signal_handler(signum, self.request_shutdown)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # not the main thread (tests) or unsupported platform
        self.pool.start()
        servers = []
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)  # stale socket from a crash
            server = await asyncio.start_unix_server(
                self._handle_client, path=self.socket_path,
                limit=protocol.MAX_LINE,
            )
            os.chmod(self.socket_path, 0o600)
            servers.append(server)
        if self.host is not None and self.port is not None:
            servers.append(
                await asyncio.start_server(
                    self._handle_client, host=self.host, port=self.port,
                    limit=protocol.MAX_LINE,
                )
            )
        self.ready.set()
        try:
            await self._stop_requested.wait()
        finally:
            self._stopping = True
            for server in servers:
                server.close()
                await server.wait_closed()
            # waited for off the loop: every in-flight point's finish,
            # posted before the pool returns, runs and is counted first
            await self._loop.run_in_executor(None, self.pool.shutdown)
            if self.socket_path is not None and os.path.exists(self.socket_path):
                os.unlink(self.socket_path)

    # -- connection handling -------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(protocol.encode(protocol.error("line too long")))
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = protocol.decode(line)
                except ValueError as exc:
                    writer.write(protocol.encode(protocol.error(str(exc))))
                    await writer.drain()
                    continue
                stop_after = await self._dispatch(request, writer)
                await writer.drain()
                if stop_after:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, request: Dict[str, Any], writer) -> bool:
        """Handle one request; True means close the connection after."""
        op = request.get("op")
        if op == "ping":
            writer.write(protocol.encode(dict(
                ok=True, pong=protocol.PROTOCOL_VERSION,
                uptime_seconds=round(time.monotonic() - self.started_at, 3),
            )))
            return False
        if op == "stats":
            writer.write(protocol.encode(dict(ok=True, stats=self.stats())))
            return False
        if op == "shutdown":
            writer.write(protocol.encode(dict(ok=True, stopping=True)))
            self.request_shutdown()
            return True
        if op == "submit":
            writer.write(protocol.encode(self._submit(request)))
            return False
        if op in ("status", "wait", "cancel"):
            job = self.jobs.get(request.get("job", ""))
            if job is None:
                writer.write(protocol.encode(
                    protocol.error(f"unknown job {request.get('job')!r}")
                ))
                return False
            if op == "cancel":
                writer.write(protocol.encode(self._cancel(job)))
                return False
            if op == "wait":
                await job.done_event.wait()
            writer.write(protocol.encode(job.describe()))
            return False
        writer.write(protocol.encode(protocol.error(f"unknown op {op!r}")))
        return False

    # -- submission ----------------------------------------------------

    def _retire(self, job: Job) -> None:
        """A job reached a terminal state (loop thread): it leaves the
        single-flight index, joins the finish order and is counted by
        its final state; no other code counts a job's end."""
        del self._live[job.key]
        self._finished.append(job)
        if job.state == "done":
            self.jobs_completed += 1
        elif job.state == "failed":
            self.jobs_failed += 1
        else:
            self.jobs_cancelled += 1

    def _evict_finished(self) -> None:
        """Drop finished jobs past the TTL or the retention cap.

        Runs on the loop thread at submission time, so the registry is
        bounded by how fast work arrives.  Only terminal jobs
        (done/failed/cancelled) are candidates — they have already left
        the single-flight index, so an eviction can never break
        coalescing — and the oldest-finished go first (LRU on finish
        time).  A later ``status``/``wait`` for an evicted ident gets
        the same "unknown job" a restart would produce.
        """
        now = time.monotonic()
        while self._finished:
            job = self._finished[0]
            expired = (
                job.finished is not None
                and now - job.finished > self.job_ttl_seconds
            )
            if not expired and len(self.jobs) <= self.job_cap:
                break  # oldest survivor: everything newer survives too
            self._finished.popleft()
            del self.jobs[job.ident]
            self.jobs_evicted += 1

    def _submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._stopping:
            return protocol.error("daemon is stopping")
        self._evict_finished()
        kind = request.get("kind")
        if kind != "point":
            return protocol.error(f"unknown submission kind {kind!r}")
        try:
            # Resolving and keying a point on every submission added
            # 50-85 us to each repeat while the workers simulated, and
            # ~21% to a what-if stream's median latency (2-vCPU x86
            # host; repeats are most of the stream), so each distinct
            # spelling (the exact submitted bytes) is resolved once.
            raw = request["spec_b64"]
            known = self._specs.get(raw)
            if known is None:
                point = protocol.unpack_pickle(raw)
                if not isinstance(point, dict):
                    return protocol.error("point spec must be a dict")
                missing = [k for k in _POINT_REQUIRED if k not in point]
                if missing:
                    return protocol.error(
                        f"point spec missing keys: {', '.join(missing)}"
                    )
                # dunder test hooks are execution noise, not
                # configuration
                hooks = {k: point.pop(k) for k in list(point)
                         if k.startswith("__")}
                known = self._specs[raw] = (RunSpec.of(**point), hooks)
        except Exception as exc:
            return protocol.error(f"bad submission: {exc}")
        spec, hooks = known
        key = spec.key or f"uncached:{next(self._uncached_seq)}"

        # job-level single-flight: attach to a running duplicate
        job = self._live.get(key)
        if job is not None:
            job.refs += 1
            self.jobs_coalesced += 1
            return dict(ok=True, job=job.ident, coalesced=True)
        job = Job(ident=f"j{next(self._job_seq)}", key=key, spec=spec,
                  hooks=hooks, on_finish=self._retire)
        self.jobs[job.ident] = job
        self._live[key] = job
        self.jobs_submitted += 1
        self._start(job)
        return dict(ok=True, job=job.ident, coalesced=False)

    def _cancel(self, job: Job) -> Dict[str, Any]:
        if job.submission is not None:
            self.pool.cancel(job.submission)
        return dict(ok=True, job=job.ident, state=job.state)

    def _start(self, job: Job) -> None:
        """Answer a cached point or a prefix resume now; hand a miss to
        the pool."""
        spec = job.spec
        cached = lookup(spec) if spec.key else None
        if cached is not None:
            job.finish("done", self._hit_payload(spec.key, cached))
            return
        task = PlannedTask(key=job.key, spec=spec, experiments=["point"],
                           refs=1, hooks=job.hooks)

        def on_done(outcome: TaskOutcome) -> None:  # pool thread
            try:
                self._loop.call_soon_threadsafe(self._finish_point, job, outcome)
            except RuntimeError:
                pass  # loop already closed (daemon stopping)

        job.submission = self.pool.submit(task, on_done=on_done)

    def _finish_point(self, job: Job, outcome: TaskOutcome) -> None:
        spec = job.spec
        if outcome.status == "ok":
            if spec.key:
                runcache.CACHE.seed(spec.key, outcome.result)
            if outcome.prefix is not None:
                # every later steps variant of the point resumes here
                runcache.CACHE.put_prefix(spec.prefix_key, outcome.prefix)
            job.finish("done", self._point_payload(
                outcome.result, outcome.cache_hit, outcome.attempts))
        elif outcome.status == "cancelled":
            job.finish("cancelled", error="cancelled")
        else:
            job.finish("failed", error=outcome.error or "quarantined")

    def _hit_payload(self, key: str, result) -> Dict[str, Any]:
        """A cache hit's payload, built once per cached result.

        Repeats of earlier points are most of a what-if stream, and
        pickling plus base64-encoding the result (20-45 us on a 2-vCPU
        x86 host) was a hit's largest cost on the loop.  The memo holds
        the result it was built from, so a re-seeded entry is packed
        anew; no job mutates its result payload.
        """
        memo = self._hit_payloads.get(key)
        if memo is None or memo[0] is not result:
            memo = (result, self._point_payload(result, True, 0))
            self._hit_payloads[key] = memo
        return memo[1]

    @staticmethod
    def _point_payload(result, cache_hit: bool, attempts: int) -> Dict[str, Any]:
        return dict(
            result_b64=protocol.pack_pickle(result),
            cache_hit=bool(cache_hit),
            attempts=attempts,
            summary=dict(
                machine=result.machine, workflow=result.workflow,
                method=result.method, nsim=result.nsim, nana=result.nana,
                steps=result.steps, end_to_end=result.end_to_end,
                ok=result.ok, fidelity=getattr(result, "fidelity", None),
            ),
        )

    # -- stats ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        from ..core import forkpoint

        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return dict(
            protocol=protocol.PROTOCOL_VERSION,
            uptime_seconds=round(time.monotonic() - self.started_at, 3),
            jobs=dict(
                submitted=self.jobs_submitted,
                completed=self.jobs_completed,
                failed=self.jobs_failed,
                cancelled=self.jobs_cancelled,
                coalesced=self.jobs_coalesced,
                evicted=self.jobs_evicted,
                states=states,
            ),
            pool=self.pool.stats(),
            cache=runcache.CACHE.stats(),
            #: resident prefix-snapshot observability: prefix entries
            #: stay hot in this process's run cache across jobs, so
            #: steps variants keep resuming without re-simulating
            forkpoint=forkpoint.STATS.stats(),
        )
