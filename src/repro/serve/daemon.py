"""The serve daemon: an asyncio front-end over a started worker pool.

``python -m repro serve`` starts one :class:`ServeDaemon`.  It listens
on a unix socket (``0600``) and/or a TCP port, speaks the
newline-delimited JSON protocol of :mod:`repro.serve.protocol`, and
accepts three kinds of work from any number of concurrent clients:

* **points**  — one ``run_coupled`` configuration (the
  :class:`~repro.serve.client.ServiceRunner` path batch campaigns use);
* **figures** — any study experiment id (``fig2a`` … ``conclusions``),
  planned, deduplicated, simulated on the warm pool and replayed
  serially exactly like ``repro study --jobs N``, so the returned CSV/
  JSON bytes equal the serial goldens;
* **chaos**   — the seed-fixed fault-injection campaign.

Execution model
---------------

The asyncio loop only shuffles bytes and bookkeeping; simulation work
lands in two places.  Points go straight to the daemon's
:class:`~repro.exec.pool.WorkerPool`, started once and kept resident.
Figure and chaos jobs run on a dedicated single **replay thread**:
planning and serial replay mutate process globals (the plan-recorder
hook, the in-process run cache, the registry singletons), so at most
one replay may be live at a time —
concurrent figure submissions queue behind each other while their
simulation points still fan out across the pool.  Every job's
progress events are mirrored to any number of streaming subscribers.

Duplicate concurrent submissions **single-flight** at job granularity
(same figure/full, same chaos seed, same point key -> one underlying
job, ``coalesced`` counted in ``stats``) and again at point
granularity inside the pool.  Completed results are *not* reused at
the job level — re-submitting a finished figure makes a new job whose
points all hit the shared run cache, which is the cheaper and more
observable path.  Finished jobs linger for late ``status``/``stream``
readers and are then evicted at submission time — oldest-finished
first past ``job_cap`` total jobs, unconditionally once
``job_ttl_seconds`` past their finish — so a resident daemon's job
registry stays bounded (``evicted`` in ``stats``).

SIGINT/SIGTERM (or the ``shutdown`` op) trigger the graceful sequence:
stop accepting, cancel queued jobs, drain in-flight pool tasks up to
``drain_seconds``, terminate every worker, unlink the socket.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import signal
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core import runcache
from ..exec.plan import PlannedTask
from ..exec.pool import WorkerPool
from ..workflows import driver
from . import protocol

#: spec keys a point submission must carry (PlannedTask.label needs them)
_POINT_REQUIRED = ("machine", "workflow", "method", "nsim", "nana", "steps")


@dataclass
class Job:
    """One accepted submission (possibly shared by many clients)."""

    ident: str
    kind: str  # "point" | "figure" | "chaos"
    key: str
    params: Dict[str, Any]
    loop: asyncio.AbstractEventLoop = field(repr=False)
    state: str = "queued"  # -> running | done | failed | cancelled
    refs: int = 1
    created: float = field(default_factory=time.monotonic)
    finished: Optional[float] = None
    #: progress events, appended only on the loop thread
    events: List[Dict[str, Any]] = field(default_factory=list)
    subscribers: List[asyncio.Queue] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    def emit(self, event: Dict[str, Any]) -> None:
        """Record + fan out one progress event (any thread)."""
        try:
            self.loop.call_soon_threadsafe(self._emit_on_loop, dict(event))
        except RuntimeError:
            pass  # loop already closed (daemon stopping)

    def _emit_on_loop(self, event: Dict[str, Any]) -> None:
        self.events.append(event)
        for queue in self.subscribers:
            queue.put_nowait(event)

    def finish(self, state: str, result=None, error=None) -> None:
        """Terminal transition (any thread); wakes waiters/streamers."""
        try:
            self.loop.call_soon_threadsafe(
                self._finish_on_loop, state, result, error
            )
        except RuntimeError:
            pass

    def _finish_on_loop(self, state, result, error) -> None:
        if self.state in ("done", "failed", "cancelled"):
            return
        self.state = state
        self.result = result
        self.error = error
        self.finished = time.monotonic()
        self.done_event.set()
        for queue in self.subscribers:
            queue.put_nowait(None)  # stream sentinel

    def describe(self, with_result: bool = False) -> Dict[str, Any]:
        payload = dict(
            ok=True,
            job=self.ident,
            kind=self.kind,
            state=self.state,
            refs=self.refs,
            events=len(self.events),
            seconds=round((self.finished or time.monotonic()) - self.created, 3),
        )
        if self.error is not None:
            payload["error"] = self.error
        if with_result and self.result is not None:
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
        #: retention for finished jobs (done/failed/cancelled): kept for
        #: late status/stream readers, then evicted oldest-finished
        #: first past ``job_cap`` total jobs, and unconditionally once
        #: ``job_ttl_seconds`` past their finish time
        self.job_cap = job_cap
        self.job_ttl_seconds = job_ttl_seconds
        self._job_seq = itertools.count(1)
        self._uncached_seq = itertools.count(1)
        #: point-spec spelling -> the driver's run-cache key
        self._point_keys: Dict[str, str] = {}
        #: figure/chaos plan+replay mutate process globals -> one thread
        self._replay = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-replay"
        )
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
            for job in self.jobs.values():
                if job.state == "queued":
                    job.cancel_requested = True
                    job._finish_on_loop("cancelled", None, "daemon stopping")
                    self.jobs_cancelled += 1
            await self._loop.run_in_executor(None, self.pool.shutdown)
            self._replay.shutdown(wait=True, cancel_futures=True)
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
        if op in ("status", "wait", "stream", "cancel"):
            job = self.jobs.get(request.get("job", ""))
            if job is None:
                writer.write(protocol.encode(
                    protocol.error(f"unknown job {request.get('job')!r}")
                ))
                return False
            if op == "status":
                writer.write(protocol.encode(job.describe(with_result=True)))
                return False
            if op == "cancel":
                writer.write(protocol.encode(self._cancel(job)))
                return False
            if op == "wait":
                await job.done_event.wait()
                writer.write(protocol.encode(job.describe(with_result=True)))
                return False
            await self._stream(job, writer)
            return False
        writer.write(protocol.encode(protocol.error(f"unknown op {op!r}")))
        return False

    async def _stream(self, job: Job, writer) -> None:
        """Replay the job's event backlog, then follow live to the end."""
        writer.write(protocol.encode(dict(ok=True, stream=job.ident)))
        queue: asyncio.Queue = asyncio.Queue()
        backlog = list(job.events)
        finished = job.done_event.is_set()
        if not finished:
            job.subscribers.append(queue)
        try:
            for event in backlog:
                writer.write(protocol.encode(dict(event=event)))
            await writer.drain()
            if not finished:
                while True:
                    event = await queue.get()
                    if event is None:
                        break
                    writer.write(protocol.encode(dict(event=event)))
                    await writer.drain()
            done = job.describe(with_result=True)
            done["done"] = True
            writer.write(protocol.encode(done))
            await writer.drain()
        finally:
            if queue in job.subscribers:
                job.subscribers.remove(queue)

    # -- submission ----------------------------------------------------

    def _evict_finished(self) -> None:
        """Drop finished jobs past the TTL or the retention cap.

        Runs on the loop thread at submission time, so the registry is
        bounded by how fast work arrives.  Only terminal jobs
        (done/failed/cancelled) are candidates — the single-flight scan
        in :meth:`_submit` only matches queued/running jobs, so an
        eviction can never break coalescing — and the oldest-finished
        go first (LRU on finish time).  A later ``status``/``stream``
        for an evicted ident gets the same "unknown job" a restart
        would produce.
        """
        now = time.monotonic()
        finished = sorted(
            (
                job for job in self.jobs.values()
                if job.state in ("done", "failed", "cancelled")
            ),
            key=lambda job: job.finished or 0.0,
        )
        for job in finished:
            expired = (
                job.finished is not None
                and now - job.finished > self.job_ttl_seconds
            )
            if not expired and len(self.jobs) <= self.job_cap:
                break  # oldest survivor: everything newer survives too
            del self.jobs[job.ident]
            self.jobs_evicted += 1

    def _submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._stopping:
            return protocol.error("daemon is stopping")
        self._evict_finished()
        kind = request.get("kind")
        try:
            if kind == "figure":
                ident = protocol.normalize_figure(str(request.get("figure", "")))
                params = dict(figure=ident, full=bool(request.get("full", False)))
                key = f"figure:{ident}:full={params['full']}"
            elif kind == "chaos":
                params = dict(seed=int(request.get("seed", 7)))
                key = f"chaos:seed={params['seed']}"
            elif kind == "point":
                spec = protocol.unpack_pickle(request["spec_b64"])
                if not isinstance(spec, dict):
                    return protocol.error("point spec must be a dict")
                missing = [k for k in _POINT_REQUIRED if k not in spec]
                if missing:
                    return protocol.error(
                        f"point spec missing keys: {', '.join(missing)}"
                    )
                cache_key = request.get("key") or self._point_key(spec)
                params = dict(spec=spec, cache_key=cache_key)
                key = f"point:{cache_key}"
            else:
                return protocol.error(f"unknown submission kind {kind!r}")
        except Exception as exc:
            return protocol.error(f"bad submission: {exc}")

        # job-level single-flight: attach to a queued/running duplicate
        for job in self.jobs.values():
            if job.key == key and job.state in ("queued", "running"):
                job.refs += 1
                self.jobs_coalesced += 1
                return dict(ok=True, job=job.ident, coalesced=True)
        job = Job(
            ident=f"j{next(self._job_seq)}", kind=kind, key=key,
            params=params, loop=self._loop,
        )
        self.jobs[job.ident] = job
        self.jobs_submitted += 1
        if kind == "point":
            asyncio.ensure_future(self._run_point_job(job))
        else:
            future = self._replay.submit(self._run_replay_job, job)
            future.add_done_callback(lambda f: f.exception())  # logged via job
        return dict(ok=True, job=job.ident, coalesced=False)

    def _cancel(self, job: Job) -> Dict[str, Any]:
        job.cancel_requested = True
        if job.state == "queued":
            job._finish_on_loop("cancelled", None, "cancelled by client")
            self.jobs_cancelled += 1
        submission = job.params.get("__submission__")
        if submission is not None:
            self.pool.cancel(submission)
        return dict(ok=True, job=job.ident, state=job.state)

    def _point_key(self, spec: Dict[str, Any]) -> str:
        """The run-cache key ``run_coupled(**spec)`` itself would use, so
        spellings of one point share a job and figure-seeded results
        answer it (dunder test markers are execution noise, not
        configuration, and stay out of the key)."""
        clean = {k: v for k, v in spec.items() if not k.startswith("__")}
        try:
            spelling = runcache.config_key(**clean)
        except TypeError:
            return f"uncached:{next(self._uncached_seq)}"
        # Resolving the point costs ~36 us against ~6.5 us for hashing
        # its spelling (2-vCPU x86 host), paid on the event loop by every
        # submission, and repeated submissions are the latency-critical
        # case, so the key is memoized per spelling (one short string per
        # distinct submitted point, like the run cache's own entries).
        key = self._point_keys.get(spelling)
        if key is None:
            key = driver.point_key(**clean)
            if key is None:
                return f"uncached:{next(self._uncached_seq)}"
            self._point_keys[spelling] = key
        return key

    # -- point jobs (asyncio + pool) -----------------------------------

    async def _run_point_job(self, job: Job) -> None:
        if job.cancel_requested:
            return
        job.state = "running"
        key = job.params["cache_key"]
        cacheable = not key.startswith("uncached:")
        spec = job.params["spec"]
        if cacheable:
            cached = runcache.CACHE.get(key)
            if cached is not None:
                job._finish_on_loop("done", self._point_payload(cached, True, 0), None)
                self.jobs_completed += 1
                return
        task = PlannedTask(key=key, spec=spec, experiments=["point"], refs=1)
        future: asyncio.Future = self._loop.create_future()

        def on_done(outcome) -> None:
            try:
                self._loop.call_soon_threadsafe(future.set_result, outcome)
            except RuntimeError:
                pass

        submission = self.pool.submit(task, on_done=on_done, on_progress=job.emit)
        job.params["__submission__"] = submission
        outcome = await future
        if outcome.status == "ok":
            if cacheable:
                runcache.CACHE.seed(key, outcome.result)
            job.finish(
                "done",
                self._point_payload(
                    outcome.result, outcome.cache_hit, outcome.attempts
                ),
            )
            self.jobs_completed += 1
        elif outcome.status == "cancelled":
            job.finish("cancelled", None, "cancelled")
            self.jobs_cancelled += 1
        else:
            job.finish("failed", None, outcome.error or "quarantined")
            self.jobs_failed += 1

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

    # -- figure / chaos jobs (replay thread) ---------------------------

    def _run_replay_job(self, job: Job) -> None:
        if job.cancel_requested or self._stopping:
            job.finish("cancelled", None, "cancelled before start")
            self.jobs_cancelled += 1
            return
        job.state = "running"
        try:
            from ..core.export import to_csv, to_json
            from ..exec import execute_parallel

            if job.kind == "figure":
                from ..core.study import Study

                study = Study(full=job.params["full"])
                experiments = study.experiments()
                ident = job.params["figure"]
                if ident not in experiments:
                    raise ValueError(
                        f"unknown experiment id {ident!r} "
                        f"(see 'python -m repro list')"
                    )
                selected = {ident: experiments[ident]}
            else:  # chaos
                from ..chaos.campaign import (
                    chaos_blast,
                    chaos_matrix,
                    chaos_matrix_ext,
                )

                seed = job.params["seed"]
                selected = {
                    "chaos_matrix": lambda: chaos_matrix(seed),
                    "chaos_blast": lambda: chaos_blast(seed),
                    "chaos_matrix_ext": lambda: chaos_matrix_ext(seed),
                }
            report = execute_parallel(
                selected,
                jobs=self.pool.jobs,
                runner=self.pool,
                progress=job.emit,
            )
            if self._stopping or job.cancel_requested:
                job.finish("cancelled", None, "daemon stopping")
                self.jobs_cancelled += 1
                return
            # Serial replay in canonical order against the warmed
            # cache: the exported bytes equal the serial goldens.
            tables = {
                ident: {"csv": to_csv(t), "json": to_json(t)}
                for ident, t in ((i, runner()) for i, runner in selected.items())
            }
            job.finish(
                "done", dict(tables=tables, report=report.to_dict())
            )
            self.jobs_completed += 1
        except Exception:
            job.finish("failed", None, traceback.format_exc())
            self.jobs_failed += 1

    # -- stats ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        from ..core import forkpoint

        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        pool = self.pool.stats()
        flight = pool.pop("singleflight")
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
            pool=pool,
            cache=dict(
                **runcache.CACHE.stats(),
                point_coalesced=flight["coalesced"],
                point_inflight_now=flight["inflight_now"],
                job_coalesced=self.jobs_coalesced,
            ),
            #: resident prefix-snapshot observability: prefix entries
            #: stay hot in this process's run cache across jobs, so
            #: replays keep serving steps variants without re-simulating
            forkpoint=forkpoint.STATS.stats(),
        )
