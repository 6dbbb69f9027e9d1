"""The spawn worker pool every parallel path runs on.

Each worker is a fresh ``spawn`` interpreter: it imports :mod:`repro`
from scratch, so the machine/workflow registries (whose singleton
identity gates the run cache) are rebuilt per worker, and no simulator
state leaks between the parent and its children.  A task travels with
its :class:`~repro.workflows.driver.RunSpec` (catalog machines and
workflows by name), which the worker runs as sent; results come back as
the :class:`RunResult` objects the workers returned and cached.

* :meth:`WorkerPool.start` spawns every worker; each pre-imports the
  whole simulator before it signals ready, so the interpreter + import
  cost is paid once, not on the first task.  ``execute_parallel``
  starts one pool for all its planning rounds and shuts it down after;
  the serve daemon starts one and keeps it until it stops.
* The scheduling loop runs on a dedicated thread.  :meth:`submit` is
  thread-safe and returns at once (completion and progress arrive via
  callbacks); :meth:`run` is the blocking submit-all, wait-for-all form.
* A worker holds at most one task: it gets the next one only after it
  answered the last, one pipe round trip per task.  So a dead worker's
  task is the attempt that crashed, and :meth:`cancel` kills only the
  worker running the cancelled task.
* Crashed (or exception-raising) tasks are retried with bounded
  exponential backoff on a replacement worker; a task that keeps
  failing is **quarantined** — recorded and skipped — instead of
  killing the campaign.
* A scheduling pass that raises does not end the pool thread: the
  queued submissions it could not ship resolve ``failed`` with the
  traceback (``stats()["loop_errors"]`` counts such passes), and the
  thread goes on serving the rest.
* A worker that has completed ``recycle_after`` tasks is retired at its
  next idle moment and replaced fresh, bounding any slow leak a
  long-lived simulator process could accumulate; a crashed worker is
  replaced on reap, so the pool never shrinks below its target.  The
  exception is start-up: once ``max_attempts`` workers in a row exit
  before they are ready (a ``cache_dir`` that is a file, a script that
  starts a pool without an ``if __name__ == "__main__":`` guard), the
  pool stops replacing them, and every queued and later submission
  resolves ``failed`` with that count and the last exit code.
* The pool runs every submission it is given: a campaign's plan
  deduplicates its points and the serve daemon its concurrent jobs.
* Workers count the discrete events their simulations process, so
  :meth:`stats` can quote pool-resident events/sec.
* :meth:`shutdown` drains in-flight tasks up to ``drain_seconds`` and
  then terminates every worker; tasks that never started resolve
  ``cancelled``, and so does anything submitted later — a shut-down
  pool never starts again.  :meth:`run` on the main thread routes
  SIGINT/SIGTERM into that same drain and raises
  :class:`PoolInterrupted`.

If ``cache_dir`` is set, every worker attaches the shared on-disk run
cache; its writes are concurrency-safe (unique temp file + atomic
rename, see :mod:`repro.core.runcache`).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence

from .plan import PlannedTask

#: exit code of a deliberately crashed (poison-marker) worker
_CRASH_EXIT = 13

#: a worker retires (and is replaced fresh) after this many completed
#: tasks — the health-check bound on simulator-process aging
RECYCLE_AFTER = 256

#: ceiling on the exponential retry backoff, in seconds
BACKOFF_CAP = 4.0


class PoolInterrupted(KeyboardInterrupt):
    """SIGINT/SIGTERM hit :meth:`WorkerPool.run` and the drain completed.

    Raised *after* the graceful sequence — in-flight tasks drained up
    to the deadline, every worker joined or terminated — so catching it
    (or letting it propagate as a KeyboardInterrupt) never leaves
    orphaned spawn processes behind.  ``outcomes`` holds every task's
    outcome; tasks that never started are ``cancelled``.
    """

    def __init__(self, signum: int, outcomes: Dict[str, "TaskOutcome"]):
        super().__init__(f"worker pool interrupted by signal {signum}")
        self.signum = signum
        self.outcomes = outcomes


def effective_jobs(requested: int) -> int:
    """The worker count actually worth running on this host.

    Spawn workers beyond the usable CPUs only add interpreter start-up
    and context-switch cost — the ``--jobs 2`` slower than ``--jobs 1``
    regression on single-CPU hosts — so the requested count clamps to
    the CPUs this process may run on: its affinity mask where the
    platform has one (``taskset``, SLURM/cgroup pinning), else
    ``os.cpu_count()``.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(requested, cpus))


def _shippable(task: PlannedTask) -> bool:
    """Whether the pool can pickle ``task`` for a worker."""
    try:
        pickle.dumps(task)
    except Exception:
        return False
    return True


@dataclass
class TaskOutcome:
    """What happened to one planned task across all its attempts."""

    key: str
    label: str
    experiments: List[str]
    status: str = "pending"  # -> "ok" | "quarantined" | "cancelled" | "failed"
    attempts: int = 0
    #: simulation seconds summed over attempts that reported back
    seconds: float = 0.0
    #: True when the worker answered from the shared disk cache
    cache_hit: bool = False
    result: Optional[Any] = None
    #: the steady-boundary prefix snapshot the run published, if any
    #: (see :mod:`repro.core.forkpoint`): the serve daemon files it so
    #: any steps variant resumes in the daemon, whichever worker ran it
    prefix: Optional[Any] = None
    #: last error (traceback text or crash description)
    error: Optional[str] = None

    @property
    def retried(self) -> bool:
        return self.attempts > 1


def _execute_task(task: PlannedTask, attempt: int):
    """Run one task's spec inside a worker.

    Test hooks: a ``"__crash__"`` hook kills the worker process outright
    — ``True`` on every attempt (a poison task), an integer N on
    attempts <= N (crash then recover) — exercising the retry and
    quarantine paths with real process deaths; a ``"__sleep__"`` hook
    stalls the worker for that many wall seconds first, pinning a task
    in flight for the drain tests.
    """
    crash = task.hooks.get("__crash__")
    if crash is True or (isinstance(crash, int) and attempt <= crash):
        os._exit(_CRASH_EXIT)
    nap = task.hooks.get("__sleep__", 0)
    if nap:
        time.sleep(nap)

    from ..core import runcache
    from ..workflows.driver import run_spec

    hits_before = runcache.CACHE.hits
    prefix_stores = runcache.CACHE.prefix_stores
    result = run_spec(task.spec)
    cache_hit = runcache.CACHE.hits > hits_before
    prefix = None
    if runcache.CACHE.prefix_stores > prefix_stores:
        prefix = runcache.CACHE.get_prefix(task.spec.prefix_key)
    return result, cache_hit, prefix


def _worker_main(conn, cache_dir: Optional[str]) -> None:
    """Worker loop: receive one (task, attempt) entry, answer it.

    Everything heavy imports *before* the ``("ready",)`` message, so the
    parent only assigns work to a worker that answers at simulation
    speed.  The answer carries the number of discrete events the
    simulation processed and the prefix snapshot the run published.
    """
    from ..core import runcache
    from ..sim.engine import Environment
    from ..workflows import driver  # noqa: F401  (pre-import = warm-up)

    if cache_dir:
        runcache.enable_disk(cache_dir)

    counted = {"events": 0}
    original_step = Environment.step

    def counting_step(env) -> None:
        counted["events"] += 1
        original_step(env)

    Environment.step = counting_step
    conn.send(("ready",))
    while True:
        try:
            entry = conn.recv()
        except EOFError:
            return
        if entry is None:
            return
        start = time.perf_counter()
        before = counted["events"]
        try:
            result, cache_hit, prefix = _execute_task(*entry)
            error = None
        except Exception:
            result, cache_hit, prefix = None, False, None
            error = traceback.format_exc()
        conn.send(
            ("ok" if error is None else "error", result,
             time.perf_counter() - start, cache_hit,
             counted["events"] - before, error, prefix)
        )


def _install_signal_handlers(handler) -> List[tuple]:
    """Route SIGINT/SIGTERM to ``handler``; returns what to restore.
    Only the main thread may (or need) install handlers — a pool driven
    from a helper thread relies on its host's own signal story (the
    serve daemon has one)."""
    if threading.current_thread() is not threading.main_thread():
        return []
    return [
        (signum, signal.signal(signum, handler))
        for signum in (signal.SIGINT, signal.SIGTERM)
    ]


@dataclass
class Submission:
    """One task handed to the pool; resolved exactly once."""

    task: PlannedTask
    on_done: Callable[[TaskOutcome], None]
    on_progress: Optional[Callable[[Dict[str, Any]], None]] = None
    outcome: TaskOutcome = field(init=False)
    cancelled: bool = field(default=False)
    #: True once on_done fired (ok / quarantined / cancelled)
    resolved: bool = field(default=False)

    def __post_init__(self) -> None:
        self.outcome = TaskOutcome(
            key=self.task.key,
            label=self.task.label(),
            experiments=list(self.task.experiments),
        )


@dataclass
class _Worker:
    ident: int
    proc: multiprocessing.Process
    conn: Any
    ready: bool = False
    #: the (submission, attempt) it is running, or None when idle: the
    #: only record of what runs where
    busy: Optional[tuple] = None
    tasks_done: int = 0


class WorkerPool:
    """A thread-driven pool of ``jobs`` spawn workers.

    ``jobs`` is the *requested* count; the pool spawns
    :func:`effective_jobs` workers (kept in ``self.effective``).
    """

    def __init__(
        self,
        jobs: int,
        cache_dir: Optional[str] = None,
        max_attempts: int = 3,
        backoff_base: float = 0.25,
        recycle_after: int = RECYCLE_AFTER,
        drain_seconds: float = 10.0,
    ) -> None:
        self.jobs = jobs
        self.effective = effective_jobs(jobs)
        self.cache_dir = cache_dir
        #: total tries per task before quarantine, and the run of
        #: workers dying before ready that makes the pool give up
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.recycle_after = recycle_after
        #: how long :meth:`shutdown` (and a signal inside :meth:`run`)
        #: waits for in-flight tasks before terminating their workers
        self.drain_seconds = drain_seconds

        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._queue: deque = deque()  # of (Submission, attempt)
        self._delayed: List[tuple] = []  # (ready_at, Submission, attempt)
        self._workers: List[_Worker] = []
        self._next_worker_id = 0
        self._wake_r: Optional[int] = None
        self._wake_w: Optional[int] = None
        self._stop = threading.Event()
        self._drain_deadline = 0.0
        self._thread: Optional[threading.Thread] = None
        #: set by :meth:`shutdown`; a closed pool never starts again
        self._closed = False
        #: workers in a row that exited before they were ready
        self._unready_deaths = 0
        #: why the pool stopped replacing workers; every queued and
        #: later submission fails with it
        self._gave_up: Optional[str] = None
        self.started_at: Optional[float] = None

        # -- counters (read by stats(), written by the pool thread) ----
        self.submitted = 0
        self.completed = 0
        self.retries = 0
        self.quarantined = 0
        self.cancelled = 0
        self.failed = 0
        #: scheduling passes that raised, and the last one's traceback
        self.loop_errors = 0
        self.last_loop_error: Optional[str] = None
        self.worker_cache_hits = 0
        self.events_total = 0
        self.busy_seconds = 0.0
        self.workers_spawned = 0
        self.workers_crashed = 0
        self.workers_recycled = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn every worker now and start the scheduling thread."""
        if self._thread is not None or self._closed:
            raise RuntimeError("pool already started or shut down")
        self._stop.clear()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)  # a full pipe is a wake already
        self.started_at = time.monotonic()
        for _ in range(self.effective):
            self._workers.append(self._spawn())
        self._thread = threading.Thread(
            target=self._loop, name="worker-pool", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Drain in-flight tasks up to ``drain_seconds``, then terminate.

        Queued (never-started) submissions resolve as ``cancelled``;
        in-flight ones get the full deadline to finish and resolve
        normally.  Idempotent; returns once every worker is reaped.  The
        pool stays closed: later submissions resolve ``cancelled``.
        """
        self._closed = True
        if self._thread is None:
            return
        self._drain_deadline = time.monotonic() + max(0.0, self.drain_seconds)
        with self._lock:  # a submit() either queued already or sees it
            self._stop.set()
        self._wake()
        self._thread.join(timeout=self.drain_seconds + 10.0)
        if not self._thread.is_alive():
            with self._lock:
                os.close(self._wake_r)
                os.close(self._wake_w)
                self._wake_r = self._wake_w = None
        self._thread = None

    # -- submission API (any thread) -----------------------------------

    def submit(
        self,
        task: PlannedTask,
        on_done: Callable[[TaskOutcome], None],
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Submission:
        """Enqueue one task; returns immediately.

        ``on_done`` fires exactly once from the pool thread with the
        final :class:`TaskOutcome`; ``on_progress`` sees retry events
        first.  On a pool that is not running the task resolves
        ``cancelled`` at once.
        """
        submission = Submission(task=task, on_done=on_done,
                                on_progress=on_progress)
        with self._lock:
            running = self._thread is not None and not self._stop.is_set()
            if running:
                self.submitted += 1
                self._queue.append((submission, 1))
        if running:
            self._wake()
        else:
            self._resolve_cancelled(submission)
        return submission

    def run(
        self,
        tasks: Sequence[PlannedTask],
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, TaskOutcome]:
        """Submit every task, wait for all; returns key -> outcome in
        task order.  Starts the pool first if it was never started; on
        a pool already shut down every task resolves ``cancelled``.

        On the main thread, SIGINT and SIGTERM are handled gracefully
        while the call lasts: the pool shuts down (in-flight tasks
        drain for up to ``drain_seconds``, never-started ones resolve
        ``cancelled``) and :class:`PoolInterrupted` carries the
        outcomes out — Ctrl-C never orphans a spawn process.
        """
        if not tasks:
            return {}
        if self._thread is None and not self._closed:
            self.start()
        outcomes: Dict[str, TaskOutcome] = {}
        done = threading.Event()
        remaining = [len(tasks)]
        lock = threading.Lock()

        def finish(outcome: TaskOutcome) -> None:
            with lock:
                outcomes[outcome.key] = outcome
                remaining[0] -= 1
                if remaining[0] <= 0:
                    done.set()

        interrupted: List[int] = []
        restore = _install_signal_handlers(
            lambda signum, frame: interrupted.append(signum)
        )
        try:
            for task in tasks:
                self.submit(task, on_done=finish, on_progress=progress)
            # a bounded wait, so a signal handler's flag is seen promptly
            while not done.wait(0.25) and not interrupted:
                pass
            if interrupted:
                self.shutdown()
        finally:
            for signum, handler in restore:
                signal.signal(signum, handler)
        ordered = {t.key: outcomes[t.key] for t in tasks if t.key in outcomes}
        if interrupted:
            raise PoolInterrupted(interrupted[0], ordered)
        return ordered

    def cancel(self, submission: Submission) -> None:
        """Best-effort cancel: a queued task never starts; an in-flight
        task's worker is killed (the reap path sees the cancel flag and
        resolves ``cancelled`` instead of retrying)."""
        with self._lock:  # no task is assigned while the lock is held
            submission.cancelled = True
            for worker in self._workers:
                if worker.busy is not None and worker.busy[0] is submission:
                    worker.proc.terminate()
        self._wake()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            alive = sum(1 for w in self._workers if w.proc.is_alive())
            ready = sum(1 for w in self._workers
                        if w.ready and w.proc.is_alive())
            queued = len(self._queue) + len(self._delayed)
            inflight = sum(1 for w in self._workers if w.busy is not None)
        busy = self.busy_seconds
        return dict(
            requested_jobs=self.jobs,
            effective_jobs=self.effective,
            workers_alive=alive,
            #: alive and done importing: what assignment waits for
            workers_ready=ready,
            workers_spawned=self.workers_spawned,
            workers_crashed=self.workers_crashed,
            workers_recycled=self.workers_recycled,
            recycle_after=self.recycle_after,
            queued=queued,
            inflight=inflight,
            submitted=self.submitted,
            completed=self.completed,
            retries=self.retries,
            quarantined=self.quarantined,
            cancelled=self.cancelled,
            failed=self.failed,
            loop_errors=self.loop_errors,
            worker_cache_hits=self.worker_cache_hits,
            events_total=self.events_total,
            busy_seconds=round(busy, 3),
            events_per_second_resident=round(self.events_total / busy, 1)
            if busy > 0 else 0.0,
            uptime_seconds=round(time.monotonic() - self.started_at, 3)
            if self.started_at is not None else 0.0,
        )

    # -- pool thread ---------------------------------------------------

    def _loop(self) -> None:
        while True:
            try:
                if self._pass():
                    return
            except Exception:
                # Every later submission waits on this thread: a pass
                # that raises must not end it.
                self._contain(traceback.format_exc())

    def _pass(self) -> bool:
        """One scheduling pass; True once a drain has finished."""
        draining = self._stop.is_set()
        now = time.monotonic()
        with self._lock:
            if not draining:
                for entry in [d for d in self._delayed if d[0] <= now]:
                    self._delayed.remove(entry)
                    self._queue.append((entry[1], entry[2]))
        self._reap_dead()
        if draining:
            if self._finish_draining():
                return True
        elif self._gave_up is not None:
            for submission in self._take_queued():
                self._resolve_failed(submission, self._gave_up)
        else:
            self._assign()
            self._recycle_idle()
        self._wait(timeout=0.05 if self._delayed else 1.0)
        return False

    def _take_queued(self) -> List[Submission]:
        """Empty the queue and the retry list; returns their submissions."""
        with self._lock:
            taken = [s for s, _ in self._queue]
            taken += [s for _, s, _ in self._delayed]
            self._queue.clear()
            self._delayed.clear()
        return taken

    def _contain(self, error: str) -> None:
        """Record a pass's traceback and fail the submissions it choked on.

        A pass reads a queued task only to pickle it for a worker, so the
        culprits are the queued submissions that do not pickle: they
        resolve ``failed`` with the traceback, and the next pass serves
        the rest.
        """
        self.loop_errors += 1
        self.last_loop_error = error
        bad = []
        with self._lock:
            queued = list(self._queue)
            self._queue.clear()
            for entry in queued:
                if _shippable(entry[0].task):
                    self._queue.append(entry)
                else:
                    bad.append(entry[0])
        for submission in bad:
            self._resolve_failed(submission, error)
        if not bad:
            time.sleep(0.05)  # nothing to drop: do not spin on the error

    def _wake(self) -> None:
        with self._lock:
            if self._wake_w is None:
                return
            try:
                os.write(self._wake_w, b"x")
            except OSError:
                pass

    def _wait(self, timeout: float) -> None:
        with self._lock:
            channels = {w.conn: w for w in self._workers}
            sentinels = [w.proc.sentinel for w in self._workers]
        ready = connection.wait(
            list(channels) + sentinels + [self._wake_r], timeout=timeout
        )
        for obj in ready:
            if obj == self._wake_r:
                os.read(self._wake_r, 4096)
                continue
            worker = channels.get(obj)
            if worker is None:
                continue  # a sentinel: the next _reap_dead pass handles it
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                continue  # died mid-send; reap path attributes it
            self._on_message(worker, message)

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.cache_dir),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(ident=self._next_worker_id, proc=proc, conn=parent_conn)
        self._next_worker_id += 1
        self.workers_spawned += 1
        return worker

    def _stop_workers(self, workers: List[_Worker]) -> None:
        """Ask idle workers to exit and terminate busy ones, all at
        once; then reap each, terminating any that will not exit."""
        for worker in workers:
            if worker.busy is not None:
                worker.proc.terminate()
                continue
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            worker.conn.close()

    def _assign(self) -> None:
        dropped: List[Submission] = []
        try:
            self._assign_locked(dropped)
        finally:
            # Resolve cancelled-before-start submissions outside the
            # lock: on_done callbacks may re-enter submit().
            for submission in dropped:
                self._resolve_cancelled(submission)

    def _assign_locked(self, dropped: List[Submission]) -> None:
        with self._lock:
            for worker in self._workers:
                if not self._queue:
                    return
                if worker.busy is not None or not worker.ready \
                        or not worker.proc.is_alive():
                    continue
                while self._queue and self._queue[0][0].cancelled:
                    dropped.append(self._queue.popleft()[0])
                if not self._queue:
                    return
                submission, attempt = self._queue[0]
                try:
                    worker.conn.send((submission.task, attempt))
                except (BrokenPipeError, OSError):
                    continue  # reap path replaces this worker
                worker.busy = self._queue.popleft()

    def _on_message(self, worker: _Worker, message) -> None:
        if message[0] == "ready":
            worker.ready = True
            self._unready_deaths = 0
            self._assign()
            return
        status, result, seconds, cache_hit, events, err, prefix = message
        submission, attempt = worker.busy
        worker.busy = None
        worker.tasks_done += 1
        self.events_total += events
        self.busy_seconds += seconds
        outcome = submission.outcome
        outcome.attempts = attempt
        outcome.seconds += seconds
        if status == "ok":
            outcome.status = "ok"
            outcome.result = result
            outcome.cache_hit = cache_hit
            outcome.prefix = prefix
            outcome.error = None
            if cache_hit:
                self.worker_cache_hits += 1
            self._resolve(submission, worker)
            return
        outcome.error = err
        self._retry_or_quarantine(submission, attempt, worker)

    def _reap_dead(self) -> None:
        with self._lock:
            dead = [w for w in self._workers if not w.proc.is_alive()]
        for worker in dead:
            # An answer (or the ready line) already in the pipe counts.
            try:
                if worker.conn.poll():
                    self._on_message(worker, worker.conn.recv())
            except (EOFError, OSError):
                pass
            with self._lock:
                self._workers.remove(worker)
            worker.conn.close()
            worker.proc.join(timeout=1.0)
            entry, worker.busy = worker.busy, None
            # cancel() kills a worker on purpose: counted as cancelled
            if entry is None or not entry[0].cancelled:
                self.workers_crashed += 1
            if entry is not None:
                submission, attempt = entry
                if submission.cancelled:
                    self._resolve_cancelled(submission)
                else:
                    submission.outcome.attempts = attempt
                    submission.outcome.error = (
                        f"worker {worker.ident} died (exit code "
                        f"{worker.proc.exitcode}) while running "
                        f"{submission.task.label()}"
                    )
                    self._retry_or_quarantine(submission, attempt, worker)
            if not worker.ready:
                self._unready_deaths += 1
            if self._stop.is_set() or self._gave_up is not None:
                continue
            if self._unready_deaths >= self.max_attempts:
                self._gave_up = (
                    f"worker pool gave up: {self._unready_deaths} workers "
                    f"in a row exited before they were ready (last exit "
                    f"code {worker.proc.exitcode})"
                )
                continue
            with self._lock:
                self._workers.append(self._spawn())

    def _recycle_idle(self) -> None:
        with self._lock:
            tired = [
                w for w in self._workers
                if w.busy is None and w.ready
                and w.tasks_done >= self.recycle_after
            ]
            for worker in tired:
                self._workers.remove(worker)
        if not tired:
            return
        self._stop_workers(tired)
        self.workers_recycled += len(tired)
        with self._lock:
            self._workers.extend(self._spawn() for _ in tired)

    def _retry_or_quarantine(self, submission, attempt, worker) -> None:
        if submission.cancelled:
            self._resolve_cancelled(submission)
            return
        outcome = submission.outcome
        if attempt >= self.max_attempts:
            outcome.status = "quarantined"
            self.quarantined += 1
            self._resolve(submission, worker)
            return
        self.retries += 1
        backoff = min(self.backoff_base * (2 ** (attempt - 1)), BACKOFF_CAP)
        with self._lock:
            self._delayed.append(
                (time.monotonic() + backoff, submission, attempt + 1)
            )
        self._emit(submission, worker, "retrying", backoff)

    def _emit(self, submission, worker, status: str, backoff: float = 0.0):
        if submission.on_progress is None:
            return
        outcome = submission.outcome
        submission.on_progress(
            dict(
                key=outcome.key, label=outcome.label,
                experiments=outcome.experiments, status=status,
                attempts=outcome.attempts, seconds=outcome.seconds,
                cache_hit=outcome.cache_hit, worker=worker.ident,
                backoff=backoff, error=outcome.error,
            )
        )

    def _resolve(self, submission: Submission, worker) -> None:
        outcome = submission.outcome
        if outcome.status == "ok":
            self.completed += 1
        self._emit(submission, worker, outcome.status)
        submission.resolved = True
        submission.on_done(outcome)

    def _resolve_failed(self, submission: Submission, error: str) -> None:
        submission.outcome.status = "failed"
        submission.outcome.error = error
        submission.resolved = True
        self.failed += 1
        submission.on_done(submission.outcome)

    def _resolve_cancelled(self, submission: Submission) -> None:
        if submission.resolved:
            return
        submission.outcome.status = "cancelled"
        submission.outcome.error = "cancelled"
        submission.resolved = True
        self.cancelled += 1
        submission.on_done(submission.outcome)

    # -- drain ---------------------------------------------------------

    def _finish_draining(self) -> bool:
        """One drain step; True once every worker is gone."""
        for submission in self._take_queued():
            self._resolve_cancelled(submission)
        busy = [w for w in self._workers if w.busy is not None]
        if busy and time.monotonic() < self._drain_deadline:
            return False  # keep waiting for in-flight answers
        # Deadline passed (or nothing in flight): tear everything down.
        self._stop_workers(self._workers)
        for worker in busy:
            self._resolve_cancelled(worker.busy[0])
            worker.busy = None
        with self._lock:
            self._workers.clear()
        return True
