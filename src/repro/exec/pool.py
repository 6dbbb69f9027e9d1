"""The spawn worker pool every parallel path runs on.

Each worker is a fresh ``spawn`` interpreter: it imports :mod:`repro`
from scratch, so the machine/workflow registries (whose singleton
identity gates the run cache) are rebuilt per worker, and no simulator
state leaks between the parent and its children.  Tasks travel as
canonical ``run_coupled`` kwargs (machines and workflows by name);
results come back as library-stripped :class:`RunResult` objects.

* :meth:`WorkerPool.start` spawns every worker; each pre-imports the
  whole simulator before it signals ready, so the interpreter + import
  cost is paid once, not on the first task.  ``execute_parallel``
  starts one pool for all its planning rounds and shuts it down after;
  the serve daemon starts one and keeps it until it stops.
* The scheduling loop runs on a dedicated thread.  :meth:`submit` is
  thread-safe and returns at once (completion and progress arrive via
  callbacks); :meth:`run` is the blocking submit-all, wait-for-all form.
* Long tasks ship one at a time; *short* tasks (estimated cost below
  :data:`BATCH_COST_THRESHOLD`, from the planned variable's byte size)
  ship in batches of up to ``batch_max`` per round-trip, so the
  parent<->worker hand-off latency stops dominating plans full of cheap
  points.  Workers answer one message per task in batch order, so crash
  attribution stays exact: when a worker dies, the batch's first
  unanswered task crashed with it and the never-started remainder goes
  back to the queue without an attempt charged.
* Crashed (or exception-raising) tasks are retried with bounded
  exponential backoff on a replacement worker; a task that keeps
  failing is **quarantined** — recorded and skipped — instead of
  killing the campaign.
* A worker that has completed ``recycle_after`` tasks is retired at its
  next idle moment and replaced fresh, bounding any slow leak a
  long-lived simulator process could accumulate; a crashed worker is
  replaced on reap, so the pool never shrinks below its target.
* Concurrent submissions of one run-cache key **single-flight**
  (:class:`~repro.exec.flight.SingleFlight`): one leader simulates,
  followers receive the same outcome object.
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
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence

from .flight import SingleFlight
from .plan import PlannedTask

#: exit code of a deliberately crashed (poison-marker) worker
_CRASH_EXIT = 13

#: a task whose ``variable_nbytes * steps`` estimate falls below this
#: ships batched with its queue neighbours (the pool's round-trip
#: overhead is fixed per message, so cheap simulations amortize it)
BATCH_COST_THRESHOLD = float(10 * (1 << 30))

#: upper bound on tasks per batch, so one worker never hoards the tail
#: of the queue while others idle
BATCH_MAX = 8

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


def _task_cost(task: PlannedTask) -> float:
    """Estimated simulation cost: staged bytes over the whole run.

    The planned spec carries the resolved variable (the weak-scaled
    default already grows with ``nsim``), so its byte size times the
    step count tracks how much data the simulated run moves — the best
    single predictor of its wall time.  Specs without a variable
    (compute-only baselines) are the cheapest points there are.
    """
    variable = task.spec.get("variable")
    nbytes = getattr(variable, "nbytes", 0) or 0
    return float(nbytes) * task.spec.get("steps", 1)


@dataclass
class TaskOutcome:
    """What happened to one planned task across all its attempts."""

    key: str
    label: str
    experiments: List[str]
    status: str = "pending"  # -> "ok" | "quarantined" | "cancelled"
    attempts: int = 0
    #: simulation seconds summed over attempts that reported back
    seconds: float = 0.0
    #: True when the worker answered from the shared disk cache
    cache_hit: bool = False
    result: Optional[Any] = None
    #: last error (traceback text or crash description)
    error: Optional[str] = None

    @property
    def retried(self) -> bool:
        return self.attempts > 1


def _execute_spec(spec: Dict[str, Any], attempt: int):
    """Run one task payload inside a worker.

    Test hooks: a ``"__crash__"`` marker in the spec kills the worker
    process outright — ``True`` on every attempt (a poison task),
    an integer N on attempts <= N (crash then recover) — exercising
    the retry and quarantine paths with real process deaths; a
    ``"__sleep__"`` marker stalls the worker for that many wall
    seconds first, pinning a task in flight for the drain tests.
    """
    spec = dict(spec)
    crash = spec.pop("__crash__", None)
    if crash is True or (isinstance(crash, int) and attempt <= crash):
        os._exit(_CRASH_EXIT)
    nap = spec.pop("__sleep__", 0)
    if nap:
        time.sleep(nap)

    from ..core import runcache
    from ..workflows import run_coupled

    hits_before = runcache.CACHE.hits
    result = run_coupled(**spec)
    cache_hit = runcache.CACHE.hits > hits_before
    # Live simulator state neither pickles nor ships.  Stripping the
    # cached object itself also frees it here: a resident worker's run
    # cache would otherwise keep every simulation it ever ran alive.
    result.library = None
    return result, cache_hit


def _worker_main(conn, cache_dir: Optional[str]) -> None:
    """Worker loop: receive a batch of (task_id, spec, attempt) entries.

    Everything heavy imports *before* the ``("ready",)`` message, so the
    parent only assigns work to a worker that answers at simulation
    speed.  One outcome message goes back per entry, in batch order —
    the parent relies on that order for crash attribution — carrying
    the number of discrete events its simulation processed.
    """
    from ..core import runcache
    from ..sim.engine import Environment
    from ..workflows import run_coupled  # noqa: F401  (pre-import = warm-up)

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
            batch = conn.recv()
        except EOFError:
            return
        if batch is None:
            return
        for task_id, spec, attempt in batch:
            start = time.perf_counter()
            before = counted["events"]
            try:
                result, cache_hit = _execute_spec(spec, attempt)
                error = None
            except Exception:
                result, cache_hit, error = None, False, traceback.format_exc()
            conn.send(
                ("ok" if error is None else "error", task_id, result,
                 time.perf_counter() - start, cache_hit,
                 counted["events"] - before, error)
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
    #: where the batches that ship this task record their size
    batch_log: Optional[List[int]] = None
    outcome: TaskOutcome = field(init=False)
    cancelled: bool = field(default=False)
    #: True once on_done fired (ok / quarantined / cancelled)
    resolved: bool = field(default=False)
    #: set while a worker is simulating it (cancel then kills the worker)
    worker: Optional["_Worker"] = field(default=None, repr=False)

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
    #: [(submission, attempt), ...] in ship order, or None when idle;
    #: the worker answers them front to back
    busy: Optional[List[tuple]] = None
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
        batch_max: int = BATCH_MAX,
        drain_seconds: float = 10.0,
    ) -> None:
        self.jobs = jobs
        self.effective = effective_jobs(jobs)
        self.cache_dir = cache_dir
        #: total tries per task before quarantine
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.recycle_after = recycle_after
        self.batch_max = batch_max
        #: how long :meth:`shutdown` (and a signal inside :meth:`run`)
        #: waits for in-flight tasks before terminating their workers
        self.drain_seconds = drain_seconds
        #: size of every batch the latest :meth:`run` call shipped (its
        #: own tasks only: batches never mix submitters' tasks)
        self.batch_sizes: List[int] = []
        self.flight = SingleFlight()

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
        self.started_at: Optional[float] = None

        # -- counters (read by stats(), written by the pool thread) ----
        self.submitted = 0
        self.completed = 0
        self.retries = 0
        self.quarantined = 0
        self.cancelled = 0
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
        batch_log: Optional[List[int]] = None,
    ) -> Submission:
        """Enqueue one task; returns immediately.

        ``on_done`` fires exactly once from the pool thread with the
        final :class:`TaskOutcome`; ``on_progress`` sees retry events
        first.  A task whose run-cache key is already in flight
        coalesces onto the leader (no new simulation) and ``on_done``
        fires with the leader's outcome.  Every batch that ships this
        task appends its size to ``batch_log``.  On a pool that is not
        running the task resolves ``cancelled`` at once.
        """
        submission = Submission(task=task, on_done=on_done,
                                on_progress=on_progress, batch_log=batch_log)
        with self._lock:
            running = self._thread is not None and not self._stop.is_set()
            if running:
                self.submitted += 1
                if not self.flight.begin(
                    task.key,
                    follower=lambda outcome: self._follow(submission, outcome),
                ):
                    return submission  # follower: resolved when the leader settles
                self._queue.append((submission, 1))
        if not running:
            # never claimed the flight key: an in-flight leader keeps it
            self._resolve_cancelled(submission, leader=False)
            return submission
        self._wake()
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

        self.batch_sizes = batch_log = []
        interrupted: List[int] = []
        restore = _install_signal_handlers(
            lambda signum, frame: interrupted.append(signum)
        )
        try:
            for task in tasks:
                self.submit(task, on_done=finish, on_progress=progress,
                            batch_log=batch_log)
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
        with self._lock:
            submission.cancelled = True
            worker = submission.worker
        if worker is not None and worker.proc.is_alive():
            worker.proc.terminate()
        self._wake()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            alive = sum(1 for w in self._workers if w.proc.is_alive())
            queued = len(self._queue) + len(self._delayed)
            inflight = sum(len(w.busy or ()) for w in self._workers)
        busy = self.busy_seconds
        return dict(
            requested_jobs=self.jobs,
            effective_jobs=self.effective,
            workers_alive=alive,
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
            worker_cache_hits=self.worker_cache_hits,
            events_total=self.events_total,
            busy_seconds=round(busy, 3),
            events_per_second_resident=round(self.events_total / busy, 1)
            if busy > 0 else 0.0,
            singleflight=self.flight.stats(),
            uptime_seconds=round(time.monotonic() - self.started_at, 3)
            if self.started_at is not None else 0.0,
        )

    # -- pool thread ---------------------------------------------------

    def _loop(self) -> None:
        while True:
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
                    return
            else:
                self._assign()
                self._recycle_idle()
            self._wait(timeout=0.05 if self._delayed else 1.0)

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
                # A long task ships alone; consecutive short tasks of
                # one submitter ship together (the plan is sorted
                # big-first, so the cheap tail batches naturally).
                batch = [self._queue[0]]
                log = batch[0][0].batch_log
                if _task_cost(batch[0][0].task) < BATCH_COST_THRESHOLD:
                    for entry in list(self._queue)[1:self.batch_max]:
                        if entry[0].cancelled or entry[0].batch_log is not log \
                                or _task_cost(entry[0].task) >= BATCH_COST_THRESHOLD:
                            break
                        batch.append(entry)
                try:
                    worker.conn.send(
                        [(s.task.key, s.task.spec, a) for s, a in batch]
                    )
                except (BrokenPipeError, OSError):
                    continue  # reap path replaces this worker
                for _ in batch:
                    self._queue.popleft()
                worker.busy = list(batch)
                if log is not None:
                    log.append(len(batch))
                for submission, _ in batch:
                    submission.worker = worker

    def _on_message(self, worker: _Worker, message) -> None:
        if message[0] == "ready":
            worker.ready = True
            self._assign()
            return
        status, task_id, result, seconds, cache_hit, events, err = message
        if worker.busy is None:
            return  # stale line from a worker already reaped
        # The worker answers its batch front to back; tolerate gaps
        # defensively by matching on the task id.
        index = next(
            (i for i, (s, _) in enumerate(worker.busy)
             if s.task.key == task_id), 0
        )
        submission, attempt = worker.busy.pop(index)
        if not worker.busy:
            worker.busy = None
        submission.worker = None
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
            # Drain answers already in the pipe — tasks that did finish.
            try:
                while worker.busy is not None and worker.conn.poll():
                    self._on_message(worker, worker.conn.recv())
            except (EOFError, OSError):
                pass
            with self._lock:
                if worker in self._workers:
                    self._workers.remove(worker)
            worker.conn.close()
            worker.proc.join(timeout=1.0)
            busy = worker.busy or []
            worker.busy = None
            # cancel() kills a worker on purpose: counted as cancelled
            if not any(s.cancelled for s, _ in busy):
                self.workers_crashed += 1
            if busy:
                # The first unanswered task crashed with the worker; the
                # rest never started and re-queue with no attempt charged.
                (submission, attempt), rest = busy[0], busy[1:]
                submission.worker = None
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
                with self._lock:
                    for entry in reversed(rest):
                        entry[0].worker = None
                        self._queue.appendleft(entry)
            if not self._stop.is_set():
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
        self.flight.settle(submission.task.key, outcome)
        submission.on_done(outcome)

    def _follow(self, submission: Submission, outcome: TaskOutcome) -> None:
        """A leader settled; deliver its outcome to this follower."""
        submission.outcome = outcome
        submission.resolved = True
        submission.on_done(outcome)

    def _resolve_cancelled(self, submission: Submission, leader: bool = True) -> None:
        if submission.resolved:
            return
        submission.outcome.status = "cancelled"
        submission.outcome.error = "cancelled"
        submission.resolved = True
        self.cancelled += 1
        if leader:
            self.flight.settle(submission.task.key, submission.outcome)
        submission.on_done(submission.outcome)

    # -- drain ---------------------------------------------------------

    def _finish_draining(self) -> bool:
        """One drain step; True once every worker is gone."""
        with self._lock:
            queued = list(self._queue) + [
                (s, a) for (_, s, a) in self._delayed
            ]
            self._queue.clear()
            self._delayed.clear()
        for submission, _ in queued:
            self._resolve_cancelled(submission)
        busy = [w for w in self._workers if w.busy is not None]
        if busy and time.monotonic() < self._drain_deadline:
            return False  # keep waiting for in-flight answers
        # Deadline passed (or nothing in flight): tear everything down.
        self._stop_workers(self._workers)
        for worker in busy:
            for submission, _ in worker.busy:
                submission.worker = None
                self._resolve_cancelled(submission)
            worker.busy = None
        with self._lock:
            self._workers.clear()
        return True
