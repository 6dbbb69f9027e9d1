"""Network building blocks: bandwidth pipes and node-to-node transfers.

The central performance abstraction is :class:`BandwidthPipe`, a FIFO
link of fixed rate.  A transfer holds the pipe for ``nbytes / rate``
simulated seconds, so concurrent transfers through one endpoint
serialize — exactly the effect behind the paper's N-to-1 findings
(Findings 1 and 3): when every simulation processor must stage into the
*same* server, all transfers queue on that server's injection pipe.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..sim import Environment, Resource
from ..sim.engine import _TICK_SCALE
from ..sim.events import Event


def _accumulate_runs(total: float, busy: float, rate: float, runs) -> tuple:
    """Fold run-length chunks into the (total, busy) accumulators.

    One float addition per chunk, in order — the reference semantics
    every burst path must match bit for bit.  Long runs switch to
    ``np.add.accumulate``, which performs the *same* left-to-right
    double-precision additions at C speed (verified bit-identical).
    Returns ``(total, busy, moved)``; the byte count is integer-exact,
    so it folds with one multiply-add per run.
    """
    moved = 0
    for nbytes, count in runs:
        duration = nbytes / rate
        if count < 64:
            for _ in range(count):
                total += duration
                busy += duration
        else:
            arr = np.empty(count + 1)
            arr[0] = total
            arr[1:] = duration
            np.add.accumulate(arr, out=arr)
            total = float(arr[count])
            arr[0] = busy
            arr[1:] = duration
            np.add.accumulate(arr, out=arr)
            busy = float(arr[count])
        moved += nbytes * count
    return total, busy, moved


class BandwidthPipe:
    """A FIFO link with a fixed data rate (bytes/second)."""

    def __init__(self, env: Environment, rate: float, name: str = "") -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.env = env
        self.rate = float(rate)
        self.name = name
        self._res = Resource(env, capacity=1)
        self.bytes_moved = 0.0
        self.busy_time = 0.0
        self._nominal_rate = self.rate
        self._chain_tail: Optional[Event] = None
        self._chain_pending = 0
        self._chain_end_tick = 0
        #: completion tick of the last :meth:`enqueue_runs` burst
        self._chain_done_tick = 0
        self._rate_frozen = False

    def freeze_rate(self) -> None:
        """Promise the rate never changes for the rest of the run.

        Unlocks the arithmetic chain form of :meth:`transmit` — the FIFO
        queue collapses into the chain's end tick — and :meth:`degrade`
        refuses afterwards.
        The driver freezes every pipe the run's
        :class:`~repro.chaos.faults.FaultPlan` cannot degrade — all of
        them on a clean run (see
        :meth:`~repro.hpc.cluster.Cluster.freeze_rates`): a fault plan
        is the only mechanism that can change a rate mid-run.
        """
        self._rate_frozen = True

    def degrade(self, factor: float) -> None:
        """Cut the pipe's rate by ``factor`` (chaos: transport fault).

        Only transfers *granted* after this call see the new rate; an
        in-flight transfer already computed its duration, which keeps
        degradation deterministic regardless of event interleaving.
        """
        if factor <= 0:
            raise ValueError(f"degrade factor must be positive, got {factor}")
        if self._rate_frozen:
            raise RuntimeError(f"pipe {self.name!r} rate is frozen")
        self.rate = self._nominal_rate / factor

    def restore(self) -> None:
        """Undo :meth:`degrade`."""
        self.rate = self._nominal_rate

    def steady_state(self) -> tuple:
        """Occupancy + waiters — the pipe's boundary fingerprint.

        The arithmetic chain's state is its end *tick* relative to now —
        a plain integer subtraction, trivially exact and
        translation-invariant.
        """
        rel_end = self._chain_end_tick - self.env._now_tick
        if rel_end < 0:
            rel_end = 0
        return self._res.steady_state() + (self._chain_pending, rel_end)

    @property
    def queue_length(self) -> int:
        """Transfers currently waiting for the pipe."""
        return self._res.queue_length

    def transfer_time(self, nbytes: float) -> float:
        """Pure serialization time for ``nbytes`` (no queueing)."""
        return nbytes / self.rate

    def transmit(self, nbytes: float, tail_ticks: int = 0) -> Generator:
        """Process: occupy the pipe for ``nbytes`` worth of time.

        With the rate frozen the FIFO queue collapses into one integer
        (the chain's end tick, see :meth:`_claim`) and the transfer is a
        single completion event in place of the request, grant and
        timeout machinery.

        ``tail_ticks`` folds a fixed post-transfer latency (e.g. a
        completion RPC the caller would otherwise sleep on separately)
        into the completion event: the pipe is released at the transfer
        end exactly as before — only the caller's wake-up moves — so a
        queued next transfer still starts on time.
        """
        env = self.env
        if self._rate_frozen:
            yield env.timeout_at_tick(self._claim(nbytes) + tail_ticks)
            return
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        with self._res.request() as req:
            yield req
            duration = self.transfer_time(nbytes)
            yield self.env.pause(duration)
            self.bytes_moved += nbytes
            self.busy_time += duration
        if tail_ticks:
            # After the with-block: the pipe slot is already released,
            # so the trailing sleep delays only this caller.
            yield env.timeout_at_tick(env._now_tick + tail_ticks)

    def _claim(self, nbytes: float) -> int:
        """Claim the frozen chain's next slot now; its end tick.

        The caller's grant instant is forced — ``max(chain end, now)``
        — and its duration is grant-invariant, so claiming the slot
        arithmetically at call time reproduces the request/grant path's
        completion tick and stats additions (FIFO claim order *is* call
        order).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        duration = nbytes / self.rate
        self.bytes_moved += nbytes
        self.busy_time += duration
        env = self.env
        start = self._chain_end_tick
        log = env._steady_log
        if log is not None:
            log += (self, env._now_tick, start)
        if start < env._now_tick:
            start = env._now_tick
        end = start + round(duration * _TICK_SCALE)
        self._chain_end_tick = end
        return end

    def enqueue_runs(self, runs) -> Event:
        """FIFO-queue a burst of run-length chunks; its completion event.

        ``runs`` is ``[(nbytes, count), ...]``.  Timing- and
        stats-identical to a process transmitting the expanded chunk
        list through the pipe's FIFO: the burst starts when every
        earlier burst has completed, holds the pipe for the chunk-wise
        accumulated duration, and each stats accumulator still receives
        one addition *per chunk* in the same order — repeated float
        addition has no closed form, and bit-identity with the
        piece-by-piece path is the point.  What this drops is the
        process/request/grant machinery: one completion event per burst
        instead of a process kick-off, a grant, a timeout and a process
        termination.

        Bursts queued here form their own FIFO chain; do not mix with
        :meth:`transmit` on the same pipe.  The rate is read when the
        burst *starts* (matching the grant-time read of the process
        path), so :meth:`degrade` only affects bursts granted
        afterwards.
        """
        env = self.env
        done = Event(env)
        self._chain_pending += 1
        queued_tick = env._now_tick

        def _complete(_ev: Event) -> None:
            self._chain_pending -= 1
            self._chain_done_tick = env._now_tick

        done.callbacks.append(_complete)

        def _start(_ev: Event = None) -> None:
            log = env._steady_log
            if log is not None:
                # the burst waits for the previous one's completion
                log += (self, queued_tick, self._chain_done_tick
                        if _ev is None else env._now_tick)
            total, busy, moved = _accumulate_runs(
                0.0, self.busy_time, self.rate, runs
            )
            self.bytes_moved += moved
            self.busy_time = busy
            done._ok = True
            done._value = None
            env.schedule(done, total)

        prev = self._chain_tail
        self._chain_tail = done
        if prev is None or prev.processed:
            _start()
        else:
            prev.callbacks.append(_start)
        return done


class Link:
    """A point-to-point transfer path between two NIC pipes.

    Data crosses the sender's injection pipe and the receiver's
    injection pipe; the two pipes are held one after the other (store
    and forward at message granularity), plus a one-way latency.  A
    software ``overhead_factor`` models extra per-byte cost, e.g. the
    memory copies across the TCP stack (Finding 4).
    """

    def __init__(
        self,
        env: Environment,
        src: BandwidthPipe,
        dst: BandwidthPipe,
        latency: float,
        overhead_factor: float = 1.0,
    ) -> None:
        if overhead_factor < 1.0:
            raise ValueError("overhead_factor must be >= 1.0")
        self.env = env
        self.src = src
        self.dst = dst
        self.latency = latency
        self._latency_ticks = round(latency * _TICK_SCALE)
        self.overhead_factor = overhead_factor

    def send(self, nbytes: float, tail_ticks: int = 0,
             head_ticks: int = 0) -> Generator:
        """Process: move ``nbytes`` from src to dst.

        ``head_ticks`` is a fixed latency ahead of the transfer, e.g. a
        transport's per-operation software latency
        (:meth:`~repro.transport.base.Transport.move`): the caller sleeps
        it before the wire latency and the first pipe crossing, as if it
        had slept it itself.  ``tail_ticks`` rides on the *last* pipe
        crossing (see :meth:`BandwidthPipe.transmit`): pipe hold times
        and release instants are unchanged; only the sender's wake-up is
        delayed.

        A link whose two NIC pipes are frozen is tick arithmetic and
        spawns no process: one timeout covers head and wire latency, each
        chain is claimed inline, and two zero-delay hops — one before the
        destination claim, one before the caller resumes — keep the claims
        and the wake-up in the same-tick order the wrapped-process form
        gives them (``docs/ARCHITECTURE.md``, "The DES fast path").  A
        hop is taken only while another event is due at the current
        tick.  A pipe a fault may degrade keeps the wrapped form.
        """
        env = self.env
        src, dst = self.src, self.dst
        effective = nbytes * self.overhead_factor
        if src is not dst and src._rate_frozen and dst._rate_frozen:
            yield env.timeout_at_tick(
                env._now_tick + head_ticks + self._latency_ticks)
            yield env.timeout_at_tick(src._claim(effective))
            # A hop only matters while another event is due at this tick:
            # with none, the hop's event would run next anyway.
            if env.peek() == env._now:
                yield env.pause(0.0)
            yield env.timeout_at_tick(dst._claim(effective) + tail_ticks)
            if env.peek() == env._now:
                yield env.pause(0.0)
            return
        if head_ticks:
            yield env.timeout_at_tick(env._now_tick + head_ticks)
        if src is dst:
            # Intra-node: only one pipe crossing (a local memory copy).
            yield from src.transmit(effective, tail_ticks)
            return
        yield env.pause(self.latency)
        yield env.process(src.transmit(effective))
        yield env.process(dst.transmit(effective, tail_ticks))
