"""Lustre parallel filesystem model (the MPI-IO baseline substrate).

Two effects dominate the paper's MPI-IO results (Figure 2):

* **fixed OST bandwidth** — "there are only a fixed amount of Lustre
  storage targets available", so aggregate write bandwidth does not
  scale with the processor count and end-to-end time grows linearly;
* **metadata service serialization** — "a very limited amount of Lustre
  metadata servers are deployed, with four on Titan and one on Cori".

We model the OST pool as a set of :class:`BandwidthPipe` objects and the
MDS as a small :class:`Resource` through which every file open/create
must pass.
"""

from __future__ import annotations

from typing import Generator, List

import numpy as np

from ..sim import Environment, Resource
from ..sim.engine import _TICK_SCALE
from .machines import LustreSpec
from .network import BandwidthPipe


class LustreFile:
    """A striped file handle."""

    __slots__ = ("fs", "path", "stripe_count", "stripe_size", "first_ost")

    def __init__(
        self,
        fs: "LustreFilesystem",
        path: str,
        stripe_count: int,
        stripe_size: int,
        first_ost: int,
    ) -> None:
        self.fs = fs
        self.path = path
        self.stripe_count = stripe_count
        self.stripe_size = stripe_size
        self.first_ost = first_ost


class LustreFilesystem:
    """A shared Lustre instance for one machine."""

    def __init__(self, env: Environment, spec: LustreSpec) -> None:
        self.env = env
        self.spec = spec
        per_ost_bw = spec.peak_bandwidth / spec.num_osts
        self._osts: List[BandwidthPipe] = [
            BandwidthPipe(env, per_ost_bw, name=f"ost{i}")
            for i in range(spec.num_osts)
        ]
        self._mds = Resource(env, capacity=spec.num_mds)
        self._next_ost = 0
        self._rates_frozen = False
        # Vectorized frozen-mode state (authoritative once frozen; the
        # per-pipe attributes go stale — see freeze_rates):
        self._chain_ticks = None  # np.int64[num_osts]: chain end ticks
        self._busy = None  # np.float64[num_osts]: busy_time mirror
        self._moved = None  # np.float64[num_osts]: bytes_moved mirror
        self._plan_memo: dict = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self.files_created = 0

    def freeze_rates(self) -> None:
        """Promise no OST is ever degraded: bursts become arithmetic.

        The driver calls this for every run without a fault plan — the
        OST pipes then resolve whole request bursts arithmetically,
        without creating any events (see :meth:`_transfer`).  While
        frozen, the pool's chain/stats state lives in numpy arrays (one
        entry per OST) so a request touching hundreds of OSTs updates
        them with a handful of array operations; the per-pipe
        attributes are stale until :meth:`sync_frozen_stats`.
        """
        if self._rates_frozen:
            return
        self._rates_frozen = True
        for ost in self._osts:
            ost.freeze_rate()
        self._chain_ticks = np.array(
            [ost._chain_end_tick for ost in self._osts], dtype=np.int64
        )
        self._busy = np.array([ost.busy_time for ost in self._osts])
        self._moved = np.array([float(ost.bytes_moved) for ost in self._osts])

    def sync_frozen_stats(self) -> None:
        """Copy the frozen-mode array state back onto the OST pipes."""
        if not self._rates_frozen:
            return
        for i, ost in enumerate(self._osts):
            ost.busy_time = float(self._busy[i])
            ost.bytes_moved = float(self._moved[i])
            ost._chain_end_tick = int(self._chain_ticks[i])

    def osts_steady_state(self) -> tuple:
        """Boundary fingerprint of the whole OST pool.

        Frozen pools read the vectorized chain state: the end ticks
        relative to now (an integer subtraction — trivially exact and
        translation-invariant) carry the pool's full dynamical state,
        since frozen pipes have no events, no waiters and no pending
        bursts.  Unfrozen pools fall back to the per-pipe fingerprint.
        """
        if self._rates_frozen:
            rel = self._chain_ticks - self.env._now_tick
            np.maximum(rel, 0, out=rel)
            return tuple(rel.tolist())
        return tuple(ost.steady_state() for ost in self._osts)

    def degrade_ost(self, index: int, factor: float) -> None:
        """Chaos: slow one OST down by ``factor`` (``inf`` = failed)."""
        self._osts[index % self.spec.num_osts].degrade(factor)

    def restore_osts(self) -> None:
        """Chaos: return every OST to its nominal rate."""
        for ost in self._osts:
            ost.restore()

    def open(self, path: str, stripe_count: int = -1, stripe_size: int = 1 << 20) -> Generator:
        """Process: create/open a file (one MDS metadata operation).

        ``stripe_count=-1`` stripes across all OSTs, matching the
        paper's ``lfs setstripe -stripe-count -1`` runtime setting.
        """
        if stripe_count == -1 or stripe_count > self.spec.num_osts:
            stripe_count = self.spec.num_osts
        if stripe_count <= 0:
            raise ValueError(f"invalid stripe_count {stripe_count}")
        with self._mds.request() as req:
            yield req
            yield self.env.pause(self.spec.mds_op_time)
        first_ost = self._next_ost
        self._next_ost = (self._next_ost + stripe_count) % self.spec.num_osts
        self.files_created += 1
        return LustreFile(self, path, stripe_count, stripe_size, first_ost)

    def _stripe_transfers(self, handle: LustreFile, offset: int, nbytes: int):
        """Split a contiguous request into per-OST runs of pieces.

        Returns ``[(ost, [(piece_bytes, count), ...]), ...]`` — the
        pieces a contiguous request puts on each OST, run-length
        encoded.  Grouping per OST (keeping first-touch order) is
        timing-exact, not an approximation: one request enqueues *all*
        its pieces on the FIFO OST pipes at the same instant, so its
        pieces occupy each OST back to back and one holder can
        serialize them without changing any grant order.  The pieces
        are kept distinct (runs, not sums) so the per-piece transfer
        times accumulate with the same floating-point additions as
        individually queued pieces.

        The run-length form is computed arithmetically: a request is a
        partial first piece, a block of full stripes dealt round-robin
        across ``stripe_count`` OSTs, and a partial last piece — there
        is no need to walk it stripe by stripe.
        """
        stripe = handle.stripe_size
        count = handle.stripe_count
        num_osts = self.spec.num_osts

        def ost_of(stripe_index: int) -> int:
            return (handle.first_ost + stripe_index % count) % num_osts

        if nbytes <= 0:
            return []
        end = offset + nbytes
        first_index = offset // stripe
        last_index = (end - 1) // stripe  # inclusive
        grouped: dict = {}

        def add(ost: int, piece: int, n: int) -> None:
            runs = grouped.get(ost)
            if runs is not None and runs[-1][0] == piece:
                runs[-1][1] += n
            elif runs is None:
                grouped[ost] = [[piece, n]]
            else:
                runs.append([piece, n])

        if first_index == last_index:
            add(ost_of(first_index), nbytes, 1)
            return [(o, [tuple(r) for r in runs]) for o, runs in grouped.items()]

        head = stripe - (offset % stripe)  # partial (or full) first piece
        add(ost_of(first_index), head, 1)
        # Full stripes between the first and last piece, dealt in
        # stripe-index order: OST k gets one per round-robin cycle.
        full_lo, full_hi = first_index + 1, last_index  # [lo, hi)
        n_full = full_hi - full_lo
        if n_full > 0:
            if n_full >= count:
                base, extra = divmod(n_full, count)
                for j in range(count):
                    add(ost_of(full_lo + j), stripe, base + (1 if j < extra else 0))
            else:
                for j in range(n_full):
                    add(ost_of(full_lo + j), stripe, 1)
        tail = end - last_index * stripe  # partial (or full) last piece
        add(ost_of(last_index), tail, 1)
        return [(o, [tuple(r) for r in runs]) for o, runs in grouped.items()]

    def _build_plan(self, handle: LustreFile, offset: int, nbytes: int) -> list:
        """Compile one request's stripe split into vectorized classes.

        Groups the reference :meth:`_stripe_transfers` output by (run
        sequence, rate): OSTs in one class receive the *same* chunk
        duration sequence, so their accumulator folds and completion
        offsets are computed together.  Each class precomputes the
        per-chunk duration vector (``fill``), the burst length in ticks
        and the per-OST byte count; all float math matches the chunk-
        by-chunk reference additions bit for bit (np.add.accumulate is
        sequential left-to-right in double precision).
        """
        classes: dict = {}
        for ost, runs in self._stripe_transfers(handle, offset, nbytes):
            key = (tuple(runs), self._osts[ost].rate)
            bucket = classes.get(key)
            if bucket is None:
                classes[key] = [ost]
            else:
                bucket.append(ost)
        plan = []
        for (runs, rate), ost_list in classes.items():
            pieces = np.array([piece for piece, _ in runs], dtype=np.float64)
            counts = np.array([n for _, n in runs])
            fill = np.repeat(pieces / rate, counts)
            total = float(np.add.accumulate(fill)[-1])
            tick_add = round(total * _TICK_SCALE)
            per_ost_bytes = 0
            for piece, n in runs:
                per_ost_bytes += piece * n
            plan.append((
                np.array(ost_list, dtype=np.intp),
                fill,
                tick_add,
                per_ost_bytes,
            ))
        return plan

    def plan_for(self, handle: LustreFile, offset: int, nbytes: int) -> list:
        """Memoized :meth:`_build_plan` lookup (frozen-rate runs only)."""
        memo = self._plan_memo
        key = (
            handle.first_ost, handle.stripe_size, handle.stripe_count,
            offset, nbytes,
        )
        plan = memo.get(key)
        if plan is None:
            if len(memo) > 4096:
                memo.clear()  # geometry churn backstop; plans rebuild
            plan = self._build_plan(handle, offset, nbytes)
            memo[key] = plan
        return plan

    def apply_plan(self, plan: list, now_tick: int) -> int:
        """Replay one compiled request against the pool's array state.

        Advances the chain-tick, busy-time and bytes-moved arrays and
        returns the request's completion tick.
        """
        ticks, busy, moved = self._chain_ticks, self._busy, self._moved
        end = 0
        for o_arr, fill, tick_add, per_ost_bytes in plan:
            width = fill.shape[0]
            if width <= 4096:
                m = np.empty((o_arr.shape[0], width + 1))
                m[:, 0] = busy[o_arr]
                m[:, 1:] = fill
                np.add.accumulate(m, axis=1, out=m)
                busy[o_arr] = m[:, width]
            else:
                # Very long bursts: per-OST 1-D folds, bounded memory.
                arr = np.empty(width + 1)
                for o in o_arr:
                    arr[0] = busy[o]
                    arr[1:] = fill
                    np.add.accumulate(arr, out=arr)
                    busy[o] = arr[width]
            moved[o_arr] += per_ost_bytes
            sel = ticks[o_arr]
            np.maximum(sel, now_tick, out=sel)
            sel += tick_add
            ticks[o_arr] = sel
            t = int(sel.max())
            if t > end:
                end = t
        return end

    def _transfer(self, handle: LustreFile, offset: int, nbytes: int) -> Generator:
        """Process: push one contiguous request through the OST pipes.

        Frozen-rate runs resolve each OST burst arithmetically and wait
        once for the latest completion tick; otherwise every burst gets
        a chained completion event and the request waits on all of them
        — same timestamps either way.

        The frozen path is the hottest code in the MPI-IO figures: a
        full-range request touches every OST in the pool, millions of
        bursts per campaign.  Requests repeat heavily (the same writer
        geometry recurs every step), so the stripe split is compiled
        once into a :meth:`_build_plan` and replayed against the pool's
        array state with a few numpy operations per class — identical
        float addition order per OST, therefore identical stats and
        completion ticks.
        """
        if self._rates_frozen:
            if nbytes <= 0:
                return
            plan = self.plan_for(handle, offset, nbytes)
            end = self.apply_plan(plan, self.env._now_tick)
            if end > 0:
                yield self.env.timeout_at_tick(end)
            return
        transfers = [
            self._osts[ost].enqueue_runs(runs)
            for ost, runs in self._stripe_transfers(handle, offset, nbytes)
        ]
        if transfers:
            yield self.env.all_of(transfers)

    def write(self, handle: LustreFile, offset: int, nbytes: int) -> Generator:
        """Process: write ``nbytes`` at ``offset`` through the OST pipes."""
        if nbytes < 0:
            raise ValueError(f"negative write size {nbytes}")
        yield from self._transfer(handle, offset, nbytes)
        self.bytes_written += nbytes

    def read(self, handle: LustreFile, offset: int, nbytes: int) -> Generator:
        """Process: read ``nbytes`` at ``offset`` through the OST pipes."""
        if nbytes < 0:
            raise ValueError(f"negative read size {nbytes}")
        yield from self._transfer(handle, offset, nbytes)
        self.bytes_read += nbytes

    @property
    def aggregate_bandwidth(self) -> float:
        """Peak bandwidth of the whole OST pool, bytes/second."""
        return self.spec.peak_bandwidth
