"""MPI-IO baseline: post-processing through the parallel filesystem.

"For comparison, we also discuss the MPI-IO method, which dumps data
from the simulation directly to persistent storage" (Section III-B).
The paper ran it through ADIOS with ``lfs setstripe -stripe-size 1m
-stripe-count -1`` and ``stats=off`` (Table I).

Cost structure (the source of MPI-IO's linear end-to-end growth in
Figure 2):

* every *real* writer creates/opens its output each step — metadata
  operations serialized through the machine's few Lustre MDS (4 on
  Titan, 1 on Cori);
* data flows through the fixed pool of OSTs, whose aggregate bandwidth
  does not grow with the processor count;
* analytics must read everything back before computing.
"""

from __future__ import annotations

import heapq
from typing import Dict, Generator, Optional

import numpy as np

from ..hpc.lustre import LustreFile
from ..sim import Resource
from ..sim.engine import _TICK
from . import calibration as cal
from .base import StagingLibrary, SteadyPlan
from .batch import (
    ActionBuilder,
    BatchDecline,
    BatchPlan,
    BatchSchedule,
    FifoQueue,
)
from .decomposition import uniform_regions
from .ndarray import Region
from .store import FragmentStore


class MpiIo(StagingLibrary):
    """File-based coupling via the simulated Lustre filesystem."""

    name = "mpiio"
    has_servers = False

    def __init__(self, *args, stripe_size: int = 1 << 20, stripe_count: int = -1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stripe_size = stripe_size
        self.stripe_count = stripe_count
        self.global_store = FragmentStore()
        self._handles: Dict[int, object] = {}
        #: chaos: a writer rank died and must re-read its checkpoint
        self._restart_pending = False

    def _gate_window(self) -> int:
        # Persistent storage holds every step: no version backpressure.
        return max(self.steps, 1)

    # ----------------------------------------------- steady fast-forward

    def steady_plan(self):
        """Eligible only when the Lustre OST cursor repeats every step.

        Each step's file open advances the round-robin cursor by the
        effective stripe count modulo ``num_osts`` — hidden state a
        fingerprint pair cannot see unless the advance is zero (i.e.
        ``stripe_count=-1`` or any multiple of the OST pool, so every
        version lands on the same OSTs).  Otherwise decline.
        """
        fs = self.cluster.lustre
        num_osts = fs.spec.num_osts
        eff = self.stripe_count
        if eff == -1 or eff > num_osts:
            eff = num_osts
        if eff % num_osts != 0:
            return None
        return SteadyPlan(warmup=2)

    def steady_state(self, step):
        fs = self.cluster.lustre
        state = super().steady_state(step) + (
            fs._next_ost,
            fs._mds.steady_state(),
            fs.osts_steady_state(),
        )
        if self.config.pmem_checkpoint and self.cluster.pmem is not None:
            state += self.cluster.pmem.steady_state()
        return state

    # --------------------------------------------------- checkpoint-fork

    def _snapshot_extras(self) -> dict:
        # File handles are live Lustre state and cannot be rebuilt from
        # a record; only their version census is captured (a restored
        # instance answers inspection, never continues simulating).
        extras = dict(
            global_store=self._snapshot_store(self.global_store),
            handle_versions=sorted(self._handles),
            restart_pending=self._restart_pending,
        )
        if self.config.pmem_checkpoint and self.cluster.pmem is not None:
            extras["pmem"] = self.cluster.pmem.snapshot()
        return extras

    def _restore_extras(self, extras: dict) -> None:
        self._restore_store(self.global_store, extras.get("global_store", {}))
        self._handles = {v: None for v in extras.get("handle_versions", ())}
        self._restart_pending = extras.get("restart_pending", False)
        if extras.get("pmem") is not None and self.cluster.pmem is not None:
            self.cluster.pmem.restore_state(extras["pmem"])

    # ------------------------------------------------------ chaos hooks

    def rank_died(self, kind: str, actor: int) -> None:
        """MPI-IO's unique advantage: every step persists on Lustre.

        With the restart-from-file policy a dead writer simply restarts
        and re-reads the last complete BP file — time overhead, zero
        version loss (Table IV: the only method with a recovery path).
        The restart-from-pmem policy is the same story through the
        persistent-memory tier: the slab survived the death and reads
        back without an MDS round-trip on the tier's fast channel.
        """
        policy = self.recovery
        if (policy is not None and kind == "sim"
                and policy.kind in ("restart-from-file", "restart-from-pmem")):
            self._restart_pending = True
            return  # the rank comes back; not recorded as dead
        super().rank_died(kind, actor)
        if self.gate is not None and kind == "ana":
            self.gate.reader_left()

    def _restart_from_file(self) -> Generator:
        """Process: the restarted writer re-reads its checkpoint slab."""
        self._restart_pending = False
        self.recovery_events += 1
        t0 = self.env.now
        last = self.gate.highest_published() if self.gate is not None else -1
        yield from self._mds_ops(1.0)
        handle = self._handles.get(last)
        if handle is not None:
            nbytes = int(self.variable.nbytes / max(1, self.topology.sim_actors))
            yield self.env.process(self.cluster.lustre.read(handle, 0, nbytes))
        self.recovery_seconds += self.env.now - t0

    def _restart_from_pmem(self, sim_actor: int) -> Generator:
        """Process: re-read the writer's persisted slab from the tier.

        Two savings over :meth:`_restart_from_file`: the open costs
        microseconds instead of a contended MDS round-trip, and the
        read channel outruns the Lustre OST pool — the delta the
        extended chaos matrix quantifies.
        """
        self._restart_pending = False
        self.recovery_events += 1
        t0 = self.env.now
        yield from self.cluster.pmem.read(("sim", sim_actor))
        self.recovery_seconds += self.env.now - t0

    # --------------------------------------------------------------- put

    def _mds_ops(self, count: float) -> Generator:
        """Process: ``count`` metadata operations through the MDS pool."""
        fs = self.cluster.lustre
        with fs._mds.request() as req:
            yield req
            env = self.env
            yield env.timeout_at_tick(env._now_tick + round(
                count * fs.spec.mds_op_time * cal._TICK_SCALE
            ))

    # ----------------------------------------------------- batch actors

    batch_full_group = True

    def batch_plan(self, plan, write_regions, read_regions):
        """Certify the full-group run for contended-path compilation.

        MPI-IO's whole data path is the shared Lustre instance, and
        unlike DIMES it is *not* phased: writers free-run under the
        steps-deep gate window, so puts and gets of different versions
        interleave arbitrarily at the MDS and the OST pool.  The
        compiler therefore merges all rank streams op by op in global
        tick order (a discrete-event replay at file-operation
        granularity rather than engine-event granularity) and serves
        the MDS through the capacity-k FIFO model
        (:class:`~repro.staging.batch.FifoQueue`, citing
        :attr:`~repro.sim.resources.Resource.FIFO_GRANT_ORDER`); OST
        bursts replay against a shadow of the frozen chain arrays via
        the same :meth:`~repro.hpc.lustre.LustreFilesystem.apply_plan`
        arithmetic the live path uses.  Any same-tick op pair whose
        engine order the merge cannot pin (asymmetric ranks, queued
        grants) declines.  Still-declining cases:

        * a pmem checkpoint mirror — the tier's channel state is not
          compiled;
        * non-uniform write or read decompositions — same-tick cohorts
          lose the symmetry that certifies their spawn-order tie-break;
        * at runtime (``batch_step``): chaos/restart state, an
          unfrozen OST pool, pre-existing file handles, or ambiguous
          same-tick op collisions discovered during the merge.
        """
        if self.config.pmem_checkpoint and self.cluster.pmem is not None:
            raise BatchDecline(
                "batch: the pmem checkpoint mirror is not compiled"
            )
        if not (uniform_regions(write_regions) and uniform_regions(read_regions)):
            raise BatchDecline(
                "batch: non-uniform decomposition breaks the same-tick "
                "spawn-order cohorts"
            )
        if plan.groups != 1:
            raise BatchDecline(
                "batch: mpiio compiles the full contended group, not "
                "cluster splits"
            )
        if self.steps < 1:
            raise BatchDecline("batch: nothing to compile")
        return BatchPlan(
            library=self.name,
            note=(
                f"{len(write_regions)}w/{len(read_regions)}r through "
                f"shared Lustre x {self.steps} steps"
            ),
        )

    def batch_step(self, bplan, ctx):
        """Compile the run by merging every rank's file-op stream.

        Phase one pops ``(tick, seq)``-ordered macro-ops (MDS arrival,
        handle check, open completion, write/read completion) from a
        heap, one handler per op, against shadow state: a
        :class:`~repro.staging.batch.FifoQueue` for the MDS pool,
        copies of the frozen OST chain arrays, the open cursor, and the
        handle-dict timeline.  Each pop certifies its order: same-tick
        pops are accepted only when both events were scheduled in the
        same cascade the merge replays (``exact``) or belong to a
        still-symmetric spawn-order cohort; anything else raises
        :class:`~repro.staging.batch.BatchDecline` onto pristine
        state.  Phase two (which cannot fail) writes the shadow arrays
        and counters back, installs the surviving file handles and
        emits the side-effect actions.
        """
        env = self.env
        var = self.variable
        topo = self.topology
        fs = self.cluster.lustre
        n = ctx.sim_count
        m = ctx.ana_count
        steps = ctx.steps

        # ---- runtime certificate checks (still mutation-free) ----
        gate = self.gate
        if gate is None or gate.window != max(steps, 1):
            raise BatchDecline("batch: gate window changed at runtime")
        if gate.num_writers != n or gate.num_readers != m:
            raise BatchDecline("batch: gate group counts drifted")
        if self.recovery is not None or self.dead_ranks or self._put_watchers:
            raise BatchDecline("batch: chaos state armed")
        if self._restart_pending:
            raise BatchDecline("batch: a writer restart is pending")
        if self._steady_tap is not None:
            raise BatchDecline("batch: steady tap armed")
        if self._handles:
            raise BatchDecline("batch: file handles predate the run")
        if not fs._rates_frozen:
            raise BatchDecline("batch: OST pool is not rate-frozen")
        if fs._mds.count or fs._mds.queue_length:
            raise BatchDecline("batch: MDS pool is mid-operation")
        if not Resource.FIFO_GRANT_ORDER:
            raise BatchDecline("batch: resource grant order is not FIFO")

        S = cal._TICK_SCALE
        num_osts = fs.spec.num_osts
        eff_count = self.stripe_count
        if eff_count == -1 or eff_count > num_osts:
            eff_count = num_osts
        if eff_count <= 0:
            raise BatchDecline("batch: invalid stripe geometry")
        hold_open = round(fs.spec.mds_op_time * S)
        busy_w = round(topo.sim_scale * fs.spec.mds_op_time * S)
        busy_r = round(topo.ana_scale * fs.spec.mds_op_time * S)

        total_w = var.region_bytes(ctx.write_regions[0]) if n else 0.0
        total_r = var.region_bytes(ctx.read_regions[0]) if m else 0.0
        serialize = self._serialize_cost(total_w)
        ser_ticks = round(serialize * S) if serialize > 0 else 0
        # Every segment of a rank's chain must take at least one tick:
        # the merge's same-tick certificate rests on deferred events
        # being *inserted* at a strictly earlier tick than they fire.
        if hold_open <= 0 or busy_w <= 0 or (m and busy_r <= 0):
            raise BatchDecline(
                "batch: zero-tick MDS holds collapse the cascade order"
            )
        if ctx.sim_compute_ticks + ser_ticks <= 0 or (
            m and ctx.ana_compute_ticks <= 0
        ):
            raise BatchDecline(
                "batch: zero-tick compute collapses the cascade order"
            )
        w_off = [int(r.lb[-1] * var.elem_size) for r in ctx.write_regions]
        r_off = [int(r.lb[-1] * var.elem_size) for r in ctx.read_regions]
        w_bytes = int(total_w)
        r_bytes = int(total_r)

        # ---- phase one: the op-granular stream merge ----
        mds = FifoQueue(fs.spec.num_mds, name="lustre mds")
        ost_ticks = fs._chain_ticks.copy()
        ost_busy = fs._busy.copy()
        ost_moved = fs._moved.copy()
        cursor = fs._next_ost
        files_delta = 0
        bw_delta = 0
        br_delta = 0
        handles: Dict[int, LustreFile] = {}
        #: handles returned by in-flight opens, not yet installed (the
        #: install is one process hop behind the open completion)
        open_handles: Dict[tuple, LustreFile] = {}

        def transfer(handle, offset, nbytes, now_tick):
            plan = fs.plan_for(handle, offset, nbytes)
            end = fs.apply_plan(plan, now_tick, ost_ticks, ost_busy, ost_moved)
            if end <= now_tick:
                raise BatchDecline(
                    "batch: zero-tick transfer collapses the cascade order"
                )
            return end

        # Shadow gate: per-version publish counts and parked readers.
        pub_count = [0] * steps
        waiters: list = [[] for _ in range(steps)]
        w_start = np.empty((steps, n), dtype=np.int64)
        w_end = np.empty((steps, n), dtype=np.int64)
        r_start = np.empty((steps, m), dtype=np.int64)
        r_end = np.empty((steps, m), dtype=np.int64)

        gstore = self.global_store

        def put_effects(i, s, start_tick):
            region = ctx.write_regions[i]
            start_f = start_tick * _TICK

            def fx():
                gstore.put(var, s, region, None)
                gate.publish(s)
                self._record_put(total_w, env.now - start_f)
            return fx

        def get_effects(j, s, start_tick):
            region = ctx.read_regions[j]
            start_f = start_tick * _TICK

            def fx():
                gstore.assemble(var, s, region)
                gate.reader_done(s)
                self._record_get(total_r, env.now - start_f)
            return fx

        def alloc_action(tracker, nbytes, cell):
            def fx():
                cell[0] = tracker.allocate(nbytes, "staging-lib")
            return fx

        def free_action(tracker, cell):
            def fx():
                tracker.free(cell[0])
                cell[0] = None
            return fx

        sim_cells = [[None] for _ in range(n)]
        ana_cells = [[None] for _ in range(m)]
        #: side-effect actions, appended in certified pop order — the
        #: engine's same-tick cascade order (stable sort keeps it).
        merge_actions: list = []

        # The merge heap.  ``exact`` marks an event whose engine
        # counterpart is *inserted* at the very moment the merge pushes
        # it (an inline grant's hold end, a same-cascade hop): for any
        # two of those, heap seq order equals the calendar queue's
        # insertion order, because pushes happen in certified execution
        # order.  A non-exact event (pushed ahead of time — seeds,
        # queued MDS grants, compressed compute/serialize pause chains)
        # is inserted at some unknowable point strictly before its
        # tick, so at a tied tick it is ordered only against events of
        # its own full-history twin class (identical tick history ⇒
        # events sit in push order in every bucket, by induction from
        # the symmetric spawn).  Events pushed *during* the tied tick
        # always pop last (seq) and are appended last in the engine
        # too, so they need no pairwise certificate.  Every
        # ``yield env.process(...)`` hop in the per-rank code defers
        # one event generation to the calendar bucket's tail, so the
        # merge mirrors each hop with a same-tick push of its own
        # (open request, handle install, write/read issue) — relative
        # order among same-tick cascades is then reproduced push for
        # push.
        heap: list = []
        seq = 0
        hist_memo: dict = {}

        def _adv1(hid, tick):
            key = (hid, int(tick))
            nid = hist_memo.get(key)
            if nid is None:
                nid = len(hist_memo)
                hist_memo[key] = nid
            return nid

        hist_w = [-1] * n
        hist_r = [-2] * m
        fresh_ids = iter(range(-3, -(3 + steps + 1), -1))

        def push(tick, op, a, b, exact, hist):
            nonlocal seq
            if hist is None:
                hid = None
            else:
                hid = hist[a] = _adv1(hist[a], tick)
            heapq.heappush(heap, (tick, seq, op, a, b, exact, hid))
            seq += 1

        # Writer ops: MDS arrival, handle check, open request (the
        # process-deferred MDS call), open done, handle install + write
        # issue, write issue alone, write done.  Reader ops: step
        # start, MDS arrival, handle lookup, read issue, read done.
        (W_ARR, W_CHK, W_OPQ, W_OPN, W_SET, W_WRQ, W_DONE,
         R_STA, R_ARR, R_RDY, R_IOQ, R_DONE) = range(12)

        boot = ctx.boot_tick
        for i in range(n):
            p0 = boot + ctx.sim_compute_ticks
            w_start[0, i] = p0
            if ctx.persistent_buffers[i] is None:
                merge_actions.append((p0, alloc_action(
                    ctx.sim_trackers[i], ctx.sim_buffer_bytes, sim_cells[i],
                )))
            push(p0 + ser_ticks, W_ARR, i, 0, False, hist_w)
        for j in range(m):
            merge_actions.append((boot, alloc_action(
                ctx.ana_trackers[j], ctx.ana_buffer_bytes, ana_cells[j],
            )))
            push(boot, R_STA, j, 0, False, hist_r)

        MERGE = ("merge",)  # FIFO call order = certified pop order
        _MISMATCH = object()
        prev_tick = None
        group_all_exact = True
        group_hid = None
        watermark = 0
        while heap:
            tick, sq, op, i, s, exact, hid = heapq.heappop(heap)
            if tick == prev_tick:
                if sq < watermark and not (
                    (exact and group_all_exact)
                    or (hid is not None and hid == group_hid)
                ):
                    raise BatchDecline(
                        f"batch: ops collide at tick {tick} across "
                        "asymmetric ranks; engine order would depend on "
                        "history"
                    )
                group_all_exact = group_all_exact and exact
                if hid != group_hid:
                    group_hid = _MISMATCH
            else:
                prev_tick = tick
                group_all_exact = exact
                group_hid = hid
                watermark = seq
            if op == W_ARR:
                grant, end = mds.serve(tick, busy_w, MERGE)
                push(end, W_CHK, i, s, grant == tick, hist_w)
            elif op == W_CHK:
                if handles.get(s) is None:
                    push(tick, W_OPQ, i, s, True, hist_w)
                else:
                    push(tick, W_WRQ, i, s, True, hist_w)
            elif op == W_OPQ:
                grant, end = mds.serve(tick, hold_open, MERGE)
                push(end, W_OPN, i, s, grant == tick, hist_w)
            elif op == W_OPN:
                handle = LustreFile(
                    fs, f"/scratch/{var.name}.{s}.bp",
                    eff_count, self.stripe_size, cursor,
                )
                cursor = (cursor + eff_count) % num_osts
                files_delta += 1
                push(tick, W_SET, i, s, True, hist_w)
                open_handles[(i, s)] = handle
            elif op == W_SET:
                handles[s] = open_handles.pop((i, s))
                push(tick, W_WRQ, i, s, True, hist_w)
            elif op == W_WRQ:
                end = transfer(handles[s], w_off[i], w_bytes, tick)
                push(end, W_DONE, i, s, True, hist_w)
            elif op == W_DONE:
                w_end[s, i] = tick
                bw_delta += w_bytes
                merge_actions.append((tick, put_effects(i, s, int(w_start[s, i]))))
                if ctx.persistent_buffers[i] is None:
                    merge_actions.append((tick, free_action(
                        ctx.sim_trackers[i], sim_cells[i],
                    )))
                pub_count[s] += 1
                if pub_count[s] == n:
                    # Wake: the parked readers resume together, in
                    # park order — one fresh twin class from here on.
                    nid = next(fresh_ids)
                    for j, _g0 in waiters[s]:
                        hist_r[j] = nid
                        push(tick, R_ARR, j, s, True, hist_r)
                    waiters[s] = None  # published
                if s + 1 < steps:
                    p0 = tick + ctx.sim_compute_ticks
                    w_start[s + 1, i] = p0
                    if ctx.persistent_buffers[i] is None:
                        merge_actions.append((p0, alloc_action(
                            ctx.sim_trackers[i], ctx.sim_buffer_bytes,
                            sim_cells[i],
                        )))
                    push(p0 + ser_ticks, W_ARR, i, s + 1, False, hist_w)
            elif op == R_STA:
                r_start[s, i] = tick
                if waiters[s] is None:
                    push(tick, R_ARR, i, s, True, hist_r)
                else:
                    waiters[s].append((i, tick))
            elif op == R_ARR:
                grant, end = mds.serve(tick, busy_r, MERGE)
                push(end, R_RDY, i, s, grant == tick, hist_r)
            elif op == R_RDY:
                push(tick, R_IOQ, i, s, True, hist_r)
            elif op == R_IOQ:
                end = transfer(handles[s], r_off[i], r_bytes, tick)
                push(end, R_DONE, i, s, True, hist_r)
            else:  # R_DONE
                r_end[s, i] = tick
                br_delta += r_bytes
                merge_actions.append((tick, get_effects(i, s, int(r_start[s, i]))))
                merge_actions.append((tick, free_action(
                    ctx.ana_trackers[i], ana_cells[i],
                )))
                if s + 1 < steps:
                    g0 = tick + ctx.ana_compute_ticks
                    merge_actions.append((g0, alloc_action(
                        ctx.ana_trackers[i], ctx.ana_buffer_bytes,
                        ana_cells[i],
                    )))
                    push(g0, R_STA, i, s + 1, False, hist_r)

        # ---- phase two: apply shadow state, counters and actions ----
        fs._chain_ticks[:] = ost_ticks
        fs._busy[:] = ost_busy
        fs._moved[:] = ost_moved
        fs._next_ost = cursor
        fs.files_created += files_delta
        fs.bytes_written += bw_delta
        fs.bytes_read += br_delta
        self._handles.update(handles)

        actions = ActionBuilder()
        for tick, fx in merge_actions:
            actions.add(int(tick), fx)
        sim_finish = int(w_end[steps - 1].max()) if n else boot
        ana_finish = (
            int(r_end[steps - 1].max()) + ctx.ana_compute_ticks if m else boot
        )
        actions.add(max(sim_finish, ana_finish), lambda: None)
        return BatchSchedule(
            actions=actions.build(),
            sim_finish_tick=sim_finish,
            ana_finish_tick=ana_finish,
        )

    def put(
        self,
        sim_actor: int,
        region: Region,
        version: int,
        data: Optional[np.ndarray] = None,
    ) -> Generator:
        var = self.variable
        start = self.env.now
        total = var.region_bytes(region)

        if self._restart_pending:
            policy = self.recovery
            if (policy is not None and policy.kind == "restart-from-pmem"
                    and self.cluster.pmem is not None):
                yield from self._restart_from_pmem(sim_actor)
            else:
                yield from self._restart_from_file()

        serialize = self._serialize_cost(total)
        if serialize > 0:
            yield self.env.pause(serialize)

        # One file create/open per real writer this actor represents.
        yield from self._mds_ops(self.topology.sim_scale)

        handle = self._handles.get(version)
        if handle is None:
            fs = self.cluster.lustre
            handle = yield self.env.process(
                fs.open(
                    f"/scratch/{var.name}.{version}.bp",
                    stripe_count=self.stripe_count,
                    stripe_size=self.stripe_size,
                )
            )
            self._handles[version] = handle

        offset = region.lb[-1] * var.elem_size  # coarse file placement
        yield self.env.process(
            self.cluster.lustre.write(handle, offset, int(total))
        )

        if self.config.pmem_checkpoint and self.cluster.pmem is not None:
            # Mirror the slab to the persistent-memory tier: the cheap
            # insurance premium restart-from-pmem collects on.
            yield self.env.process(
                self.cluster.pmem.write(("sim", sim_actor), version, int(total))
            )

        self.global_store.put(var, version, region, data)
        self.gate.publish(version)
        self._record_put(total, self.env.now - start)

    # --------------------------------------------------------------- get

    def get(
        self,
        ana_actor: int,
        region: Region,
        version: int,
    ) -> Generator:
        var = self.variable
        start = self.env.now
        yield from self.gate.reader_wait(version)

        # One open per real reader this actor represents.
        yield from self._mds_ops(self.topology.ana_scale)
        handle = self._handles[version]
        total = var.region_bytes(region)
        offset = region.lb[-1] * var.elem_size
        yield self.env.process(
            self.cluster.lustre.read(handle, offset, int(total))
        )

        data = self.global_store.assemble(var, version, region)
        self.gate.reader_done(version)
        self._record_get(total, self.env.now - start)
        return total, data
