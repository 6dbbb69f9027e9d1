"""Vectorized batch actors: equivalence, engagement and fallbacks.

The batch-actor engine (``repro.staging.batch``) may only change *how*
a clustered run is computed, never *what* it computes:

* **batch == per-rank** — when the compilation engages, every exported
  number (times, stats, memory timelines, server peaks) must equal the
  per-rank clustered run float for float;
* **honest refusal** — every configuration the compilers cannot prove
  byte-identical must decline with a ``batch:`` entry in
  ``RunResult.fidelity_log``, including at runtime (a mid-compile
  ``BatchDecline`` falls back to the exact per-rank chains in place);
* **it is actually cheaper** — an engaged run must simulate far fewer
  events than the generator chains it replaces.
"""

import re

import pytest

from repro.staging.batch import BatchDecline
from repro.staging.ndarray import Variable

from .test_perf_modes import MATCHED, assert_identical, fresh_run

#: decaf on Cori splits into gcd(sim, ana, dflow) identical 1:1:1
#: islands (uniform dragonfly hops); titan's torus hops refuse
DECAF_ISLANDS = dict(method="decaf", nsim=512, nana=512, steps=5)

#: the smallest Figure 2 cell, method left open
FIG2_CELL = dict(
    workflow="lammps", nsim=32, nana=16, steps=5,
    fidelity="steady+clustered",
)

#: every library x machine cell of the Figure 2 sweeps: either the
#: contended-path compilation engages (None) or the run records this
#: specific, stable ``batch:`` decline prefix in ``fidelity_log``
FIG2_ATTRIBUTION = {
    ("titan", "mpiio"): None,
    ("titan", "dimes"): None,
    ("titan", "dimes-adios"): None,
    ("titan", "flexpath"):
        "batch: flexpath notifications fan out through shared EVPath",
    ("titan", "dataspaces"): "batch: clustered fidelity did not engage",
    ("titan", "dataspaces-adios"):
        "batch: clustered fidelity did not engage",
    ("titan", "decaf"): "batch: clustered fidelity did not engage",
    ("cori", "mpiio"): None,
    ("cori", "dimes"): "batch: DRC credential service present",
    ("cori", "dimes-adios"): "batch: DRC credential service present",
    ("cori", "flexpath"):
        "batch: flexpath notifications fan out through shared EVPath",
    ("cori", "dataspaces"): "batch: clustered fidelity did not engage",
    ("cori", "dataspaces-adios"):
        "batch: clustered fidelity did not engage",
    ("cori", "decaf"): "batch: decaf compiles 1:1:1 islands only",
}


#: fields that name how a result was computed, not what it computed
HOW = ("fidelity", "fidelity_log")


def batch_pair(**kwargs):
    """The exact per-rank reference and the requested (compiled) run."""
    off = fresh_run(**{**kwargs, "fidelity": "exact"})
    on = fresh_run(**kwargs)
    return off, on


class TestBatchEquivalence:
    def test_dataspaces_matched_rdma_engages(self):
        kwargs = {**MATCHED, "transport": "ugni"}
        off, on = batch_pair(machine="titan", fidelity="clustered", **kwargs)
        assert off.fidelity == "exact"
        assert on.fidelity == "clustered+batch"
        assert on.batch_fallback is None
        assert_identical(off, on, ignore=HOW)

    def test_decaf_islands_engage_on_cori(self):
        off, on = batch_pair(
            machine="cori", fidelity="clustered", **DECAF_ISLANDS
        )
        assert off.fidelity == "exact"
        assert on.fidelity == "clustered+batch"
        assert on.batch_fallback is None
        assert_identical(off, on, ignore=HOW)

    def test_engaged_by_default_when_clustered(self):
        # every clustered request tries the compilation
        result = fresh_run(
            machine="titan", fidelity="clustered",
            **{**MATCHED, "transport": "ugni"},
        )
        assert result.fidelity == "clustered+batch"
        assert result.batch_fallback is None

    def test_dimes_contended_group_engages_on_titan(self):
        # DIMES funnels every rank through the shared multi-slot
        # metadata CPU; the max-plus scan compiles it bit-identically.
        off, on = batch_pair(machine="titan", method="dimes", **FIG2_CELL)
        assert on.fidelity == "clustered+batch"
        assert on.batch_fallback is None
        assert_identical(off, on, ignore=HOW)

    @pytest.mark.parametrize("machine", ["titan", "cori"])
    def test_mpiio_lustre_merge_engages(self, machine):
        # MPI-IO free-runs under the steps-deep window; the op-stream
        # merge over the MDS FIFO + OST cursors stays bit-identical.
        off, on = batch_pair(machine=machine, method="mpiio", **FIG2_CELL)
        assert on.fidelity == "clustered+batch"
        assert on.batch_fallback is None
        assert_identical(off, on, ignore=HOW)

    def test_flexpath_point_to_point_engages(self):
        # A 1:1 subscription graph is a static partition: one source
        # stone, one sink, one edge — the pipeline compiles.
        off, on = batch_pair(
            machine="titan", method="flexpath", workflow="lammps",
            nsim=4, nana=4, steps=5, fidelity="steady+clustered",
        )
        assert on.fidelity == "clustered+batch"
        assert on.batch_fallback is None
        assert_identical(off, on, ignore=HOW)

    def test_engaged_run_simulates_fewer_events(self, monkeypatch):
        # Against the per-rank clustered chains (the compilation refused
        # up front), not the exact run: clustering alone already cuts
        # MATCHED's events by its group count.
        from repro.sim.engine import Environment
        from repro.staging.dataspaces import DataSpaces

        counts = {}
        orig = Environment.step

        def counting(env):
            counts[arm] += 1
            orig(env)

        def refusing(self, plan, write_regions, read_regions):
            raise BatchDecline("batch: refused for the per-rank arm")

        kwargs = dict(
            machine="titan", fidelity="clustered",
            **{**MATCHED, "transport": "ugni"},
        )
        monkeypatch.setattr(Environment, "step", counting)
        arm, counts["batch"] = "batch", 0
        assert fresh_run(**kwargs).fidelity == "clustered+batch"
        monkeypatch.setattr(DataSpaces, "batch_plan", refusing)
        arm, counts["per_rank"] = "per_rank", 0
        assert fresh_run(**kwargs).fidelity == "clustered"
        assert counts["batch"] < counts["per_rank"] / 10


class TestQueueModels:
    """The compile-time FIFO queue models equal the live Resource."""

    CASES = [
        # (capacity, service_ticks, arrival ticks)
        (1, 3, [0, 1, 2, 3, 10, 11]),
        (2, 5, [0, 0, 1, 2, 3, 4, 20]),
        (3, 4, [0, 1, 1, 1, 2, 9, 9, 30, 31]),
        (4, 7, list(range(12))),
    ]

    @staticmethod
    def simulate(capacity, service, arrivals):
        """Grant/finish ticks from a live capacity-k Resource."""
        from repro.sim import Environment, Resource

        env = Environment()
        res = Resource(env, capacity=capacity)
        out = {}

        def requester(env, idx, arrival):
            yield env.timeout(arrival)
            with res.request() as req:
                yield req
                grant = env.now
                yield env.timeout(service)
                out[idx] = (grant, env.now)

        for idx, arrival in enumerate(arrivals):
            env.process(requester(env, idx, arrival))
        env.run()
        return [out[idx] for idx in range(len(arrivals))]

    @pytest.mark.parametrize("capacity,service,arrivals", CASES)
    def test_fifo_queue_matches_live_resource(
        self, capacity, service, arrivals,
    ):
        from repro.staging.batch import FifoQueue

        queue = FifoQueue(capacity, name="test")
        model = [
            queue.serve(arrival, service, cohort="spawn")
            for arrival in arrivals
        ]
        assert model == self.simulate(capacity, service, arrivals)

    @pytest.mark.parametrize("capacity,service,arrivals", CASES)
    def test_fifo_scan_matches_live_resource(
        self, capacity, service, arrivals,
    ):
        import numpy as np

        from repro.staging.batch import fifo_scan

        finishes = fifo_scan(
            np.asarray(arrivals, dtype=np.int64), service, capacity,
        )
        live = [fin for _grant, fin in
                self.simulate(capacity, service, arrivals)]
        assert finishes.tolist() == live

    def test_fifo_scan_declines_unsorted_arrivals(self):
        import numpy as np

        from repro.staging.batch import fifo_scan

        with pytest.raises(BatchDecline, match="^batch: "):
            fifo_scan(np.asarray([5, 3], dtype=np.int64), 2, 1)

    def test_fifo_queue_declines_uncertified_tie(self):
        from repro.staging.batch import FifoQueue

        queue = FifoQueue(2, name="test")
        queue.serve(4, 3, cohort="a")
        with pytest.raises(BatchDecline, match="^batch: "):
            queue.serve(4, 3, cohort="b")


class TestBatchRefusals:
    def test_tcp_sockets_decline(self):
        # Connection-pooled sockets serialize unrelated chains through
        # shared per-node pools; the certificate must refuse.
        off, on = batch_pair(machine="titan", fidelity="clustered", **MATCHED)
        assert on.fidelity == "clustered"
        assert on.batch_fallback is not None
        assert "batch" in on.batch_fallback
        assert_identical(off, on, ignore=HOW)

    def test_decaf_wide_islands_decline(self):
        # nsim=512/nana=256 clusters into 2:1:1 islands — two producers
        # interleave on the dflow NIC, which the compiler refuses.
        result = fresh_run(
            machine="cori", method="decaf", nsim=512, nana=256,
            fidelity="clustered",
        )
        assert result.fidelity == "clustered"
        assert result.batch_fallback is not None
        assert "1:1:1" in result.batch_fallback

    def test_without_clustering_nothing_compiles(self):
        # an exact request asks for no tier, so nothing compiles and
        # nothing is logged as declined
        result = fresh_run(
            machine="titan", fidelity="exact",
            **{**MATCHED, "transport": "ugni"},
        )
        assert result.fidelity == "exact"
        assert result.fidelity_log == ()
        assert result.batch_fallback is None

    @pytest.mark.parametrize("method,expect", [
        ("dimes", "batch: dimes compiles the full contended group"),
        ("mpiio", "batch: mpiio compiles the full contended group"),
        ("flexpath", "batch: flexpath notifications fan out"),
    ])
    def test_contended_compilers_refuse_cluster_splits(self, method, expect):
        # The contended-path compilers model the *whole* group's shared
        # resources (metadata CPUs, the Lustre MDS, stone queues); a
        # subgroup split — or, for flexpath, any fan-out wider than the
        # point-to-point partition — is outside every certificate.
        from repro.hpc.cluster import Cluster
        from repro.hpc.machines import get_machine
        from repro.sim import Environment
        from repro.staging.base import ClusterPlan
        from repro.staging.decomposition import application_decomposition
        from repro.staging.factory import make_library

        env = Environment()
        cluster = Cluster(env, get_machine("titan"))
        var = Variable("v", (8192, 64))
        library = make_library(
            method, cluster, nsim=8, nana=8, variable=var, steps=5,
        )
        regions = application_decomposition(var, 8, 0)
        plan = ClusterPlan(sim_reps=1, ana_reps=1, server_reps=1, groups=8)
        with pytest.raises(BatchDecline, match="^" + re.escape(expect)):
            library.batch_plan(plan, regions, regions)

    @pytest.mark.parametrize(
        "machine,method", sorted(FIG2_ATTRIBUTION),
        ids=[f"{m}-{lib}" for m, lib in sorted(FIG2_ATTRIBUTION)],
    )
    def test_fig2_cells_engage_or_decline_with_stable_reason(
        self, machine, method,
    ):
        # Every Figure 2 cell either compiles to ``clustered+batch`` or
        # records a specific, stable refusal in ``fidelity_log`` — no
        # cell may silently change attribution.
        expect = FIG2_ATTRIBUTION[(machine, method)]
        result = fresh_run(machine=machine, method=method, **FIG2_CELL)
        if expect is None:
            assert result.fidelity == "clustered+batch"
            assert result.batch_fallback is None
        else:
            assert result.fidelity != "clustered+batch"
            assert result.batch_fallback is not None
            assert result.batch_fallback.startswith(expect)

    def test_runtime_decline_falls_back_in_place(self, monkeypatch):
        # A certificate that fails its live checks mid-compile must run
        # the exact per-rank chains and still produce identical output.
        from repro.staging.dataspaces import DataSpaces

        kwargs = {**MATCHED, "transport": "ugni"}
        off = fresh_run(machine="titan", fidelity="exact", **kwargs)

        def declining(self, bplan, ctx):
            raise BatchDecline("batch: synthetic runtime decline")

        monkeypatch.setattr(DataSpaces, "batch_step", declining)
        on = fresh_run(machine="titan", fidelity="clustered", **kwargs)
        assert on.fidelity == "clustered"
        assert on.batch_fallback == "batch: synthetic runtime decline"
        assert_identical(off, on, ignore=HOW)

    def test_runtime_decline_under_steady_logs_the_skipped_orbit(
        self, monkeypatch,
    ):
        # The resolver dropped steady for the compilation; when that
        # compilation then declines, the log says steady was skipped.
        from repro.staging.dataspaces import DataSpaces

        def declining(self, bplan, ctx):
            raise BatchDecline("batch: synthetic runtime decline")

        monkeypatch.setattr(DataSpaces, "batch_step", declining)
        result = fresh_run(
            machine="titan", fidelity="steady+clustered", steps=12,
            **{**MATCHED, "transport": "ugni"},
        )
        assert result.fidelity == "clustered"
        assert result.fidelity_log == (
            "batch: synthetic runtime decline",
            "steady: skipped for a batch compilation that then "
            "declined at runtime",
        )

    def test_batch_supersedes_steady(self):
        kwargs = {**MATCHED, "transport": "ugni"}
        result = fresh_run(
            machine="titan", fidelity="steady+clustered", steps=12, **kwargs,
        )
        assert result.fidelity == "clustered+batch"
        assert result.fidelity_log == (
            "steady: superseded by the batch-actor compilation",
        )
