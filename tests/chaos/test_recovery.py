"""Per-library recovery semantics under injected faults (Table IV).

Each test pins one cell of the chaos matrix to the paper-documented
reaction: DataSpaces stalls (no failure detection), DIMES times out and
aborts, Flexpath drains and degrades, Decaf propagates a termination
token, MPI-IO restarts from the last complete file.
"""

import pytest

from repro.chaos import FaultEvent, FaultPlan, RecoveryPolicy
from repro.core import runcache
from repro.workflows import run_coupled
from repro.workflows.trace import ActivityTrace

CELL = dict(
    workflow="lammps", nsim=8, nana=4, steps=5,
    topology_overrides=dict(sim_ranks_per_node=1, ana_ranks_per_node=1),
)


@pytest.fixture(autouse=True)
def fresh_cache():
    runcache.clear()
    yield
    runcache.clear()


def _plan(event, watchdog=300.0):
    return FaultPlan(events=(event,), watchdog=watchdog)


def _clean(method, machine="titan"):
    result = run_coupled(machine=machine, method=method, **CELL)
    assert result.ok
    return result


class TestServerCrash:
    EVENT = FaultEvent("server_crash", after_puts=16, target=0)

    def test_dataspaces_hangs_until_the_watchdog(self):
        result = run_coupled(
            machine="titan", method="dataspaces",
            fault_plan=_plan(self.EVENT), **CELL,
        )
        assert not result.ok
        assert result.failure.startswith("WorkflowHang")
        assert result.end_to_end == pytest.approx(300.0)

    def test_dataspaces_policy_is_swappable(self):
        # The same cell under timeout-abort fails fast and diagnosably
        # instead of stalling: the reaction is the policy's, not wired
        # into the library.
        result = run_coupled(
            machine="titan", method="dataspaces",
            fault_plan=_plan(self.EVENT),
            recovery=RecoveryPolicy("timeout-abort", timeout=20.0),
            **CELL,
        )
        assert not result.ok
        assert result.failure.startswith("StagingServerCrashed")
        assert result.end_to_end < 300.0

    def test_dimes_metadata_timeout_aborts(self):
        result = run_coupled(
            machine="titan", method="dimes",
            fault_plan=_plan(self.EVENT), **CELL,
        )
        assert not result.ok
        assert result.failure.startswith("StagingServerCrashed")
        assert result.recovery_events > 0

    def test_decaf_aborts_the_mpi_world(self):
        result = run_coupled(
            machine="titan", method="decaf",
            fault_plan=_plan(self.EVENT), **CELL,
        )
        assert not result.ok
        assert result.failure.startswith("NodeFailure")

    @pytest.mark.parametrize("method", ["flexpath", "mpiio"])
    def test_serverless_methods_are_unaffected(self, method):
        clean = _clean(method)
        result = run_coupled(
            machine="titan", method=method,
            fault_plan=_plan(self.EVENT), **CELL,
        )
        assert result.ok
        assert result.end_to_end == pytest.approx(clean.end_to_end)


class TestRankDeath:
    EVENT = FaultEvent("rank_death", after_puts=14, target=3, actor_kind="sim")

    def test_dataspaces_hangs(self):
        result = run_coupled(
            machine="titan", method="dataspaces",
            fault_plan=_plan(self.EVENT), **CELL,
        )
        assert not result.ok
        assert result.failure.startswith("WorkflowHang")

    def test_dimes_loses_staged_versions(self):
        result = run_coupled(
            machine="titan", method="dimes",
            fault_plan=_plan(self.EVENT), **CELL,
        )
        assert not result.ok
        assert result.failure.startswith("DataLoss")
        assert result.versions_lost > 0

    def test_flexpath_drains_and_degrades(self):
        clean = _clean("flexpath")
        result = run_coupled(
            machine="titan", method="flexpath",
            fault_plan=_plan(self.EVENT), **CELL,
        )
        assert result.ok
        assert result.versions_lost > 0
        # Graceful degradation: the survivors finish on schedule.
        assert result.end_to_end <= clean.end_to_end * 1.05

    def test_decaf_terminates_cleanly_and_early(self):
        clean = _clean("decaf")
        result = run_coupled(
            machine="titan", method="decaf",
            fault_plan=_plan(self.EVENT), **CELL,
        )
        assert result.ok
        assert result.versions_lost > 0
        assert result.end_to_end < clean.end_to_end

    def test_mpiio_restarts_from_file_with_zero_loss(self):
        result = run_coupled(
            machine="titan", method="mpiio",
            fault_plan=_plan(self.EVENT), **CELL,
        )
        assert result.ok
        assert result.versions_lost == 0
        assert result.recovery_events >= 1


class TestDrcRejection:
    EVENT = FaultEvent("drc_reject", at=0.0, duration=40.0)

    def test_no_retry_clients_abort(self):
        for method in ("dataspaces", "dimes"):
            result = run_coupled(
                machine="cori", method=method,
                fault_plan=_plan(self.EVENT, watchdog=600.0), **CELL,
            )
            assert not result.ok
            assert result.failure.startswith("CredentialRejected")

    def test_flexpath_backoff_outlasts_the_window(self):
        clean = _clean("flexpath", machine="cori")
        result = run_coupled(
            machine="cori", method="flexpath",
            fault_plan=_plan(self.EVENT, watchdog=600.0), **CELL,
        )
        assert result.ok
        assert result.end_to_end > clean.end_to_end  # paid the backoff

    def test_titan_has_no_credential_service_to_reject(self):
        clean = _clean("dataspaces")
        result = run_coupled(
            machine="titan", method="dataspaces",
            fault_plan=_plan(self.EVENT, watchdog=600.0), **CELL,
        )
        assert result.ok
        assert result.end_to_end == pytest.approx(clean.end_to_end)


class TestDegradations:
    def test_transport_degrade_slows_rdma_staging_only(self):
        plan = _plan(FaultEvent("transport_degrade", at=30.0, factor=32.0))
        clean = _clean("dataspaces")
        slowed = run_coupled(
            machine="titan", method="dataspaces", fault_plan=plan, **CELL,
        )
        assert slowed.ok and slowed.end_to_end > clean.end_to_end
        mpiio_clean = _clean("mpiio")
        mpiio = run_coupled(
            machine="titan", method="mpiio", fault_plan=plan, **CELL,
        )
        assert mpiio.ok
        assert mpiio.end_to_end == pytest.approx(mpiio_clean.end_to_end)

    def test_ost_slowdown_hits_the_file_based_method_only(self):
        plan = _plan(FaultEvent("ost_slow", at=30.0, target=1, factor=32.0))
        mpiio_clean = _clean("mpiio")
        mpiio = run_coupled(
            machine="titan", method="mpiio", fault_plan=plan, **CELL,
        )
        assert mpiio.ok and mpiio.end_to_end > mpiio_clean.end_to_end
        ds_clean = _clean("dataspaces")
        ds = run_coupled(
            machine="titan", method="dataspaces", fault_plan=plan, **CELL,
        )
        assert ds.ok
        assert ds.end_to_end == pytest.approx(ds_clean.end_to_end)

    def test_degradation_can_lift_again(self):
        # A bounded degradation costs less than a permanent one.
        forever = run_coupled(
            machine="titan", method="dataspaces",
            fault_plan=_plan(FaultEvent("transport_degrade", at=30.0,
                                        factor=32.0)),
            **CELL,
        )
        bounded = run_coupled(
            machine="titan", method="dataspaces",
            fault_plan=_plan(FaultEvent("transport_degrade", at=30.0,
                                        factor=32.0, duration=10.0)),
            **CELL,
        )
        assert forever.ok and bounded.ok
        assert bounded.end_to_end < forever.end_to_end


class TestFaultsBeforeData:
    """Faults that land before the first server or file exists."""

    POINT = dict(machine="titan", nsim=8, nana=4, steps=3)

    @pytest.mark.parametrize("method", ["dataspaces", "dimes"])
    def test_server_crash_before_bootstrap_hits_nothing(self, method):
        # Servers start after APP_INIT_SECONDS = 5 s: at t=4 there is
        # no server to kill, so the run is the clean run.
        faulted = run_coupled(
            method=method,
            fault_plan=FaultPlan(events=(FaultEvent("server_crash", at=4.0),)),
            **self.POINT,
        )
        clean = run_coupled(method=method, **self.POINT)
        assert faulted.ok
        assert faulted.end_to_end == clean.end_to_end

    def test_mpiio_reader_released_before_any_write_reads_nothing(self):
        # The only analytics actor dies blocked on version 0; the
        # termination token wakes it before any writer opened the file.
        result = run_coupled(
            method="mpiio",
            fault_plan=FaultPlan(events=(
                FaultEvent("rank_death", at=10.0, actor_kind="ana"),
            )),
            **self.POINT,
        )
        assert result.ok
        assert result.get_time == 0.0


class TestChaosTrace:
    def test_fault_and_abort_glyphs_in_the_gantt(self):
        trace = ActivityTrace()
        run_coupled(
            machine="titan", method="dataspaces",
            fault_plan=_plan(
                FaultEvent("rank_death", after_puts=14, target=3)
            ),
            trace=trace, **CELL,
        )
        chart = trace.gantt()
        assert "K" in chart   # the dead rank's fault marker
        assert "X" in chart   # the watchdog abort
        assert "K=fault" in chart and "X=aborted" in chart

    def test_chrome_trace_roundtrip(self):
        import json

        trace = ActivityTrace()
        run_coupled(
            machine="titan", method="flexpath",
            fault_plan=_plan(
                FaultEvent("rank_death", after_puts=14, target=3)
            ),
            trace=trace, **CELL,
        )
        payload = json.loads(trace.to_chrome_trace())
        events = payload["traceEvents"]
        names = {e["name"] for e in events}
        assert "thread_name" in names        # actor rows are labelled
        assert "fault" in names              # the injection is visible
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        assert "i" in phases                 # zero-length fault markers
        # Every event references a declared thread.
        tids = {e["tid"] for e in events if e["ph"] == "M"}
        assert all(e["tid"] in tids for e in events)
