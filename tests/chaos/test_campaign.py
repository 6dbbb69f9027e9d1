"""Campaign determinism and the committed chaos goldens."""

import json
import os

import pytest

from repro.chaos import build_campaign, campaign
from repro.chaos.campaign import BLAST, CHAOS_LIBRARIES, MATRIX_FAULTS
from repro.chaos.faults import FAULT_KINDS
from repro.core import runcache

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "results")

OUTCOMES = {"completed", "degraded", "aborted", "hung-then-aborted"}

#: every file ``run_campaign(export_dir=...)`` writes
EXPORTS = tuple(
    f"{table}.{ext}"
    for table in ("chaos_matrix", "chaos_blast", "chaos_matrix_ext")
    for ext in ("csv", "json")
)


@pytest.fixture(autouse=True)
def fresh_cache():
    runcache.clear()
    yield
    runcache.clear()


def _golden(name):
    path = os.path.join(RESULTS_DIR, name)
    assert os.path.exists(path), f"missing golden {name}; run python -m repro chaos"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestBuildCampaign:
    def test_pure_in_the_seed(self):
        assert build_campaign(7) == build_campaign(7)
        assert build_campaign(7) != build_campaign(8)

    def test_sweeps_every_fault_for_every_library(self):
        # The base matrix stays frozen to the paper's five Table IV
        # classes; pmem_degrade lives in the extended matrix so the
        # committed seed-7 rng draws never move.
        cells = build_campaign(7)
        combos = {(c["fault"], c["library"]) for c in cells}
        assert combos == {
            (fault, lib) for fault in MATRIX_FAULTS for lib in CHAOS_LIBRARIES
        }
        assert set(MATRIX_FAULTS) < set(FAULT_KINDS)

    def test_plan_is_shared_across_a_fault_row(self):
        cells = build_campaign(7)
        for fault in MATRIX_FAULTS:
            plans = {id(c["plan"]) for c in cells if c["fault"] == fault}
            assert len(plans) == 1


class TestCommittedGoldens:
    """Structural invariants of the committed seed-7 matrix."""

    def test_matrix_covers_the_full_sweep(self):
        rows = _golden("chaos_matrix.json")["rows"]
        combos = {(r["fault"], r["library"]) for r in rows}
        assert len({f for f, _ in combos}) >= 4
        for fault in MATRIX_FAULTS:
            assert {l for f, l in combos if f == fault} == set(CHAOS_LIBRARIES)

    def test_outcomes_use_the_closed_vocabulary(self):
        rows = _golden("chaos_matrix.json")["rows"]
        assert {r["outcome"] for r in rows} <= OUTCOMES

    def test_paper_semantics_hold_in_the_goldens(self):
        rows = {
            (r["fault"], r["library"]): r
            for r in _golden("chaos_matrix.json")["rows"]
        }
        assert rows[("server_crash", "dataspaces")]["outcome"] == "hung-then-aborted"
        assert rows[("server_crash", "flexpath")]["outcome"] == "completed"
        mpiio = rows[("rank_death", "mpiio")]
        assert mpiio["outcome"] == "completed"
        assert mpiio["versions_lost"] == 0 and mpiio["recovery_events"] >= 1
        assert rows[("rank_death", "flexpath")]["outcome"] == "degraded"
        assert rows[("drc_reject", "dataspaces")]["failure"] == "CredentialRejected"
        assert rows[("drc_reject", "flexpath")]["outcome"] == "completed"

    def test_blast_table_is_consistent_with_the_matrix(self):
        matrix = {
            (r["fault"], r["library"]): r["outcome"]
            for r in _golden("chaos_matrix.json")["rows"]
        }
        for row in _golden("chaos_blast.json")["rows"]:
            worst = "none"
            order = ("none", "partial", "workflow")
            for library in CHAOS_LIBRARIES:
                assert row[library] == matrix[(row["fault"], library)]
                category = BLAST[row[library]]
                if order.index(category) > order.index(worst):
                    worst = category
            assert row["blast_radius"] == worst

    def test_serial_campaign_regenerates_the_goldens(self, tmp_path):
        campaign.run_campaign(seed=7, export_dir=str(tmp_path))
        for name in EXPORTS:
            with open(os.path.join(RESULTS_DIR, name), "rb") as fh:
                golden = fh.read()
            assert (tmp_path / name).read_bytes() == golden, (
                f"{name} differs from the committed golden"
            )


class TestChaosFindings:
    def test_every_chaos_finding_verifies(self):
        from repro.core.findings import CHAOS_FINDINGS

        assert len(CHAOS_FINDINGS) >= 2
        for finding in CHAOS_FINDINGS:
            assert finding.verify(), f"chaos finding {finding.number} failed"

    def test_table_v_still_renders_the_papers_eight(self):
        from repro.core.findings import FINDINGS, table5_findings

        assert len(FINDINGS) == 8
        assert len(table5_findings().rows) == 8

