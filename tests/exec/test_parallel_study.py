"""End-to-end: parallel study == serial study, byte for byte."""

import json
import os

import pytest

from repro.core import runcache
from repro.core.export import to_csv, to_json
from repro.core.study import Study
from repro.exec import execute_parallel
from repro.__main__ import main as cli_main

#: cheap but real: fig6 simulates 8 coupled points, fig8 is analytic
SUBSET = ["fig6", "fig8"]


@pytest.fixture(autouse=True)
def clean_cache():
    runcache.clear()
    yield
    runcache.clear()


def tables_bytes(study):
    return {
        ident: (to_csv(t), to_json(t)) for ident, t in study.results.items()
    }


class TestParallelStudy:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_byte_identical_to_serial(self, jobs):
        serial = Study()
        serial.run(only=SUBSET)
        expected = tables_bytes(serial)
        runcache.clear()

        parallel = Study(jobs=jobs)
        parallel.run(only=SUBSET)
        assert tables_bytes(parallel) == expected
        assert parallel.run_report is not None
        assert parallel.run_report.executed > 0
        assert parallel.run_report.quarantined == []

    def test_replay_hits_the_seeded_cache(self):
        study = Study(jobs=2)
        study.run(only=["fig6"])
        # every point the workers computed was replayed from memory
        report = study.run_report
        assert report.rounds[0]["planned_tasks"] == report.executed
        assert runcache.CACHE.hits >= report.executed

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown experiment ids"):
            Study().run(only=["fig99"])

    def test_report_written(self, tmp_path):
        path = str(tmp_path / "run_report.json")
        execute_parallel(
            {"fig8": Study().experiments()["fig8"]}, jobs=2, report_path=path
        )
        payload = json.loads(open(path).read())
        assert payload["schema"] == 5
        assert payload["jobs"] == 2
        assert payload["requested_jobs"] == 2
        # clamped to os.cpu_count() on small hosts, never above request
        assert 1 <= payload["effective_jobs"] <= 2
        assert payload["quarantined"] == 0
        assert isinstance(payload["tasks"], list)
        assert all(
            isinstance(r["batch_sizes"], list) for r in payload["rounds"]
        )
        # schema 4: the run cache's counters ride along
        cache = payload["runcache"]
        assert set(cache) >= {"hits", "misses", "stores", "seeds",
                              "disk_hits", "entries"}
        assert all(isinstance(v, int) for v in cache.values())
        # schema 5: so do the prefix-snapshot counters
        fork = payload["forkpoint"]
        assert set(fork) >= {"snapshots_taken", "forks_served",
                             "fork_declines"}
        assert isinstance(fork["snapshots_taken"], int)
        assert isinstance(fork["forks_served"], int)
        assert isinstance(fork["fork_declines"], dict)


class TestCliFlags:
    def test_study_list_flag(self, capsys):
        assert cli_main(["study", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out and "conclusions" in out

    def test_only_flag_comma_separated(self, capsys):
        assert cli_main(["study", "--only", "fig4,fig8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Figure 8" in out
        assert "Figure 6" not in out

    def test_only_flag_unknown_id_fails(self, capsys):
        assert cli_main(["study", "--only", "fig99"]) == 2
        assert "unknown experiment ids" in capsys.readouterr().out

    def test_jobs_flag_with_export_writes_report(self, tmp_path, capsys):
        export = str(tmp_path / "out")
        assert cli_main(
            ["study", "fig8", "--jobs", "2", "--export", export]
        ) == 0
        out = capsys.readouterr().out
        assert "parallel executor:" in out
        assert os.path.exists(os.path.join(export, "run_report.json"))
        assert os.path.exists(os.path.join(export, "fig8.csv"))
