"""Unit tests for table export and the CLI entry point."""

import json
import os

import pytest

from repro.core import TableResult
from repro.core.export import from_json, to_csv, to_json, write_files
from repro.__main__ import main as cli_main


def sample_table():
    t = TableResult("Figure X", "demo table", ["name", "value"])
    t.add(name="a", value=1.5)
    t.add(name="b", value=None)
    t.note("a note")
    return t


class TestExport:
    def test_json_roundtrip(self):
        t = sample_table()
        rebuilt = from_json(to_json(t))
        assert rebuilt.ident == t.ident
        assert rebuilt.columns == t.columns
        assert rebuilt.rows == t.rows
        assert rebuilt.notes == t.notes

    def test_json_is_valid(self):
        payload = json.loads(to_json(sample_table()))
        assert payload["id"] == "Figure X"
        assert len(payload["rows"]) == 2

    def test_csv_structure(self):
        text = to_csv(sample_table())
        lines = text.strip().splitlines()
        assert lines[0] == "# a note"
        assert lines[1] == "name,value"
        assert lines[2] == "a,1.5"

    def test_write_files(self, tmp_path):
        stem = str(tmp_path / "out")
        write_files(sample_table(), stem)
        assert os.path.exists(stem + ".json")
        assert os.path.exists(stem + ".csv")


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out
        assert "table5" in out

    def test_study_selected_with_export(self, tmp_path, capsys):
        export = str(tmp_path / "exp")
        assert cli_main(["study", "fig4", "--export", export]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert os.path.exists(os.path.join(export, "fig4.csv"))

    def test_no_command_prints_help(self, capsys):
        assert cli_main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    @pytest.mark.parametrize("argv", [
        ["submit", "--fig", "2a"],
        ["submit", "--chaos-seed", "7"],
        ["chaos", "--jobs", "2"],
        ["study", "--only", "fig4"],
        ["study", "--list"],
    ], ids=["submit-fig", "submit-chaos-seed", "chaos-jobs", "study-only",
            "study-list"])
    def test_one_front_end_per_campaign(self, argv, tmp_path, capsys):
        # a figure is served by `study IDS --service`, the chaos campaign
        # by `chaos --service`, and `list` lists; the --export keeps a
        # run that parses anyway out of results/
        with pytest.raises(SystemExit) as exited:
            cli_main(argv + ["--export", str(tmp_path)])
        assert exited.value.code == 2
        assert "error:" in capsys.readouterr().err
