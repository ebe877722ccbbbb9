"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestDatasetCommand:
    def test_prints_stats(self, capsys):
        code = main(["dataset", "--records", "2000", "--days", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "records:    2,000" in out
        assert "temperature" in out

    def test_seed_changes_output(self, capsys):
        main(["dataset", "--records", "2000", "--seed", "1"])
        first = capsys.readouterr().out
        main(["dataset", "--records", "2000", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestQueryCommand:
    def test_basic_run(self, capsys):
        code = main(
            [
                "query",
                "--records", "5000",
                "--nodes", "4",
                "--spatial", "3",
                "--repeat", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "run 1:" in out and "run 2:" in out
        assert "provenance" in out

    def test_caching_visible_across_repeats(self, capsys):
        main(
            [
                "query",
                "--records", "5000",
                "--nodes", "4",
                "--spatial", "3",
                "--repeat", "2",
            ]
        )
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip().startswith("run")]
        first_ms = float(lines[0].split()[2])
        second_ms = float(lines[1].split()[2])
        assert second_ms < first_ms

    def test_engine_choices(self, capsys):
        for engine in ("basic", "elastic"):
            code = main(
                [
                    "query",
                    "--engine", engine,
                    "--records", "4000",
                    "--nodes", "4",
                    "--spatial", "3",
                    "--repeat", "1",
                ]
            )
            assert code == 0

    def test_bad_box(self, capsys):
        code = main(["query", "--box", "not-a-box"])
        assert code == 2
        assert "south,north,west,east" in capsys.readouterr().err

    def test_json_output(self, capsys):
        import json

        code = main(
            [
                "query",
                "--records", "4000",
                "--nodes", "4",
                "--spatial", "3",
                "--repeat", "1",
                "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The JSON body starts at the first line-leading brace (earlier
        # braces belong to the provenance dicts in the run lines).
        body = out[out.rindex("\n{") + 1 :]
        parsed = json.loads(body)
        assert "cells" in parsed

    def test_heatmap_output(self, capsys):
        code = main(
            [
                "query",
                "--records", "4000",
                "--nodes", "4",
                "--spatial", "3",
                "--repeat", "1",
                "--heatmap", "temperature",
            ]
        )
        assert code == 0
        assert "temperature (mean)" in capsys.readouterr().out


class TestExperimentCommand:
    def test_runs_unit_scale_experiment(self, capsys):
        code = main(["experiment", "fig6c", "--scale", "unit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig6c" in out
        assert "cells_populated" in out

    def test_save_writes_files(self, tmp_path, capsys, monkeypatch):
        import repro.bench.reporting as reporting

        monkeypatch.setattr(reporting, "RESULTS_DIR", tmp_path)
        code = main(["experiment", "fig6c", "--scale", "unit", "--save"])
        assert code == 0
        assert (tmp_path / "fig6c.txt").exists()
        assert (tmp_path / "fig6c.json").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestTraceCommand:
    def test_record_then_replay(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        code = main(
            [
                "trace", "record", path,
                "--workload", "hotspot",
                "--requests", "10",
            ]
        )
        assert code == 0
        assert "wrote 10 queries" in capsys.readouterr().out
        code = main(
            [
                "trace", "replay", path,
                "--records", "5000",
                "--nodes", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "replayed 10 queries on stash" in out
        assert "mean latency" in out

    def test_record_workload_kinds(self, tmp_path, capsys):
        for kind in ("pan-cloud", "zipf"):
            path = str(tmp_path / f"{kind}.jsonl")
            assert main(
                ["trace", "record", path, "--workload", kind, "--requests", "8"]
            ) == 0

    def test_replay_concurrent(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        main(["trace", "record", path, "--requests", "6"])
        capsys.readouterr()
        code = main(
            [
                "trace", "replay", path,
                "--records", "5000",
                "--nodes", "4",
                "--concurrent",
            ]
        )
        assert code == 0
        assert "queries/s" in capsys.readouterr().out


class TestExplainCommand:
    def test_waterfall_for_slowest_query(self, capsys):
        code = main(
            [
                "explain",
                "--records", "5000",
                "--nodes", "4",
                "--requests", "6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "critical path:" in out
        assert " ms  [" in out  # at least one waterfall row with a gantt bar

    def test_explain_specific_query_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(
            [
                "explain",
                "--records", "5000",
                "--nodes", "4",
                "--requests", "4",
                "--query", "2",
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        assert trace.exists()
        assert "critical path:" in capsys.readouterr().out

    def test_bad_query_index_rejected(self, capsys):
        code = main(
            [
                "explain",
                "--records", "5000",
                "--nodes", "4",
                "--requests", "3",
                "--query", "99",
            ]
        )
        assert code == 2
        assert "out of range" in capsys.readouterr().err


class TestBenchScaleCommand:
    def test_unwritable_output_is_exit_2(self, capsys):
        code = main(
            [
                "bench", "scale", "--quick",
                "--nodes", "2", "--users", "2",
                "--output", "/nonexistent/x.json",
            ]
        )
        assert code == 2
        assert "error: cannot write /nonexistent/x.json" in capsys.readouterr().err


class TestMetricsCommand:
    ARGS = ["metrics", "--requests", "2", "--records", "2000", "--nodes", "2"]

    def test_json_series_end_with_a_newline(self, tmp_path, capsys):
        import json

        path = tmp_path / "series.json"
        assert main(self.ARGS + ["--json", str(path)]) == 0
        assert f"wrote series to {path}" in capsys.readouterr().out
        text = path.read_text()
        assert text.endswith("}\n")
        json.loads(text)

    def test_unwritable_json_is_exit_2_not_a_traceback(self, capsys):
        # Every report writer goes through the one guarded write_json.
        code = main(self.ARGS + ["--json", "/nonexistent/x.json"])
        assert code == 2
        assert "error: cannot write /nonexistent/x.json" in capsys.readouterr().err


class TestBadInput:
    """A library error reaches the user as one ``error:`` line and exit 2."""

    SMALL = ["--records", "2000", "--nodes", "2"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--day", "2013-13-01", *SMALL],
            ["query", "--box", "41,37,-109,-102", *SMALL],
            ["query", "--spatial", "0", *SMALL],
            ["query", "--records", "0"],
            ["dataset", "--records", "0"],
            ["query", "--nodes", "0", "--records", "2000"],
            ["faults", "run", "{schedule}", "--requests", "0"],
            ["trace", "replay", "{empty}", *SMALL],
            ["trace", "replay", "{missing}", *SMALL],
            ["trace", "record", "{missing}", "--requests", "-3"],
        ],
        ids=[
            "bad-day", "inverted-box", "spatial-0", "query-records-0",
            "dataset-records-0", "nodes-0", "faults-requests-0",
            "replay-empty", "replay-missing", "record-negative-requests",
        ],
    )
    def test_exit_2_without_a_traceback(self, argv, tmp_path, capsys):
        from repro.faults.schedule import FaultSchedule

        schedule = tmp_path / "schedule.json"
        schedule.write_text(
            FaultSchedule.crash_restart("node-1", 5.0, 20.0).to_json()
        )
        (tmp_path / "empty.jsonl").write_text("")
        paths = {
            "schedule": str(schedule),
            "empty": str(tmp_path / "empty.jsonl"),
            "missing": str(tmp_path / "missing.jsonl"),
        }
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not (tmp_path / "missing.jsonl").exists()
