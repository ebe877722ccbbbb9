"""Smoke test for ``repro bench scale``: a tiny sweep end to end.

Pins the BENCH_scale.json shape (schema tag, v2 meta block, per-combo
run records) so the CI ``scale-smoke`` job and downstream tooling can
rely on it.
"""

import json

import pytest

from repro.bench.harness import BenchScale
from repro.bench.reporting import write_json
from repro.bench.scale import (
    ENGINES,
    SCHEMA,
    ScaleSweep,
    format_scale_report,
    run_scale,
)

TINY = ScaleSweep(
    node_counts=(2,),
    user_counts=(3,),
    session_length=3,
    think_time_s=0.25,
    generator_users=5_000,
    scale=BenchScale.unit(),
)


@pytest.fixture(scope="module")
def report():
    return run_scale(TINY, seed=3)


class TestReportShape:
    def test_top_level_fields(self, report):
        assert report["schema"] == SCHEMA
        assert set(report) == {
            "schema", "meta", "mode", "workload", "slo_targets",
            "generator", "runs",
        }

    def test_meta_block_is_v2(self, report):
        assert set(report["meta"]) >= {"python", "numpy", "seed", "date"}
        assert report["meta"]["seed"] == 3

    def test_one_run_per_engine_and_combo(self, report):
        runs = report["runs"]
        assert len(runs) == len(TINY.node_counts) * len(TINY.user_counts) * len(
            ENGINES
        )
        assert {run["engine"] for run in runs} == set(ENGINES)

    def test_run_record_fields(self, report):
        for run in report["runs"]:
            assert set(run) == {
                "engine", "nodes", "users", "queries", "degraded",
                "makespan_s", "throughput_qps", "wall_s", "classes",
                "outcomes", "slo", "slo_violations",
            }
            assert run["queries"] == 3 * TINY.session_length
            assert run["throughput_qps"] > 0
            for stats in run["classes"].values():
                assert set(stats) == {"count", "p50_s", "p95_s", "p99_s"}
                assert stats["p50_s"] <= stats["p95_s"] <= stats["p99_s"]
            assert sum(run["outcomes"].values()) == run["queries"]

    def test_workload_block_pins_the_table(self, report):
        workload = report["workload"]
        assert workload["session_length"] == TINY.session_length
        assert len(workload["table_digest"]) == 64

    def test_generator_measurement(self, report):
        generator = report["generator"]
        assert generator["users"] == TINY.generator_users
        assert generator["queries_per_s"] > 0
        assert len(generator["digest"]) == 64


class TestDeterminismAndOutput:
    def test_same_seed_same_table_digest(self, report):
        again = run_scale(TINY, seed=3)
        assert (
            again["workload"]["table_digest"]
            == report["workload"]["table_digest"]
        )
        assert again["generator"]["digest"] == report["generator"]["digest"]

    def test_write_and_format_round_trip(self, report, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        write_json(report, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == SCHEMA
        assert len(loaded["runs"]) == len(report["runs"])
        rendered = format_scale_report(report)
        assert "stash" in rendered and "elastic" in rendered
