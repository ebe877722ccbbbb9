"""Tests for the benchmark harness plumbing."""

import pytest

from repro.bench.harness import (
    BenchScale,
    ExperimentResult,
    bench_config,
    bench_dataset,
    make_system,
)
from repro.bench.reporting import save_result
from repro.errors import WorkloadError


class TestBenchScale:
    def test_unit_smaller_than_default(self):
        unit, default = BenchScale.unit(), BenchScale.default()
        assert unit.num_records < default.num_records
        assert unit.num_nodes < default.num_nodes

    def test_with_override(self):
        scale = BenchScale.unit().with_(num_nodes=3)
        assert scale.num_nodes == 3
        assert scale.num_records == BenchScale.unit().num_records

    def test_rng_seeded(self):
        scale = BenchScale.unit()
        assert scale.rng(1).integers(0, 1000) == scale.rng(1).integers(0, 1000)
        assert scale.rng(1).integers(0, 1000) != scale.rng(2).integers(0, 1000)


class TestBenchDataset:
    def test_cached_per_process(self):
        scale = BenchScale.unit()
        assert bench_dataset(scale) is bench_dataset(scale)

    def test_different_scales_different_data(self):
        a = bench_dataset(BenchScale.unit())
        b = bench_dataset(BenchScale.unit().with_(num_records=5_000))
        assert len(a) != len(b)


class TestMakeSystem:
    @pytest.mark.parametrize("kind", ["basic", "stash", "elastic"])
    def test_known_kinds(self, kind):
        scale = BenchScale.unit()
        system = make_system(kind, bench_dataset(scale), bench_config(scale))
        assert system is not None

    def test_unknown_kind(self):
        scale = BenchScale.unit()
        with pytest.raises(WorkloadError):
            make_system("oracle", bench_dataset(scale), bench_config(scale))


class TestExperimentResult:
    def _result(self):
        result = ExperimentResult(name="demo", description="demo experiment")
        result.add("basic", "q1", 1.0)
        result.add("basic", "q2", 2.0)
        result.add("stash", "q1", 0.5)
        result.meta["speedup"] = 2.0
        return result

    def test_row_labels_in_insertion_order(self):
        assert self._result().row_labels() == ["q1", "q2"]

    def test_format_table_contains_everything(self):
        table = self._result().format_table()
        assert "demo experiment" in table
        assert "basic" in table and "stash" in table
        assert "q1" in table and "q2" in table
        assert "speedup=2.0" in table

    def test_missing_values_rendered_as_dash(self):
        table = self._result().format_table()
        # stash has no q2 value.
        stash_line = [l for l in table.splitlines() if l.startswith("q2")][0]
        assert "-" in stash_line

    def test_ascii_chart_renders_all_series(self):
        from repro.bench.reporting import ascii_chart

        chart = ascii_chart(self._result())
        assert "legend" in chart
        assert "basic" in chart and "stash" in chart
        assert "q1" in chart and "q2" in chart
        # Largest value gets the longest bar.
        lines = [l for l in chart.splitlines() if "#" in l and "|" in l]
        longest = max(lines, key=lambda l: l.count("#"))
        assert "2" in longest  # the q2 basic value

    def test_ascii_chart_empty_values(self):
        from repro.bench.reporting import ascii_chart

        empty = ExperimentResult(name="x", description="y")
        assert "no positive values" in ascii_chart(empty)

    def test_save_result_writes_both_files(self, tmp_path):
        path = save_result(self._result(), directory=tmp_path)
        assert path.exists()
        assert (tmp_path / "demo.json").exists()
        import json

        body = json.loads((tmp_path / "demo.json").read_text())
        assert body["series"]["basic"]["q2"] == 2.0
