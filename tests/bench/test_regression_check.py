"""The bench regression sentinel: compare_reports and ``bench check``.

The ISSUE acceptance bar: a synthetic 2x slowdown must fail the check,
a clean re-run must pass, and cross-environment baselines are refused.
"""

import copy
import json

import pytest

from repro.bench.regression import (
    DEFAULT_THRESHOLD,
    MIN_SECONDS,
    compare_reports,
    env_mismatches,
    flatten_metrics,
    format_check,
    meta_of,
)
from repro.cli import main


def fake_report(scale: float = 1.0, **meta_overrides) -> dict:
    """A small kernel report with controllable timings and environment."""
    meta = {
        "python": "3.11.0",
        "numpy": "1.26.0",
        "seed": 42,
        "git_rev": "abc1234",
        "date": "2026-08-07T00:00:00Z",
    }
    meta.update(meta_overrides)
    return {
        "schema": "stash-bench-kernels/v3",
        "quick": True,
        "sizes": [2_000],
        "repeats": 2,
        "seed": meta["seed"],
        "meta": meta,
        "kernels": {
            "freshness": {
                "2000": {"footprint_keys": 512, "seconds": 0.002 * scale}
            },
            "plan": {"2000": {"footprint_keys": 512, "seconds": 0.080 * scale}},
            "eviction": {"2000": {"seconds": 0.004 * scale}},
        },
    }


class TestCompareReports:
    def test_clean_rerun_passes(self):
        verdict = compare_reports(fake_report(), fake_report(1.05))
        assert verdict["status"] == "ok"
        assert verdict["regressions"] == 0
        assert verdict["compared"] == 3

    def test_synthetic_2x_slowdown_fails(self):
        verdict = compare_reports(fake_report(), fake_report(2.0))
        assert verdict["status"] == "regression"
        assert verdict["regressions"] == 3
        regressed = [r["metric"] for r in verdict["rows"] if r.get("regressed")]
        assert "freshness@2000/seconds" in regressed
        assert "eviction@2000/seconds" in regressed

    def test_env_mismatch_refused(self):
        verdict = compare_reports(
            fake_report(), fake_report(1.0, python="3.12.1")
        )
        assert verdict["status"] == "env-mismatch"
        assert any("python" in line for line in verdict["mismatches"])
        # Refusal beats regression detection: even a 10x slowdown from a
        # different interpreter is not reported as one.
        verdict = compare_reports(
            fake_report(), fake_report(10.0, numpy="2.0.0")
        )
        assert verdict["status"] == "env-mismatch"

    def test_seed_mismatch_refused(self):
        mismatches = env_mismatches(fake_report(), fake_report(1.0, seed=7))
        assert mismatches and "seed" in mismatches[0]

    def test_noise_floor_widens_threshold(self):
        """A metric whose own re-runs differ by 1.6x cannot fail at 1.5x."""
        baseline = fake_report()
        fresh = fake_report(1.7)
        rerun = copy.deepcopy(fresh)
        for by_size in rerun["kernels"].values():
            for entry in by_size.values():
                entry["seconds"] *= 1.6
        verdict = compare_reports(baseline, fresh, rerun=rerun)
        assert verdict["status"] == "ok"
        for row in verdict["rows"]:
            assert row["threshold"] == pytest.approx(1.6 * 1.25)

    def test_sub_noise_timings_skipped(self):
        baseline = fake_report()
        baseline["kernels"]["eviction"]["2000"]["seconds"] = MIN_SECONDS / 2
        verdict = compare_reports(baseline, fake_report(2.0))
        skipped = [r for r in verdict["rows"] if "skipped" in r]
        assert [r["metric"] for r in skipped] == ["eviction@2000/seconds"]

    def test_v1_baseline_meta_fallback(self):
        v1 = fake_report()
        del v1["meta"]
        v1.update(python="3.11.0", numpy="1.26.0", seed=42)
        assert meta_of(v1) == {"python": "3.11.0", "numpy": "1.26.0", "seed": 42}
        assert env_mismatches(v1, fake_report()) == []

    def test_flatten_metrics_names(self):
        metrics = flatten_metrics(fake_report())
        assert set(metrics) == {
            "freshness@2000/seconds",
            "plan@2000/seconds",
            "eviction@2000/seconds",
        }

    def test_format_check_renders_both_verdicts(self):
        ok = format_check(compare_reports(fake_report(), fake_report()))
        assert "0 regressions" in ok
        refused = format_check(
            compare_reports(fake_report(), fake_report(1.0, seed=1))
        )
        assert "REFUSED" in refused


class TestBenchCheckCli:
    """Exit codes: 0 ok, 1 regression, 2 refusal/bad input."""

    @pytest.fixture(scope="class")
    def real_baseline(self, tmp_path_factory):
        """A baseline generated in *this* environment via the CLI itself."""
        path = tmp_path_factory.mktemp("bench") / "baseline.json"
        code = main(
            ["bench", "kernels", "--quick", "--repeats", "1",
             "--output", str(path)]
        )
        assert code == 0
        return path

    def test_clean_rerun_exits_zero(self, real_baseline, capsys):
        assert main(["bench", "check", "--baseline", str(real_baseline)]) == 0
        out = capsys.readouterr().out
        assert "0 regressions" in out

    def test_doctored_baseline_exits_one(self, real_baseline, tmp_path, capsys):
        """Halve every baseline timing == a synthetic 2x slowdown now."""
        baseline = json.loads(real_baseline.read_text())
        for by_size in baseline["kernels"].values():
            for entry in by_size.values():
                entry["seconds"] /= 8.0
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(baseline))
        verdict_path = tmp_path / "verdict.json"
        code = main(
            ["bench", "check", "--baseline", str(doctored),
             "--json", str(verdict_path)]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out
        verdict = json.loads(verdict_path.read_text())
        assert verdict["status"] == "regression"

    def test_foreign_baseline_exits_two(self, real_baseline, tmp_path, capsys):
        baseline = json.loads(real_baseline.read_text())
        baseline["meta"]["python"] = "2.7.18"
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps(baseline))
        assert main(["bench", "check", "--baseline", str(foreign)]) == 2
        assert "REFUSED" in capsys.readouterr().out

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["bench", "check", "--baseline", str(missing)]) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_default_threshold_is_published(self):
        assert DEFAULT_THRESHOLD == 1.5

    def test_grouped_aggregation_metrics_are_covered(self, real_baseline):
        """The scan kernel is part of the regression surface, and only
        production-function timings are: every flattened metric is a
        ``seconds`` field (quick mode runs 20k records)."""
        baseline = json.loads(real_baseline.read_text())
        assert baseline["schema"] == "stash-bench-kernels/v3"
        metrics = flatten_metrics(baseline)
        assert "grouped_aggregation@20000/seconds" in metrics
        assert all(name.endswith("/seconds") for name in metrics)
        for by_size in baseline["kernels"].values():
            for entry in by_size.values():
                assert not {"scalar_s", "naive_s", "speedup"} & set(entry)

    def test_grouped_aggregation_regression_exits_one(
        self, real_baseline, tmp_path, capsys
    ):
        """A slowdown in the scan kernel alone must fail the check."""
        baseline = json.loads(real_baseline.read_text())
        entry = baseline["kernels"]["grouped_aggregation"]["20000"]
        entry["seconds"] /= 16.0
        doctored = tmp_path / "agg-doctored.json"
        doctored.write_text(json.dumps(baseline))
        code = main(["bench", "check", "--baseline", str(doctored)])
        assert code == 1
        out = capsys.readouterr().out
        assert "grouped_aggregation@20000/seconds" in out
