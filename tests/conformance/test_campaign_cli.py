"""The ``repro conform`` subcommand and the documented mutation check.

The mutation check is the acceptance test for the whole harness: corrupt
the roll-up merge (``repro.core.aggregation.merge_summaries``) and the
campaign must exit non-zero with a minimal failing query in the report.
docs/testing.md documents this exact procedure.
"""

import json


import repro.core.aggregation
from repro.cli import main
from repro.oracle import run_campaign


class TestConformCli:
    def test_exit_zero_on_healthy_build(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "conform",
                "--seed", "0",
                "--queries-per-axis", "3",
                "--axis", "cold-cache",
                "--json", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "CONFORMS" in printed
        data = json.loads(out.read_text())
        assert data["ok"] is True
        assert data["total_divergences"] == 0

    def test_unknown_axis_rejected(self, capsys):
        assert main(["conform", "--axis", "nonsense"]) == 2
        assert "unknown axis" in capsys.readouterr().err


def _corrupt_rollup_merge(monkeypatch):
    real = repro.core.aggregation.merge_summaries

    def corrupted(summaries, attributes):
        nonempty = [s for s in summaries if not s.is_empty]
        if len(nonempty) > 1:
            nonempty = nonempty[:-1]  # silently drop one child
        return real(nonempty, attributes)

    monkeypatch.setattr(repro.core.aggregation, "merge_summaries", corrupted)


class TestMutationCheck:
    def test_corrupt_rollup_merge_diverges(self, monkeypatch):
        _corrupt_rollup_merge(monkeypatch)
        report = run_campaign(seed=0, queries_per_axis=5, axes=["rollup"])
        assert not report.ok
        divergence = report.axes[0].divergences[0]
        assert divergence.kind in ("value-mismatch", "missing-cell")
        # The report shrinks the first failures to a minimal reproducer.
        minimized = [d for d in report.axes[0].divergences if d.minimal is not None]
        assert minimized
        for d in minimized:
            assert d.minimal.footprint_size() <= d.query.footprint_size()
        assert "minimal:" in report.format()

    def test_corrupt_rollup_merge_fails_cli(self, monkeypatch, capsys):
        _corrupt_rollup_merge(monkeypatch)
        code = main(
            ["conform", "--seed", "0", "--queries-per-axis", "5", "--axis", "rollup"]
        )
        assert code == 1
        assert "DIVERGES" in capsys.readouterr().out

    def test_corrupt_scan_merge_diverges(self, monkeypatch):
        """The cross-block scan merge is a separate code path; corrupting
        it must be caught by the plain cold-cache axis.  Since the fused
        scan, one leg's per-block partial rows arrive in a single frame
        and ``SummaryFrame.merge_all`` folds the rows of equal id — so
        the corruption hits wherever rows were folded, not wherever
        several frames came in."""
        from repro.data.statistics import SummaryFrame

        real = SummaryFrame.merge_all

        def corrupted(frames):
            merged = real(frames)
            if len(merged) < sum(len(frame) for frame in frames):
                merged = SummaryFrame(
                    merged.ids,
                    merged.counts,
                    {
                        name: (cols[0] * 1.001, cols[1], cols[2], cols[3])
                        for name, cols in merged.columns.items()
                    },
                )
            return merged

        monkeypatch.setattr(SummaryFrame, "merge_all", staticmethod(corrupted))
        report = run_campaign(seed=0, queries_per_axis=6, axes=["cold-cache"])
        assert not report.ok

    def test_corrupt_completeness_flag_diverges(self, monkeypatch):
        """Dropping cells while claiming completeness 1.0 (the silent-wrong
        failure mode) is a divergence, not a tolerated partial."""
        from repro.query.model import QueryResult

        original = QueryResult.__init__

        def lossy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if len(self.cells) > 2:
                for key in list(self.cells)[:1]:
                    del self.cells[key]

        monkeypatch.setattr(QueryResult, "__init__", lossy)
        report = run_campaign(seed=0, queries_per_axis=4, axes=["cold-cache"])
        assert not report.ok
        kinds = {d.kind for axis in report.axes for d in axis.divergences}
        assert "missing-cell" in kinds
