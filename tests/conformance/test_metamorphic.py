"""Metamorphic relations hold on a live cluster — and catch corruption.

Relations need no oracle, so they also serve as the cheapest mutation
detectors: the sensitivity tests below corrupt a production merge and
assert the relation actually notices.
"""

import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.aggregation
from repro.config import ClusterConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.oracle.metamorphic import (
    check_eviction_independence,
    check_pan_consistency,
    check_parent_children,
    check_split_additivity,
)
from repro.query.model import AggregationQuery
from tests.strategies import queries

DATASET = small_test_dataset(num_records=4_000, num_days=4)
CONFIG = StashConfig(cluster=ClusterConfig(num_nodes=5))


def fresh_cluster():
    return StashCluster(DATASET, CONFIG)


def q(box, precision=3, temporal=TemporalResolution.DAY, day=2):
    return AggregationQuery(
        bbox=box,
        time_range=TimeKey.of(2013, 2, day).epoch_range(),
        resolution=Resolution(precision, temporal),
    )


BOXES = [
    BoundingBox(32.0, 38.0, -112.0, -100.0),
    BoundingBox(44.0, 50.0, -95.0, -85.0),
]


class TestRelationsHold:
    def test_parent_children_spatial(self):
        cluster = fresh_cluster()
        for box in BOXES:
            assert check_parent_children(cluster, q(box, precision=2), "spatial") == []

    def test_parent_children_temporal(self):
        cluster = fresh_cluster()
        assert check_parent_children(cluster, q(BOXES[0]), "temporal") == []

    def test_pan_consistency(self):
        cluster = fresh_cluster()
        query = q(BOXES[0], precision=4)
        assert check_pan_consistency(cluster, query, 1.5, -2.0) == []

    def test_split_additivity(self):
        cluster = fresh_cluster()
        for box in BOXES:
            assert check_split_additivity(cluster, q(box, precision=4)) == []

    def test_eviction_independence(self):
        cluster = fresh_cluster()
        query = q(BOXES[1], precision=4)
        assert check_eviction_independence(cluster, query) == []
        assert cluster.total_cached_cells() > 0  # flush happened mid-check, refilled

    @given(queries(min_precision=3, max_precision=4))
    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_split_additivity_random(self, query):
        assert check_split_additivity(fresh_cluster(), query) == []


class TestQuerySplitsPartition:
    @given(queries())
    @settings(max_examples=40, deadline=None)
    def test_spatial_split_partitions_footprint(self, query):
        parts = query.split_spatial()
        if not parts:
            return
        whole = set(query.footprint())
        fps = [set(p.footprint()) for p in parts]
        assert set.union(*fps) == whole
        assert sum(len(fp) for fp in fps) == len(whole)

    @given(queries(multi_day=True))
    @settings(max_examples=40, deadline=None)
    def test_temporal_split_partitions_footprint(self, query):
        parts = query.split_temporal()
        if not parts:
            return
        whole = set(query.footprint())
        fps = [set(p.footprint()) for p in parts]
        assert set.union(*fps) == whole
        assert sum(len(fp) for fp in fps) == len(whole)

    def test_single_cell_query_does_not_split(self):
        tiny = q(BoundingBox(35.0, 35.01, -105.0, -104.99), precision=2)
        assert tiny.split_spatial() == []
        assert tiny.split_temporal() == []


class TestRelationSensitivity:
    """A corrupted merge must trip the relations (mutation check)."""

    def test_parent_children_catches_corrupt_rollup(self, monkeypatch):
        real = repro.core.aggregation.merge_summaries

        def corrupted(summaries, attributes):
            nonempty = [s for s in summaries if not s.is_empty]
            if len(nonempty) > 1:
                nonempty = nonempty[:-1]
            return real(nonempty, attributes)

        monkeypatch.setattr(
            repro.core.aggregation, "merge_summaries", corrupted
        )
        cluster = fresh_cluster()
        query = q(BOXES[0], precision=2)
        # Warm the child level so the parent query takes the roll-up path.
        child = AggregationQuery(
            bbox=query.snapped_bbox(),
            time_range=query.snapped_time_range(),
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        cluster.warm([child])
        failures = check_parent_children(cluster, query, "spatial")
        assert failures, "corrupted roll-up merge not detected"
        assert all(f.relation == "parent-children:spatial" for f in failures)

    def test_pan_consistency_catches_unstable_cache(self, monkeypatch):
        """If cached cell values drifted between reads (e.g. a cell clipped
        to whichever query populated it instead of its full extent), two
        overlapping pans would disagree on shared cells."""
        from repro.core.cell import Cell
        from repro.core.graph import StashGraph
        from repro.data.statistics import AttributeSummary, SummaryVector

        real_get = StashGraph.get
        reads = [0]

        def drifting(self, key):
            cell = real_get(self, key)
            if cell is not None and not cell.summary.is_empty:
                reads[0] += 1
                bad = SummaryVector(
                    {
                        name: AttributeSummary(
                            s.count,
                            s.total + 0.01 * reads[0],
                            s.total_sq,
                            s.minimum,
                            s.maximum,
                        )
                        for name, s in (
                            (a, cell.summary[a]) for a in cell.summary.attributes
                        )
                    }
                )
                return Cell(key=cell.key, summary=bad)
            return cell

        monkeypatch.setattr(StashGraph, "get", drifting)
        cluster = fresh_cluster()
        query = q(BOXES[0], precision=3)
        cluster.warm([query])
        failures = check_pan_consistency(cluster, query, 0.5, 0.5)
        assert failures, "drifting cached values not detected"


@pytest.mark.parametrize("axis", ["spatial", "temporal"])
def test_degraded_results_skip_relations(axis):
    """Relations never fire on explicit partial answers (no false alarms)."""
    cluster = fresh_cluster()
    query = q(BOXES[0], precision=2)

    class FakeDegraded:
        completeness = 0.5
        degraded = True
        cells = {}

    cluster.run_query = lambda q: FakeDegraded()  # type: ignore[assignment]
    assert check_parent_children(cluster, query, axis) == []
