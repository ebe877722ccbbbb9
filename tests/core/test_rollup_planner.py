"""Tests for roll-up recomputation and the query planner."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import try_rollup
from repro.core.cell import Cell
from repro.core.graph import StashGraph
from repro.core.keys import CellKey
from repro.core.planner import plan_query
from repro.data.statistics import SummaryVector
from repro.geo import geohash as gh
from repro.geo.resolution import ResolutionSpace
from repro.geo.temporal import TimeKey

SPACE = ResolutionSpace(1, 8)
DAY = TimeKey.of(2013, 2, 2)
ATTRS = ["temperature"]


def cell_with(geohash, time_key, values):
    key = CellKey(geohash, time_key)
    if len(values) == 0:
        return Cell(key=key, summary=SummaryVector.empty(ATTRS))
    return Cell(
        key=key,
        summary=SummaryVector.from_arrays({"temperature": np.asarray(values, float)}),
    )


def fill_spatial_children(graph, parent_hash, time_key=DAY, base=0.0):
    """Insert all 32 spatial children; children 0-3 nonempty, rest empty."""
    total = []
    for i, child in enumerate(gh.children(parent_hash)):
        values = [base + i, base + i + 1] if i < 4 else []
        total.extend(values)
        graph.upsert(cell_with(child, time_key, values))
    return total


class TestRollup:
    def test_spatial_rollup_complete(self):
        graph = StashGraph(SPACE)
        values = fill_spatial_children(graph, "9q8y")
        result = try_rollup(graph, CellKey("9q8y", DAY), ATTRS)
        assert result is not None
        assert result.axis == "spatial"
        assert result.merges == 32
        expected = SummaryVector.from_arrays({"temperature": np.asarray(values)})
        assert result.summary.approx_equal(expected)

    def test_rollup_fails_with_missing_child(self):
        graph = StashGraph(SPACE)
        children = gh.children("9q8y")
        for child in children[:31]:  # one child missing
            graph.upsert(cell_with(child, DAY, [1.0]))
        assert try_rollup(graph, CellKey("9q8y", DAY), ATTRS) is None

    def test_empty_children_do_not_block_rollup(self):
        graph = StashGraph(SPACE)
        for child in gh.children("9q8y"):
            graph.upsert(cell_with(child, DAY, []))
        result = try_rollup(graph, CellKey("9q8y", DAY), ATTRS)
        assert result is not None
        assert result.summary.is_empty

    def test_temporal_rollup(self):
        graph = StashGraph(SPACE)
        month = TimeKey.of(2013, 2)
        for day_key in month.children():
            graph.upsert(cell_with("9q8y7", day_key, [float(day_key.components[2])]))
        result = try_rollup(graph, CellKey("9q8y7", month), ATTRS)
        assert result is not None
        assert result.axis == "temporal"
        assert result.summary.count == 28

    def test_spatial_preferred_over_temporal(self):
        graph = StashGraph(SPACE)
        month = TimeKey.of(2013, 2)
        fill_spatial_children(graph, "9q8y", time_key=month)
        for day_key in month.children():
            graph.upsert(cell_with("9q8y", day_key, [1.0]))
        result = try_rollup(graph, CellKey("9q8y", month), ATTRS)
        assert result.axis == "spatial"

    def test_empty_finer_levels_cost_no_child_keys(self, monkeypatch):
        """A just-flushed graph has no finer level at all: the miss path
        must learn that from the level sizes, not by building 32 + 24
        child keys per missing cell to fail on the first lookup."""

        def no_children(self, axis="spatial"):
            raise AssertionError(f"materialized the {axis} children of {self}")

        monkeypatch.setattr(CellKey, "children", no_children)
        graph = StashGraph(SPACE)
        assert try_rollup(graph, CellKey("9q8y", DAY), ATTRS) is None
        # Residents at the key's own level (or coarser) change nothing.
        graph.upsert(cell_with("9q8z", DAY, [1.0]))
        graph.upsert(cell_with("9q8", DAY, [1.0]))
        assert try_rollup(graph, CellKey("9q8y", DAY), ATTRS) is None
        plan = plan_query(graph, [CellKey("9q8y", DAY)], ATTRS)
        assert (plan.lookups, plan.merges, plan.missing) == (1, 0, [CellKey("9q8y", DAY)])

    def test_rollup_outside_space(self):
        # Children precision (9) would exceed the space's max (8).
        narrow = ResolutionSpace(1, 8)
        graph = StashGraph(narrow)
        key = CellKey("9q8y7x2w", DAY)  # precision 8: spatial children at 9
        hour_key = CellKey("9q8y7x2w", TimeKey.of(2013, 2, 2, 5))
        # No children cached at all; must simply return None, not raise.
        assert try_rollup(graph, key, ATTRS) is None
        assert try_rollup(graph, hour_key, ATTRS) is None


class TestPlanner:
    def _footprint(self):
        return [CellKey(c, DAY) for c in gh.children("9q8y")]

    def test_all_missing_on_empty_graph(self):
        graph = StashGraph(SPACE)
        footprint = self._footprint()
        plan = plan_query(graph, footprint, ATTRS)
        assert plan.cached == {} and plan.rollup == {}
        assert plan.missing == footprint
        assert plan.lookups == len(footprint)
        assert plan.hit_fraction == 0.0

    def test_all_cached(self):
        graph = StashGraph(SPACE)
        footprint = self._footprint()
        for key in footprint:
            graph.upsert(cell_with(key.geohash, DAY, [1.0]))
        plan = plan_query(graph, footprint, ATTRS)
        assert set(plan.cached) == set(footprint)
        assert plan.missing == []
        assert plan.hit_fraction == 1.0

    def test_mixed_plan_partitions_footprint(self):
        graph = StashGraph(SPACE)
        footprint = self._footprint()
        for key in footprint[:10]:
            graph.upsert(cell_with(key.geohash, DAY, [1.0]))
        # Make footprint[10] recomputable by roll-up from its children.
        fill_spatial_children(graph, footprint[10].geohash)
        plan = plan_query(graph, footprint, ATTRS)
        assert set(plan.cached) == set(footprint[:10])
        assert set(plan.rollup) == {footprint[10]}
        assert set(plan.missing) == set(footprint[11:])
        union = set(plan.cached) | set(plan.rollup) | set(plan.missing)
        assert union == set(footprint)
        assert plan.merges == 32

    def test_rollup_disabled(self):
        graph = StashGraph(SPACE)
        footprint = self._footprint()
        fill_spatial_children(graph, footprint[0].geohash)
        plan = plan_query(graph, footprint, ATTRS, attempt_rollup=False)
        assert plan.rollup == {}
        assert footprint[0] in plan.missing

    def test_found_combines_cached_and_rollup(self):
        graph = StashGraph(SPACE)
        footprint = self._footprint()[:2]
        graph.upsert(cell_with(footprint[0].geohash, DAY, [5.0]))
        fill_spatial_children(graph, footprint[1].geohash)
        plan = plan_query(graph, footprint, ATTRS)
        found = plan.found
        assert set(found) == set(footprint)
        assert plan.hit_fraction == 1.0

    def test_empty_footprint(self):
        graph = StashGraph(SPACE)
        plan = plan_query(graph, [], ATTRS)
        assert plan.hit_fraction == 1.0
        assert plan.lookups == 0
        assert plan.partition_ok([])


class TestPartitionInvariant:
    """plan_query's three-way split always partitions the footprint, and
    ``partition_ok`` is a real check — it rejects tampered plans."""

    def _crafted_graph_and_footprint(self, cached_mask, rollup_index):
        graph = StashGraph(SPACE)
        footprint = [CellKey(c, DAY) for c in gh.children("9q8y")]
        for key, cached in zip(footprint, cached_mask):
            if cached:
                graph.upsert(cell_with(key.geohash, DAY, [1.0]))
        if rollup_index is not None and not cached_mask[rollup_index]:
            fill_spatial_children(graph, footprint[rollup_index].geohash)
        return graph, footprint

    @given(
        cached_mask=st.lists(st.booleans(), min_size=32, max_size=32),
        rollup_index=st.one_of(st.none(), st.integers(min_value=0, max_value=31)),
        attempt_rollup=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_three_way_split_partitions(self, cached_mask, rollup_index, attempt_rollup):
        graph, footprint = self._crafted_graph_and_footprint(cached_mask, rollup_index)
        plan = plan_query(graph, footprint, ATTRS, attempt_rollup=attempt_rollup)
        assert plan.partition_ok(footprint)
        assert plan.lookups == len(footprint)
        expected_cached = {k for k, c in zip(footprint, cached_mask) if c}
        assert set(plan.cached) == expected_cached
        if attempt_rollup and rollup_index is not None and not cached_mask[rollup_index]:
            assert set(plan.rollup) == {footprint[rollup_index]}
        else:
            assert plan.rollup == {}

    def test_partition_ok_rejects_overlap(self):
        graph = StashGraph(SPACE)
        footprint = [CellKey(c, DAY) for c in gh.children("9q8y")]
        graph.upsert(cell_with(footprint[0].geohash, DAY, [1.0]))
        plan = plan_query(graph, footprint, ATTRS)
        assert plan.partition_ok(footprint)
        plan.missing.append(footprint[0])  # now both cached and missing
        assert not plan.partition_ok(footprint)

    def test_partition_ok_rejects_duplicates_and_drops(self):
        graph = StashGraph(SPACE)
        footprint = [CellKey(c, DAY) for c in gh.children("9q8y")]
        plan = plan_query(graph, footprint, ATTRS)
        plan.missing.append(footprint[0])  # duplicate missing entry
        assert not plan.partition_ok(footprint)
        plan.missing = [k for k in footprint if k != footprint[0]]  # dropped cell
        assert not plan.partition_ok(footprint)

    def test_partition_ok_rejects_foreign_cell(self):
        graph = StashGraph(SPACE)
        footprint = [CellKey(c, DAY) for c in gh.children("9q8y")]
        plan = plan_query(graph, footprint, ATTRS)
        plan.missing.append(CellKey("9q8z0", DAY))
        assert not plan.partition_ok(footprint)
