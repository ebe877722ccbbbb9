"""Tests for StashGraph (residency is the PLM), freshness, and eviction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EvictionConfig, FreshnessConfig
from repro.core.cell import Cell
from repro.core.eviction import EvictionPolicy
from repro.core.freshness import FreshnessTracker, query_ring
from repro.core.graph import StashGraph, stale_extents
from repro.core.keys import CellKey
from repro.data.block import BlockId
from repro.data.statistics import SummaryVector
from repro.errors import CacheError, ResolutionError
from repro.geo import geohash as gh
from repro.geo.resolution import ResolutionSpace
from repro.geo.temporal import TimeKey
from tests.reference import lateral_neighbors, neighborhood_ring, num_levels
from tests.strategies import time_keys

SPACE = ResolutionSpace(1, 8)
DAY = TimeKey.of(2013, 2, 2)
ATTRS = ["temperature"]


def make_cell(geohash: str, day: TimeKey = DAY, value: float = 1.0) -> Cell:
    import numpy as np

    key = CellKey(geohash, day)
    return Cell(key=key, summary=SummaryVector.from_arrays({"temperature": np.array([value])}))


def empty_cell(geohash: str, day: TimeKey = DAY) -> Cell:
    return Cell(key=CellKey(geohash, day), summary=SummaryVector.empty(ATTRS))


class TestLevelArithmetic:
    """``StashGraph.level_of`` reads the level off the key's two lengths;
    ``ResolutionSpace.level_of`` is the definition it must agree with."""

    NARROW = ResolutionSpace(2, 6)

    @given(st.integers(2, 6), time_keys())
    def test_matches_the_space_for_every_resolution(self, precision, time_key):
        graph = StashGraph(self.NARROW)
        key = CellKey("9q8y7x"[:precision], time_key)
        assert graph.level_of(key) == self.NARROW.level_of(key.resolution)

    def test_covers_every_level_once(self):
        graph = StashGraph(self.NARROW)
        keys = [
            CellKey("9q8y7x"[:precision], TimeKey((2013, 2, 2, 5)[:depth]))
            for precision in range(2, 7)
            for depth in range(1, 5)
        ]
        assert sorted(map(graph.level_of, keys)) == list(range(num_levels(self.NARROW)))

    @pytest.mark.parametrize("geohash", ["9", "9q8y7x2", "9q8y7x2w3", "9q8y7x2w3bcde"])
    def test_same_error_outside_the_space(self, geohash):
        """Including precision 13, which ``Resolution`` itself refuses."""
        graph = StashGraph(self.NARROW)
        key = CellKey(geohash, DAY)
        with pytest.raises(ResolutionError) as expected:
            self.NARROW.level_of(key.resolution)
        for probe in (graph.level_of, graph.get, graph.contains):
            with pytest.raises(ResolutionError) as got:
                probe(key)
            assert str(got.value) == str(expected.value)

    def test_level_size_counts_residents(self):
        graph = StashGraph(SPACE)
        level = graph.level_of(CellKey("9q8y7", DAY))
        assert graph.level_size(level) == 0
        graph.insert(make_cell("9q8y7"))
        graph.insert(make_cell("9q8y"))
        assert graph.level_size(level) == 1
        graph.remove(CellKey("9q8y7", DAY))
        assert graph.level_size(level) == 0


    @pytest.mark.parametrize("min_spatial, max_spatial", [(1, 8), (2, 6), (3, 3)])
    def test_finer_levels_match_the_space(self, min_spatial, max_spatial):
        """``finer_levels`` is ``space.level_of`` of each finer resolution
        in the space, for keys inside it and just outside it."""
        space = ResolutionSpace(min_spatial, max_spatial)
        graph = StashGraph(space)
        for precision in range(1, 11):
            for depth in range(1, 5):
                key = CellKey("9q8y7x2w3b"[:precision], TimeKey((2013, 2, 2, 5)[:depth]))
                resolution = key.resolution
                expected = [
                    (axis, space.level_of(finer))
                    for axis, finer in (
                        ("spatial", resolution.finer_spatial()),
                        ("temporal", resolution.finer_temporal()),
                    )
                    if finer is not None and space.contains(finer)
                ]
                assert list(graph.finer_levels(key)) == expected, key


class TestGraphBasics:
    def test_insert_get_contains(self):
        graph = StashGraph(SPACE)
        cell = make_cell("9q8y7")
        graph.insert(cell)
        assert graph.contains(cell.key)
        assert graph.get(cell.key) == cell  # a snapshot, equal by value
        assert graph.get(cell.key) is not cell
        assert graph.summary_of(cell.key) is cell.summary
        assert len(graph) == 1

    def test_duplicate_insert_rejected(self):
        graph = StashGraph(SPACE)
        graph.insert(make_cell("9q8y7"))
        with pytest.raises(CacheError):
            graph.insert(make_cell("9q8y7"))

    def test_upsert_keeps_first(self):
        graph = StashGraph(SPACE)
        first = make_cell("9q8y7", value=1.0)
        second = make_cell("9q8y7", value=99.0)
        assert graph.upsert(first)
        assert not graph.upsert(second)
        assert graph.get(first.key) == first

    def test_remove(self):
        graph = StashGraph(SPACE)
        cell = make_cell("9q8y7")
        graph.insert(cell)
        graph.remove(cell.key)
        assert not graph.contains(cell.key)
        assert graph.get(cell.key) is None and graph.summary_of(cell.key) is None
        with pytest.raises(CacheError):
            graph.remove(cell.key)

    def test_levels_separate_resolutions(self):
        graph = StashGraph(SPACE)
        fine, coarse = make_cell("9q8y7"), make_cell("9q8y")
        graph.insert(fine)
        graph.insert(coarse)
        levels = {graph.level_of(fine.key), graph.level_of(coarse.key)}
        assert len(levels) == 2
        assert all(graph.level_size(level) == 1 for level in levels)

    def test_empty_cell_is_resident(self):
        graph = StashGraph(SPACE)
        cell = empty_cell("9q8y7")
        graph.insert(cell)
        assert graph.contains(cell.key)
        assert graph.get(cell.key).count == 0


class TestCellIsASnapshot:
    """A level holds summaries and the freshness lives in its columns, so a
    ``Cell`` object belongs to no graph: one inserted into two graphs and
    removed from one leaves the other's bookkeeping intact."""

    def _twice_inserted(self):
        tracker = FreshnessTracker(FreshnessConfig(half_life=100.0))
        first, second = StashGraph(SPACE, "first"), StashGraph(SPACE, "second")
        cell = make_cell("9q8y7")
        first.insert(cell)
        second.insert(cell)
        tracker.touch_cells(second, [cell.key], now=10.0)
        return first, second, cell

    def _bookkeeping(self, graph, key):
        cell = graph.get(key)
        return cell.freshness, cell.last_touched, cell.access_count

    def test_remove_from_one_graph_keeps_the_other(self):
        first, second, cell = self._twice_inserted()
        assert self._bookkeeping(second, cell.key) == (1.0, 10.0, 1)
        first.remove(cell.key)
        assert self._bookkeeping(second, cell.key) == (1.0, 10.0, 1)
        assert [c.access_count for c in second.cells()] == [1]
        # The inserted object itself was only ever copied.
        assert (cell.freshness, cell.last_touched, cell.access_count) == (0.0, 0.0, 0)

    def test_clear_of_one_graph_keeps_the_other(self):
        first, second, cell = self._twice_inserted()
        first.clear()
        assert self._bookkeeping(second, cell.key) == (1.0, 10.0, 1)

    def test_upsert_copies_the_snapshot_bookkeeping(self):
        graph = StashGraph(SPACE)
        cell = Cell(
            key=CellKey("9q8y7", DAY),
            summary=make_cell("9q8y7").summary,
            freshness=1.5,
            last_touched=2.0,
            access_count=3,
        )
        assert graph.upsert(cell)
        cell.freshness = 99.0  # writing to the object changes nothing inside
        assert self._bookkeeping(graph, cell.key) == (1.5, 2.0, 3)


class TestPLM:
    """Residency is the PLM: a cell is complete iff it is resident."""

    def test_invalidate_block(self):
        graph = StashGraph(SPACE)
        block = BlockId("9q", "2013-02-02")
        a = make_cell("9q8y7")
        b = make_cell("9q8yd")
        c = make_cell("9r8y7")
        for cell in (a, b, c):
            graph.insert(cell)
        stale = graph.invalidate_extents(stale_extents([block], 2), 2)
        assert set(stale) == {a.key, b.key}
        assert not graph.contains(a.key)
        assert graph.contains(c.key)

    def test_plm_remove_unknown(self):
        graph = StashGraph(SPACE)
        with pytest.raises(CacheError):
            graph.remove(CellKey("9q8y7", DAY))


class TestFreshness:
    def test_touch_increments(self, monkeypatch):
        monkeypatch.setattr("repro.core.freshness.F_INC", 2.0)
        tracker = FreshnessTracker(FreshnessConfig(half_life=100.0))
        graph = StashGraph(SPACE)
        cell = make_cell("9q8y7")
        graph.insert(cell)
        touched = tracker.touch_cells(graph, [cell.key], now=0.0)
        assert touched == 1
        assert graph.get(cell.key).freshness == pytest.approx(2.0)
        assert graph.get(cell.key).access_count == 1

    def test_touch_absent_skipped(self):
        tracker = FreshnessTracker(FreshnessConfig())
        graph = StashGraph(SPACE)
        assert tracker.touch_cells(graph, [CellKey("9q8y7", DAY)], now=0.0) == 0

    def test_decay_halves_at_half_life(self):
        config = FreshnessConfig(half_life=10.0)
        tracker = FreshnessTracker(config)
        graph = StashGraph(SPACE)
        cell = make_cell("9q8y7")
        graph.insert(cell)
        tracker.touch_cells(graph, [cell.key], now=0.0)
        assert tracker.score(graph.get(cell.key), now=10.0) == pytest.approx(0.5)

    def test_repeat_access_accumulates(self):
        config = FreshnessConfig(half_life=1e9)
        tracker = FreshnessTracker(config)
        graph = StashGraph(SPACE)
        cell = make_cell("9q8y7")
        graph.insert(cell)
        for t in range(5):
            tracker.touch_cells(graph, [cell.key], now=float(t))
        assert graph.get(cell.key).freshness == pytest.approx(5.0, rel=1e-6)

    def test_dispersion_fraction(self):
        config = FreshnessConfig(dispersion_fraction=0.25, half_life=1e9)
        tracker = FreshnessTracker(config)
        graph = StashGraph(SPACE)
        ring_cell = make_cell("9q8yd")
        graph.insert(ring_cell)
        tracker.touch_cells(graph, [], 0.0, ring=[ring_cell.key])
        assert graph.get(ring_cell.key).freshness == pytest.approx(0.25)

    def test_query_ring_matches_general_ring(self):
        from repro.geo.bbox import BoundingBox
        from repro.geo.resolution import Resolution
        from repro.geo.temporal import TemporalResolution, TimeRange
        from repro.query.model import AggregationQuery

        query = AggregationQuery(
            bbox=BoundingBox(35, 38, -107, -103),
            time_range=TimeRange(
                DAY.epoch_range().start, DAY.step(2).epoch_range().start
            ),
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        fast = set(query_ring(query))
        general = set(neighborhood_ring(query.footprint()))
        assert fast == general

    def test_neighborhood_ring_excludes_footprint(self):
        footprint = [CellKey(c, DAY) for c in gh.children("9q8y")]
        ring = neighborhood_ring(footprint)
        assert set(ring).isdisjoint(footprint)
        assert len(ring) == len(set(ring))
        # Ring contains temporal neighbors too.
        assert any(k.time_key != DAY for k in ring)
        # Every ring member is a lateral neighbor of some footprint cell.
        members = set(footprint)
        for key in ring:
            assert any(n in members for n in lateral_neighbors(key))


class TestEviction:
    def _loaded_graph(self, n: int):
        graph = StashGraph(SPACE)
        tracker = FreshnessTracker(FreshnessConfig(half_life=1e9))
        cells = []
        for i, code in enumerate(gh.children("9q8y")[:n]):
            cell = make_cell(code)
            graph.insert(cell)
            cells.append(cell)
        return graph, tracker, cells

    def test_no_eviction_under_threshold(self):
        graph, tracker, _ = self._loaded_graph(10)
        policy = EvictionPolicy(EvictionConfig(max_cells=20, safe_fraction=0.5))
        assert policy.enforce(graph, tracker, now=0.0) == []

    def test_eviction_to_safe_limit(self):
        graph, tracker, cells = self._loaded_graph(21)
        policy = EvictionPolicy(EvictionConfig(max_cells=20, safe_fraction=0.5))
        evicted = policy.enforce(graph, tracker, now=0.0)
        assert len(graph) == 10
        assert len(evicted) == 11
        assert policy.evictions == 11

    def test_eviction_keeps_freshest(self):
        graph, tracker, cells = self._loaded_graph(21)
        hot = cells[:10]
        tracker.touch_cells(graph, [c.key for c in hot], now=0.0)
        policy = EvictionPolicy(EvictionConfig(max_cells=20, safe_fraction=0.5))
        evicted = set(policy.enforce(graph, tracker, now=1.0))
        for cell in hot:
            assert cell.key not in evicted
            assert graph.contains(cell.key)

    def test_bad_config(self):
        with pytest.raises(CacheError):
            EvictionPolicy(EvictionConfig(max_cells=0))
        with pytest.raises(CacheError):
            EvictionPolicy(EvictionConfig(safe_fraction=0.0))

    @given(st.integers(1, 64), st.integers(1, 40))
    @settings(max_examples=25)
    def test_eviction_never_exceeds_safe_limit(self, max_cells, extra):
        graph = StashGraph(SPACE)
        tracker = FreshnessTracker(FreshnessConfig(half_life=1e9))
        codes = gh.children("9q8y") + gh.children("9q8z") + gh.children("9q8w")
        for code in codes[: max_cells + extra]:
            graph.upsert(make_cell(code))
        policy = EvictionPolicy(EvictionConfig(max_cells=max_cells, safe_fraction=0.8))
        policy.enforce(graph, tracker, now=0.0)
        assert len(graph) <= max(1, int(max_cells * 0.8))
