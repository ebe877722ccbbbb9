"""Extent invalidation: a touched block finds its stale cells by label.

``StashGraph.invalidate_extents`` decides "does this cached cell overlap
a touched block?" by cutting the cell's label to the block's lengths and
probing a set of truncated block labels (``stale_extents``).  The
predicate it replaced — ``epoch_range`` interval overlap plus a two-way
``startswith`` — lives on as ``tests.reference.extent_overlaps_reference``
and these tests hold the new one to it, cell for cell.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cell import Cell
from repro.core.graph import StashGraph, stale_extents
from repro.core.keys import CellKey
from repro.data.block import BlockId
from repro.data.statistics import SummaryVector
from repro.geo.resolution import ResolutionSpace
from repro.geo.temporal import TimeKey
from tests.reference import extent_overlaps_reference, slot_maps_mirror_levels
from tests.strategies import block_ids, boundary_time_keys, geohashes

SPACE = ResolutionSpace(1, 8)
SUMMARY = SummaryVector.from_arrays({"temperature": np.asarray([1.0])})
#: Three characters, so drawn cells and blocks nest often.
NARROW = "9qd"


def filled_graph(resident: list[CellKey]) -> StashGraph:
    """A graph holding ``resident``."""
    graph = StashGraph(SPACE)
    for key in resident:
        graph.insert(Cell(key=key, summary=SUMMARY))
    return graph


def assert_graph_holds_exactly(graph: StashGraph, survivors: set[CellKey]) -> None:
    """The level maps and the freshness columns name the same keys."""
    slot_maps_mirror_levels(graph)
    assert len(graph) == len(survivors)
    assert {cell.key for cell in graph.cells()} == survivors
    columns = list(graph.freshness_columns())
    assert {key for block in columns for key in block.keys} == survivors
    for block in columns:
        assert block.size == len(block.keys) == len(block.slot_of)
        assert all(block.keys[slot] == key for key, slot in block.slot_of.items())


@st.composite
def scenarios(draw):
    block_precision = draw(st.integers(2, 4))
    resident = draw(
        st.lists(
            st.builds(CellKey, geohashes(1, 8, NARROW), boundary_time_keys()),
            unique=True,
            max_size=40,
        )
    )
    touched = draw(
        st.lists(block_ids(block_precision, NARROW), unique=True, max_size=12)
    )
    return block_precision, resident, touched


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_removes_exactly_the_overlapping_cells(self, scenario):
        block_precision, resident, touched = scenario
        graph = filled_graph(resident)
        expected = {
            key for key in resident if extent_overlaps_reference(key, touched)
        }
        removed = graph.invalidate_extents(
            stale_extents(touched, block_precision), block_precision
        )
        assert len(removed) == len(set(removed))
        assert set(removed) == expected
        assert_graph_holds_exactly(graph, set(resident) - expected)

    @settings(max_examples=50, deadline=None)
    @given(scenarios())
    def test_second_pass_finds_nothing(self, scenario):
        block_precision, resident, touched = scenario
        graph = filled_graph(resident)
        extents = stale_extents(touched, block_precision)
        graph.invalidate_extents(extents, block_precision)
        assert graph.invalidate_extents(extents, block_precision) == []


def key(geohash: str, *components: int) -> CellKey:
    return CellKey(geohash, TimeKey(components))


class TestBoundaries:
    """One block, ``9q8`` on a boundary day: who is stale, who is not."""

    @pytest.mark.parametrize(
        "day, stale, fresh",
        [
            (
                "2013-01-31",
                [key("9", 2013), key("9q", 2013, 1), key("9q8y", 2013, 1, 31, 23)],
                [key("9q8", 2013, 2), key("9q8", 2013, 2, 1), key("9q8", 2013, 2, 1, 0)],
            ),
            (
                "2013-02-01",
                [key("9q8", 2013, 2), key("9q8", 2013, 2, 1, 0), key("9q8zz", 2013)],
                [key("9q8", 2013, 1), key("9q8", 2013, 1, 31, 23), key("9q8", 2013, 2, 2)],
            ),
            (
                "2012-12-31",
                [key("9q8", 2012), key("9q", 2012, 12), key("9q8", 2012, 12, 31, 23)],
                [key("9q8", 2013), key("9q8", 2013, 1, 1, 0), key("9q8", 2012, 12, 30)],
            ),
            (
                "2013-01-01",
                [key("9q8", 2013), key("9q8", 2013, 1, 1, 0), key("9q8", 2013, 1, 1, 23)],
                [key("9q8", 2012), key("9q8", 2012, 12, 31, 23), key("9q8", 2013, 1, 2, 0)],
            ),
        ],
    )
    def test_month_year_and_hour_edges(self, day, stale, fresh):
        touched = [BlockId("9q8", day)]
        for cell_key in stale:
            assert extent_overlaps_reference(cell_key, touched)
        for cell_key in fresh:
            assert not extent_overlaps_reference(cell_key, touched)
        graph = filled_graph(stale + fresh)
        removed = graph.invalidate_extents(stale_extents(touched, 3), 3)
        assert set(removed) == set(stale)
        assert_graph_holds_exactly(graph, set(fresh))

    def test_sibling_and_cousin_geohashes_survive(self):
        touched = [BlockId("9q8", "2013-02-02")]
        fresh = [key("9q9", 2013, 2, 2), key("9r", 2013, 2, 2), key("8", 2013), key("9q9y", 2013, 2)]
        graph = filled_graph(fresh)
        assert graph.invalidate_extents(stale_extents(touched, 3), 3) == []
        assert_graph_holds_exactly(graph, set(fresh))

    def test_block_and_day_pair_up(self):
        """``9q8`` changed on the 1st and ``dr5`` on the 2nd: a cell for
        ``9q8`` on the 2nd is untouched (the table is pairs, not a
        geohash set times a day set)."""
        touched = [BlockId("9q8", "2013-02-01"), BlockId("dr5", "2013-02-02")]
        stale = [key("9q8", 2013, 2, 1), key("dr5", 2013, 2, 2, 7), key("9", 2013, 2)]
        fresh = [key("9q8", 2013, 2, 2), key("dr5", 2013, 2, 1)]
        graph = filled_graph(stale + fresh)
        removed = graph.invalidate_extents(stale_extents(touched, 3), 3)
        assert set(removed) == set(stale)

    def test_empty_touched_removes_nothing(self):
        resident = [key("9q8", 2013, 2, 2), key("9", 2013)]
        graph = filled_graph(resident)
        assert stale_extents([], 3) == set()
        assert graph.invalidate_extents(stale_extents([], 3), 3) == []
        assert_graph_holds_exactly(graph, set(resident))

    def test_table_is_block_precision_times_three_labels_per_block(self):
        one = stale_extents([BlockId("9q8", "2013-02-02")], 3)
        assert len(one) == 3 * 3
        assert ("9", (2013,)) in one and ("9q8", (2013, 2, 2)) in one
        # Two blocks sharing a day and a two-character prefix share labels.
        two = stale_extents(
            [BlockId("9q8", "2013-02-02"), BlockId("9q9", "2013-02-02")], 3
        )
        assert len(two) == (2 + 2) * 3
