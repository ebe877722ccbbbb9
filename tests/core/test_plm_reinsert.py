"""PLM bookkeeping across evict -> re-insert cycles.

Audit target: every ``remove`` must be the exact inverse of the ``add``
that created the entry, otherwise a cell evicted and later recomputed
from *different* blocks would keep its old block set, and the missing-set
calculation would trust a stale completeness record.
``tests.reference.plm_mirrors_graph`` asserts that a graph's PLM tracks
exactly its resident cells; these tests drive it through eviction,
invalidation, crash-clear, and randomized churn.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EvictionConfig, FreshnessConfig
from repro.core.cell import Cell
from repro.core.eviction import EvictionPolicy
from repro.core.freshness import FreshnessTracker
from repro.core.graph import StashGraph, stale_extents
from repro.core.keys import CellKey
from repro.core.plm import PrecisionLevelMap
from repro.data.block import BlockId
from repro.data.statistics import SummaryVector
from repro.errors import CacheError
from repro.geo import geohash as gh
from repro.geo.resolution import ResolutionSpace
from repro.geo.temporal import TimeKey
from tests.reference import plm_mirrors_graph

SPACE = ResolutionSpace(1, 8)
DAY = TimeKey.of(2013, 2, 2)

KEY = CellKey("9q8y", DAY)
B1 = BlockId("9q8", "2013-02-02")
B2 = BlockId("9q9", "2013-02-02")
B3 = BlockId("9qb", "2013-02-02")


def cell(geohash="9q8y", time_key=DAY, value=1.0):
    return Cell(
        key=CellKey(geohash, time_key),
        summary=SummaryVector.from_arrays({"temperature": np.asarray([value])}),
    )


class TestPlmReinsert:
    def test_remove_then_readd_same_blocks(self):
        plm = PrecisionLevelMap()
        plm.add(0, KEY, frozenset({B1, B2}))
        plm.remove(0, KEY)
        assert not plm.contains(0, KEY)
        plm.add(0, KEY, frozenset({B1, B2}))
        assert plm.blocks_of(0, KEY) == {B1, B2}

    def test_readd_with_different_blocks_drops_stale_edges(self):
        """The re-insert case that motivates the audit: a cell evicted and
        recomputed from a different block set must not keep its old one."""
        plm = PrecisionLevelMap()
        plm.add(0, KEY, frozenset({B1, B2}))
        plm.remove(0, KEY)
        plm.add(0, KEY, frozenset({B3}))
        assert plm.blocks_of(0, KEY) == {B3}

    def test_shared_block_survives_partial_removal(self):
        other = CellKey("9q8z", DAY)
        plm = PrecisionLevelMap()
        plm.add(0, KEY, frozenset({B1}))
        plm.add(0, other, frozenset({B1, B2}))
        plm.remove(0, KEY)
        assert not plm.contains(0, KEY)
        assert plm.blocks_of(0, other) == {B1, B2}
        plm.remove(0, other)
        assert not plm.contains(0, other)

    def test_duplicate_add_rejected_without_corruption(self):
        plm = PrecisionLevelMap()
        plm.add(0, KEY, frozenset({B1}))
        with pytest.raises(CacheError):
            plm.add(0, KEY, frozenset({B2}))
        # The failed add must not have touched the entry.
        assert plm.blocks_of(0, KEY) == {B1}

    def test_remove_untracked_rejected(self):
        plm = PrecisionLevelMap()
        with pytest.raises(CacheError):
            plm.remove(0, KEY)
        assert not plm.contains(0, KEY)

    def test_same_key_at_two_levels_is_independent(self):
        plm = PrecisionLevelMap()
        plm.add(0, KEY, frozenset({B1}))
        plm.add(1, KEY, frozenset({B2}))
        plm.remove(0, KEY)
        assert not plm.contains(0, KEY)
        assert plm.contains(1, KEY)
        assert plm.blocks_of(1, KEY) == {B2}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["9q8y", "9q8z", "9qby", "9qbz"]),
                st.sets(st.sampled_from([B1, B2, B3]), max_size=3),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_randomized_churn_keeps_indexes_mirrored(self, ops):
        """Interleaved add/remove against a model dict: the PLM tracks
        exactly the model's keys, with their block sets, at every step."""
        plm = PrecisionLevelMap()
        model: dict[CellKey, frozenset] = {}
        for geohash, blocks in ops:
            key = CellKey(geohash, DAY)
            if key in model:
                plm.remove(0, key)
                del model[key]
            else:
                plm.add(0, key, frozenset(blocks))
                model[key] = frozenset(blocks)
            for geohash in ("9q8y", "9q8z", "9qby", "9qbz"):
                probe = CellKey(geohash, DAY)
                assert plm.contains(0, probe) == (probe in model)
        for key, blocks in model.items():
            assert plm.blocks_of(0, key) == blocks


class TestGraphEvictReinsert:
    """The same invariants driven through the real eviction path."""

    def _full_graph(self):
        graph = StashGraph(SPACE)
        for i, child in enumerate(gh.children("9q8")):
            graph.insert(cell(child, value=float(i)), frozenset({B1}))
        return graph

    def test_eviction_clears_plm_and_reinsert_succeeds(self):
        graph = self._full_graph()
        policy = EvictionPolicy(EvictionConfig(max_cells=16, safe_fraction=0.5))
        tracker = FreshnessTracker(FreshnessConfig())
        victims = policy.enforce(graph, tracker, now=10.0)
        assert victims
        plm_mirrors_graph(graph)
        level = graph.level_of(victims[0])
        for key in victims:
            assert not graph.plm.contains(level, key)
        # Recompute the evicted cells from a different block set.
        for key in victims:
            graph.insert(cell(key.geohash), frozenset({B2, B3}))
        plm_mirrors_graph(graph)
        assert graph.plm.blocks_of(level, victims[0]) == {B2, B3}

    def test_invalidate_block_then_repopulate(self):
        graph = self._full_graph()
        stale = graph.invalidate_extents(stale_extents([B1], 3), 3)
        assert len(stale) == 32
        plm_mirrors_graph(graph)
        assert len(graph) == 0
        for key in stale:
            graph.insert(cell(key.geohash), frozenset({B2}))
        plm_mirrors_graph(graph)
        assert all(graph.plm.blocks_of(graph.level_of(key), key) == {B2} for key in stale)

    def test_clear_then_reinsert(self):
        graph = self._full_graph()
        assert graph.clear() == 32
        plm_mirrors_graph(graph)
        graph.insert(cell("9q8y"), frozenset({B1}))
        plm_mirrors_graph(graph)
        assert len(graph) == 1

    def test_graph_and_plm_membership_agree_after_churn(self):
        graph = self._full_graph()
        policy = EvictionPolicy(EvictionConfig(max_cells=20, safe_fraction=0.5))
        tracker = FreshnessTracker(FreshnessConfig())
        policy.enforce(graph, tracker, now=5.0)
        for c in graph.cells():
            assert graph.plm.contains(graph.level_of(c.key), c.key)
        plm_mirrors_graph(graph)
