"""Residency bookkeeping across evict -> re-insert cycles.

Residency is the PLM: a cell is complete iff it is resident.  Every
``remove`` must be the exact inverse of the ``insert`` that created the
cell, or a cell evicted and later recomputed would wedge on a stale slot.
``tests.reference.slot_maps_mirror_levels`` asserts that a graph's slot
maps hold exactly its resident cells; these tests drive it through
eviction, invalidation and crash-clear.
"""

import numpy as np

from repro.config import EvictionConfig, FreshnessConfig
from repro.core.cell import Cell
from repro.core.eviction import EvictionPolicy
from repro.core.freshness import FreshnessTracker
from repro.core.graph import StashGraph, stale_extents
from repro.core.keys import CellKey
from repro.data.block import BlockId
from repro.data.statistics import SummaryVector
from repro.geo import geohash as gh
from repro.geo.resolution import ResolutionSpace
from repro.geo.temporal import TimeKey
from tests.reference import slot_maps_mirror_levels

SPACE = ResolutionSpace(1, 8)
DAY = TimeKey.of(2013, 2, 2)

B1 = BlockId("9q8", "2013-02-02")


def cell(geohash="9q8y", time_key=DAY, value=1.0):
    return Cell(
        key=CellKey(geohash, time_key),
        summary=SummaryVector.from_arrays({"temperature": np.asarray([value])}),
    )


class TestGraphEvictReinsert:
    """Residency driven through the real eviction path."""

    def _full_graph(self):
        graph = StashGraph(SPACE)
        for i, child in enumerate(gh.children("9q8")):
            graph.insert(cell(child, value=float(i)))
        return graph

    def test_eviction_clears_plm_and_reinsert_succeeds(self):
        graph = self._full_graph()
        policy = EvictionPolicy(EvictionConfig(max_cells=16, safe_fraction=0.5))
        tracker = FreshnessTracker(FreshnessConfig())
        victims = policy.enforce(graph, tracker, now=10.0)
        assert victims
        slot_maps_mirror_levels(graph)
        for key in victims:
            assert not graph.contains(key)
        # Recompute the evicted cells with other values.
        for key in victims:
            graph.insert(cell(key.geohash, value=-1.0))
        slot_maps_mirror_levels(graph)
        assert graph.get(victims[0]).summary["temperature"].total == -1.0

    def test_invalidate_block_then_repopulate(self):
        graph = self._full_graph()
        stale = graph.invalidate_extents(stale_extents([B1], 3), 3)
        assert len(stale) == 32
        slot_maps_mirror_levels(graph)
        assert len(graph) == 0
        for key in stale:
            graph.insert(cell(key.geohash))
        slot_maps_mirror_levels(graph)
        assert all(graph.contains(key) for key in stale)

    def test_clear_then_reinsert(self):
        graph = self._full_graph()
        assert graph.clear() == 32
        slot_maps_mirror_levels(graph)
        graph.insert(cell("9q8y"))
        slot_maps_mirror_levels(graph)
        assert len(graph) == 1

    def test_graph_and_plm_membership_agree_after_churn(self):
        graph = self._full_graph()
        policy = EvictionPolicy(EvictionConfig(max_cells=20, safe_fraction=0.5))
        tracker = FreshnessTracker(FreshnessConfig())
        policy.enforce(graph, tracker, now=5.0)
        assert len(graph) == policy.safe_limit
        slot_maps_mirror_levels(graph)
