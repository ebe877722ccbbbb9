"""Cache-consistency regressions: level maps and slot maps in lockstep,
eviction victim order, and the guest-clique inverted index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EvictionConfig, FreshnessConfig
from repro.core.cell import Cell
from repro.core.eviction import EvictionPolicy
from repro.core.freshness import FreshnessTracker
from repro.core.graph import StashGraph
from repro.core.keys import CellKey
from repro.core.node import GuestCliqueRegistry
from repro.data.statistics import SummaryVector
from repro.geo import geohash as gh
from repro.geo.resolution import ResolutionSpace
from repro.geo.temporal import TimeKey
from tests.reference import slot_maps_mirror_levels

SPACE = ResolutionSpace(1, 8)
DAY = TimeKey.of(2013, 2, 2)
CODES = gh.children("9q8y") + gh.children("9q8z")


def make_cell(code: str, value: float = 1.0) -> Cell:
    return Cell(
        key=CellKey(code, DAY),
        summary=SummaryVector.from_arrays({"temperature": np.array([value])}),
    )


class TestPlmGraphLockstep:
    """Residency is the PLM: the level maps and slot maps hold one key set."""

    @given(
        ops=st.lists(st.sampled_from(CODES), min_size=1, max_size=80),
        max_cells=st.integers(2, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_evict_repopulate_cycles_keep_plm_consistent(self, ops, max_cells):
        graph = StashGraph(SPACE)
        tracker = FreshnessTracker(FreshnessConfig(half_life=1e9))
        policy = EvictionPolicy(EvictionConfig(max_cells=max_cells))
        for now, code in enumerate(ops):
            # Repopulation of a previously evicted key must always work.
            graph.upsert(make_cell(code))
            tracker.touch_cells(graph, [CellKey(code, DAY)], now=float(now))
            policy.enforce(graph, tracker, now=float(now))
            slot_maps_mirror_levels(graph)

    def test_clear_resets_plm(self):
        graph = StashGraph(SPACE)
        for code in CODES[:5]:
            graph.insert(make_cell(code))
        assert graph.clear() == 5
        assert len(graph) == 0
        slot_maps_mirror_levels(graph)
        # Everything reinserts cleanly after the wipe (cold restart).
        for code in CODES[:5]:
            graph.insert(make_cell(code))
        slot_maps_mirror_levels(graph)
        assert len(graph) == 5


class TestEvictionVictimOrder:
    def _loaded(self, n: int, seed: int = 0):
        graph = StashGraph(SPACE)
        tracker = FreshnessTracker(FreshnessConfig(half_life=1e9))
        rng = np.random.default_rng(seed)
        for code in CODES[:n]:
            cell = make_cell(code)
            graph.insert(cell)
            # Random (sometimes tied) freshness.
            for _ in range(int(rng.integers(0, 4))):
                tracker.touch_cells(graph, [cell.key], now=0.0)
        return graph, tracker

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_victims_match_full_sort_reference(self, seed):
        """heapq.nsmallest must pick the exact victims (and order) the
        old full-sort implementation chose."""
        graph, tracker = self._loaded(30, seed)
        policy = EvictionPolicy(EvictionConfig(max_cells=20, safe_fraction=0.5))
        excess = len(graph) - policy.safe_limit
        reference = [
            cell.key
            for cell in sorted(
                graph.cells(),
                key=lambda cell: (tracker.score(cell, 1.0), str(cell.key)),
            )[:excess]
        ]
        victims = policy.enforce(graph, tracker, now=1.0)
        assert victims == reference


class TestGuestCliqueIndex:
    def k(self, code: str) -> CellKey:
        return CellKey(code, DAY)

    def test_touch_covering_refreshes_only_covering_cliques(self):
        registry = GuestCliqueRegistry()
        registry.add(self.k("9q8y0"), [self.k("9q8y0"), self.k("9q8y1")], now=0.0)
        registry.add(self.k("9q8z0"), [self.k("9q8z0")], now=0.0)
        registry.touch_covering({self.k("9q8y1")}, now=5.0)
        assert registry.entries["9q8y0@2013-02-02"]["last_used"] == 5.0
        assert registry.entries["9q8z0@2013-02-02"]["last_used"] == 0.0

    def test_overwrite_returns_orphans(self):
        registry = GuestCliqueRegistry()
        root = self.k("9q8y0")
        registry.add(root, [self.k("9q8y0"), self.k("9q8y1"), self.k("9q8y2")], 0.0)
        orphans = registry.add(root, [self.k("9q8y0"), self.k("9q8y3")], 1.0)
        assert set(orphans) == {self.k("9q8y1"), self.k("9q8y2")}

    def test_overwrite_keeps_members_shared_with_other_cliques(self):
        registry = GuestCliqueRegistry()
        shared = self.k("9q8y1")
        registry.add(self.k("9q8y0"), [self.k("9q8y0"), shared], 0.0)
        registry.add(self.k("9q8z0"), [self.k("9q8z0"), shared], 0.0)
        orphans = registry.add(self.k("9q8y0"), [self.k("9q8y0")], 1.0)
        # ``shared`` is still referenced by the 9q8z0 clique.
        assert orphans == []

    def test_remove_respects_shared_members(self):
        registry = GuestCliqueRegistry()
        shared = self.k("9q8y1")
        registry.add(self.k("9q8y0"), [self.k("9q8y0"), shared], 0.0)
        registry.add(self.k("9q8z0"), [self.k("9q8z0"), shared], 0.0)
        dropped = registry.remove("9q8y0@2013-02-02")
        assert shared not in dropped
        assert self.k("9q8y0") in dropped
        # Removing the second clique releases the shared member.
        dropped = registry.remove("9q8z0@2013-02-02")
        assert shared in dropped

    def test_tolerates_direct_entry_mutation(self):
        """Some callers (and older tests) clear ``entries`` directly; a
        stale index must not crash touch_covering."""
        registry = GuestCliqueRegistry()
        registry.add(self.k("9q8y0"), [self.k("9q8y0")], 0.0)
        registry.entries.clear()
        registry.touch_covering({self.k("9q8y0")}, now=1.0)
        assert registry.entries == {}

    def test_clear(self):
        registry = GuestCliqueRegistry()
        registry.add(self.k("9q8y0"), [self.k("9q8y0"), self.k("9q8y1")], 0.0)
        registry.clear()
        assert registry.entries == {}
        registry.add(self.k("9q8y0"), [self.k("9q8y1")], 1.0)
        registry.touch_covering({self.k("9q8y1")}, now=2.0)
        assert registry.entries["9q8y0@2013-02-02"]["last_used"] == 2.0
