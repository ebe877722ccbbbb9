"""Hypothesis property tests for the DESIGN.md section-6 invariants that
random examples exercise better than hand-picked ones."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EvictionConfig, FreshnessConfig
from repro.core.cell import Cell
from repro.core.eviction import EvictionPolicy
from repro.core.freshness import FreshnessTracker
from repro.core.graph import StashGraph
from repro.core.keys import CellKey
from repro.core.planner import plan_query
from repro.data.statistics import SummaryVector
from repro.geo import geohash as gh
from repro.geo.resolution import ResolutionSpace
from repro.geo.temporal import TimeKey

SPACE = ResolutionSpace(1, 8)
DAY = TimeKey.of(2013, 2, 2)
ATTRS = ["t"]

#: A pool of cell geohashes: a 4-char region plus its children.
POOL = gh.children("9q8y") + ["9q8y"] + gh.children("9q8z")[:16]


def cell_for(code: str, value: float = 1.0) -> Cell:
    return Cell(
        key=CellKey(code, DAY),
        summary=SummaryVector.from_arrays({"t": np.array([value])}),
    )


@st.composite
def cache_states(draw):
    """A random subset of the pool loaded into a graph, with random
    freshness touch patterns."""
    codes = draw(st.sets(st.sampled_from(POOL), max_size=len(POOL)))
    touches = draw(
        st.lists(st.tuples(st.sampled_from(POOL), st.floats(0, 50)), max_size=20)
    )
    graph = StashGraph(SPACE)
    tracker = FreshnessTracker(FreshnessConfig(half_life=25.0))
    for code in codes:
        graph.upsert(cell_for(code))
    for code, now in touches:
        tracker.touch_cells(graph, [CellKey(code, DAY)], now)
    return graph, tracker


class TestPlannerPartitionInvariant:
    @given(cache_states(), st.lists(st.sampled_from(POOL), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_partition_exact_and_disjoint(self, state, footprint_codes):
        graph, _tracker = state
        footprint = [CellKey(c, DAY) for c in dict.fromkeys(footprint_codes)]
        plan = plan_query(graph, footprint, ATTRS)
        cached = set(plan.cached)
        rollup = set(plan.rollup)
        missing = set(plan.missing)
        assert cached | rollup | missing == set(footprint)
        assert not (cached & rollup)
        assert not (cached & missing)
        assert not (rollup & missing)
        # Cached cells really are resident; missing really are not.
        for key in cached:
            assert graph.contains(key)
        for key in missing:
            assert not graph.contains(key)

    @given(cache_states(), st.lists(st.sampled_from(POOL), min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_rollup_only_when_all_children_resident(self, state, footprint_codes):
        graph, _tracker = state
        footprint = [CellKey(c, DAY) for c in dict.fromkeys(footprint_codes)]
        plan = plan_query(graph, footprint, ATTRS)
        for key in plan.rollup:
            axis = plan.rollup[key].axis
            for child in key.children(axis):
                assert graph.contains(child)


class TestEvictionProperties:
    @given(
        cache_states(),
        st.integers(1, 40),
        st.floats(0.1, 1.0),
        st.floats(0.0, 100.0),
    )
    @settings(max_examples=60)
    def test_evicted_freshness_below_survivors(
        self, state, max_cells, safe_fraction, now
    ):
        graph, tracker = state
        policy = EvictionPolicy(
            EvictionConfig(max_cells=max_cells, safe_fraction=safe_fraction)
        )
        before = len(graph)
        survivors_expected = policy.safe_limit if before > max_cells else before
        scores_before = {
            cell.key: tracker.score(cell, now) for cell in graph.cells()
        }
        evicted = policy.enforce(graph, tracker, now)
        if before <= max_cells:
            assert evicted == []
            return
        assert len(graph) == min(survivors_expected, before)
        if not evicted:
            return
        worst_survivor = min(
            (scores_before[cell.key] for cell in graph.cells()), default=np.inf
        )
        best_evicted = max(scores_before[key] for key in evicted)
        assert best_evicted <= worst_survivor + 1e-12

    @given(cache_states(), st.floats(0, 1000))
    @settings(max_examples=40)
    def test_scores_nonnegative_and_decay_monotone(self, state, later):
        graph, tracker = state
        for cell in graph.cells():
            now_score = tracker.score(cell, cell.last_touched)
            later_score = tracker.score(cell, cell.last_touched + later)
            assert later_score >= 0.0
            assert later_score <= now_score + 1e-12
