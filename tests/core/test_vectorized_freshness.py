"""Equivalence and integrity tests for the columnar freshness store.

The graph keeps ``(freshness, last_touch, access_count)`` in dense
per-level numpy columns; a ``Cell`` read from the graph is a snapshot of
its slot.  These tests pin the two contracts that make that safe:

* the vectorized kernels (``rank_victims``, ``touch_batch``) produce
  *bit-identical* results to the scalar per-cell model, so simulated
  experiment outputs cannot shift, and
* column residency is invisible to callers — values survive swap-remove,
  and a snapshot keeps its values through ``remove`` and ``clear``.
"""

import numpy as np
import pytest

from repro.config import EvictionConfig, FreshnessConfig
from repro.core.cell import Cell
from repro.core.eviction import EvictionPolicy, rank_victims
from repro.core.freshness import F_INC, FreshnessTracker
from repro.core.graph import StashGraph
from repro.core.keys import CellKey
from repro.data.statistics import SummaryVector
from repro.geo import geohash as gh
from repro.geo.resolution import ResolutionSpace
from repro.geo.temporal import TimeKey
from tests.reference import rank_victims_scalar, touch_cell

SPACE = ResolutionSpace(1, 8)
DAY = TimeKey.of(2013, 2, 2)
SUMMARY = SummaryVector.from_arrays({"temperature": np.array([1.0])})


def make_graph(num_parents=8, seed=7):
    """A two-level graph with a randomized touch history.

    Returns ``(graph, tracker, keys, now)`` where every cell has a
    distinct (freshness, last_touch) pair.
    """
    rng = np.random.default_rng(seed)
    graph = StashGraph(SPACE)
    keys = []
    for parent in ("9q8y", "9q8z", "dr5r", "c216", "9q8v", "dr72", "u4pr", "ezs4")[
        :num_parents
    ]:
        keys.append(CellKey(parent, DAY))
        for child in gh.children(parent)[:12]:
            keys.append(CellKey(child, DAY))
    for key in keys:
        graph.upsert(Cell(key=key, summary=SUMMARY))
    tracker = FreshnessTracker(FreshnessConfig())
    now = 0.0
    for step in range(5):
        now = step * 17.0
        sample = rng.choice(len(keys), size=len(keys) // 2, replace=False)
        tracker.touch_cells(graph, [keys[i] for i in sample.tolist()], now)
    return graph, tracker, keys, now + 40.0


class TestVectorizedEviction:
    def test_rank_victims_matches_scalar_exactly(self):
        graph, tracker, keys, now = make_graph()
        for excess in (1, 5, len(keys) // 3, len(keys) - 1, len(keys)):
            vectorized = rank_victims(graph, tracker.decay_rate, now, excess)
            scalar = rank_victims_scalar(graph, tracker, now, excess)
            assert vectorized == scalar  # same victims, same order

    def test_rank_victims_many_seeds(self):
        for seed in range(5):
            graph, tracker, keys, now = make_graph(num_parents=4, seed=seed)
            excess = len(keys) // 4
            assert rank_victims(graph, tracker.decay_rate, now, excess) == (
                rank_victims_scalar(graph, tracker, now, excess)
            )

    def test_rank_victims_with_score_ties(self):
        # Untouched cells all score 0.0: ordering must fall back to the
        # key tie-break, identically in both implementations.
        graph = StashGraph(SPACE)
        keys = [CellKey(c, DAY) for c in gh.children("9q8y")]
        for key in keys:
            graph.upsert(Cell(key=key, summary=SUMMARY))
        tracker = FreshnessTracker(FreshnessConfig())
        victims = rank_victims(graph, tracker.decay_rate, 10.0, 7)
        assert victims == rank_victims_scalar(graph, tracker, 10.0, 7)
        assert victims == sorted(keys, key=str)[:7]

    def test_enforce_removes_rank_victims(self):
        graph, tracker, keys, now = make_graph()
        policy = EvictionPolicy(
            EvictionConfig(max_cells=len(keys) // 2, safe_fraction=1.0)
        )
        expected = rank_victims(
            graph, tracker.decay_rate, now, len(keys) - len(keys) // 2
        )
        evicted = policy.enforce(graph, tracker, now)
        assert evicted == expected
        assert all(not graph.contains(key) for key in evicted)


class TestTouchBatchEquivalence:
    def test_matches_scalar_cell_model_bitwise(self):
        graph, tracker, keys, now = make_graph()
        # Scalar model: detached Cell twins carrying the same state.
        twins = {
            key: Cell(
                key=key,
                summary=SUMMARY,
                freshness=graph.get(key).freshness,
                last_touched=graph.get(key).last_touched,
                access_count=graph.get(key).access_count,
            )
            for key in keys
        }
        batch = keys[::3]
        tracker.touch_cells(graph, batch, now)
        for key in batch:
            twin = twins[key]
            touch_cell(twin, F_INC, now, tracker.decay_rate)
            twin.access_count += 1
        for key in keys:
            cell = graph.get(key)
            twin = twins[key]
            assert cell.freshness == twin.freshness  # bitwise, no tolerance
            assert cell.last_touched == twin.last_touched
            assert cell.access_count == twin.access_count

    def test_duplicate_keys_accumulate(self):
        graph = StashGraph(SPACE)
        key = CellKey("9q8y", DAY)
        graph.upsert(Cell(key=key, summary=SUMMARY))
        tracker = FreshnessTracker(FreshnessConfig())
        tracker.touch_cells(graph, [key, key, key], 1.0)
        twin = Cell(key=key, summary=SUMMARY)
        for _ in range(3):
            touch_cell(twin, F_INC, 1.0, tracker.decay_rate)
        cell = graph.get(key)
        assert cell.freshness == pytest.approx(twin.freshness, rel=1e-12)
        assert cell.access_count == 3

    def test_unsorted_batch_with_one_duplicate(self):
        """Distinct slots skip the sort/unique step; a single repeat anywhere
        in the batch must bring it back for the whole level."""
        graph, tracker, keys, now = make_graph()
        level = [key for key in keys if len(key.geohash) == 5]
        batch = level[::-1][:9] + [level[-3]]
        before = {key: graph.get(key).freshness for key in level}
        decay = {
            key: np.exp(-tracker.decay_rate * (now - graph.get(key).last_touched))
            for key in level
        }
        assert graph.touch_batch(batch, 2.0, now, tracker.decay_rate, True) == 10
        for key in level:
            times = batch.count(key)
            cell = graph.get(key)
            if times:
                assert cell.freshness == before[key] * decay[key] + 2.0 * times
                assert cell.last_touched == now
            else:
                assert cell.freshness == before[key]

    def test_missing_keys_are_skipped(self):
        graph = StashGraph(SPACE)
        resident = CellKey("9q8y", DAY)
        graph.upsert(Cell(key=resident, summary=SUMMARY))
        touched = graph.touch_batch(
            [resident, CellKey("dr5r", DAY)], 1.0, 1.0, 0.01, count_access=True
        )
        assert touched == 1
        assert graph.get(resident).access_count == 1

    def test_disperse_matches_scalar_model(self):
        graph, tracker, keys, now = make_graph()
        ring = [key for key in keys if len(key.geohash) == 5][:10]
        amount = F_INC * tracker.config.dispersion_fraction
        expected = {}
        for key in ring:
            cell = graph.get(key)
            twin = Cell(
                key=key,
                summary=SUMMARY,
                freshness=cell.freshness,
                last_touched=cell.last_touched,
                access_count=cell.access_count,
            )
            touch_cell(twin, amount, now, tracker.decay_rate)
            expected[key] = (twin.freshness, twin.last_touched, twin.access_count)
        tracker.touch_cells(graph, [], now, ring=ring)
        for key in ring:
            cell = graph.get(key)
            # Dispersion adds freshness but never counts as an access.
            assert (
                cell.freshness,
                cell.last_touched,
                cell.access_count,
            ) == expected[key]


class TestColumnIntegrity:
    def test_swap_remove_preserves_other_cells(self):
        graph, tracker, keys, now = make_graph(num_parents=2)
        snapshot = {
            key: (
                graph.get(key).freshness,
                graph.get(key).last_touched,
                graph.get(key).access_count,
            )
            for key in keys
        }
        removed = keys[len(keys) // 2]
        cell = graph.get(removed)
        graph.remove(removed)
        # A snapshot taken before the remove keeps its values...
        assert (cell.freshness, cell.last_touched, cell.access_count) == snapshot[
            removed
        ]
        # ...and every other cell is untouched by the swap-remove.
        for key in keys:
            if key == removed:
                continue
            assert (
                graph.get(key).freshness,
                graph.get(key).last_touched,
                graph.get(key).access_count,
            ) == snapshot[key]

    def test_column_blocks_cover_population(self):
        graph, _tracker, keys, _now = make_graph()
        total = sum(columns.size for columns in graph.freshness_columns())
        assert total == len(graph) == len(keys)

    def test_clear_detaches_values(self):
        """``clear`` drops the levels and their columns; a snapshot taken
        before keeps its values."""
        graph = StashGraph(SPACE)
        key = CellKey("9q8y", DAY)
        graph.upsert(Cell(key=key, summary=SUMMARY, freshness=3.5, access_count=4))
        cell = graph.get(key)
        assert graph.clear() == 1
        assert len(graph) == 0 and list(graph.freshness_columns()) == []
        assert graph.get(key) is None
        assert (cell.freshness, cell.access_count) == (3.5, 4)

    def test_upsert_existing_key_keeps_freshness_state(self):
        graph = StashGraph(SPACE)
        key = CellKey("9q8y", DAY)
        graph.upsert(Cell(key=key, summary=SUMMARY))
        graph.touch_batch([key], 2.0, 0.0, 0.01)
        richer = SummaryVector.from_arrays({"temperature": np.array([1.0, 2.0])})
        assert graph.upsert(Cell(key=key, summary=richer, freshness=9.0)) is False
        assert len(graph) == 1
        assert graph.get(key).freshness == 2.0  # first write won, state kept
        assert graph.summary_of(key) is SUMMARY
