"""Work counts on the read path: how often one query rebuilds its cover —
and on the write path: how much calendar arithmetic one live ingest does.

Timings live in ``benchmarks/e2e``; these are the exact counts behind
them.  A query's cover, snapped box, ring and time keys are all derived
from one :class:`~repro.geo.cover.GridCover` held by the query object,
and owners come from the partitioner's materialized map — so a fresh
rectangle query spreads each row and column index of its cover and its
ring once, labels each cell from a table (no array is built), and a
region seen before hashes nothing.  A freshness touch resolves a level
once per run of same-resolution keys, and a warm owner leg touches its
footprint and disperses to its ring in one kernel call, over ring probes
that are no ``CellKey`` and need no ``TimeKey.step``.  A live ingest finds its stale cells
by comparing labels, so it builds no ``TimeRange`` per cached cell.  A
cache miss scans each leg's blocks in one fused pass — one ``bin_ids``
call and two batches per leg, not per block — and asks the calendar for
a time key's day labels once, not once per cell per lookup.  Its plan
asks once per key shape whether a finer level holds any cell before it
probes a missing key's children, and its owners populate without
building a ``Cell``.  No ring travels in a ``fetch_cells`` payload: each
owner derives its own share from the query, and a flushed level derives
none.  A completed query costs the metrics registry one ``record`` call that
builds nothing.  No read, warm or cold, enters a Python-level
``__hash__``, ``__eq__`` or ``__lt__``: the keys are tuples.  And the
simulator steps a pinned number of events of each kind per read.
"""

import collections
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.core import planner as planner_module
from repro.core.cell import Cell
from repro.core.freshness import FreshnessTracker, query_ring
from repro.core.graph import StashGraph
from repro.core.planner import plan_query
from repro.core.keys import CellKey
from repro.core.node import StashNode
from repro.data.block import Block, BlockId
from repro.data.generator import small_test_dataset
from repro.data.observation import OBSERVATION_ATTRIBUTES, ObservationBatch
from repro.data.statistics import SummaryFrame, SummaryVector
from repro.dht import partitioner as partitioner_module
from repro.errors import QueryError
from repro.geo import binning as binning_module
from repro.geo import cover as cover_module
from repro.geo import geohash as geohash_module
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution, ResolutionSpace
from repro.geo.temporal import TemporalResolution, TimeKey, TimeRange
from repro.obs import registry as registry_module
from repro.query.model import AggregationQuery
from repro.sim.engine import Simulator
from repro.storage import backend as backend_module
from repro.storage import node as storage_node_module
from repro.storage.backend import ground_truth_cells
from tests.reference import (
    bin_labels,
    box_contains,
    ring_by_owner_reference,
    touch_batch_reference,
)


def rectangle() -> AggregationQuery:
    return AggregationQuery(
        bbox=BoundingBox(30, 45, -115, -95),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(3, TemporalResolution.DAY),
    )


def counted(monkeypatch, module, name: str, also=()) -> list:
    """Replace ``module.name`` (and same-named imports in ``also``) with a
    wrapper that appends to the returned list on every call."""
    calls: list = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    for other in also:
        if hasattr(other, name):
            monkeypatch.setattr(other, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=6_000)


class TestFreshRectangleQuery:
    def test_two_interleaves_then_no_hashing(self, dataset, monkeypatch):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm([rectangle()])
        interleaves = counted(
            monkeypatch, geohash_module, "_interleave_many", also=[cover_module]
        )
        hashes = counted(monkeypatch, partitioner_module, "_stable_hash")

        first = rectangle()
        result = cluster.run_query(first)
        cluster.drain()
        assert result.provenance["cells_from_cache"] == len(first.footprint())
        assert interleaves == []  # was 2 (the cover and its ring), and 4 before

        del hashes[:]
        second = rectangle()
        result = cluster.run_query(second)
        cluster.drain()
        assert interleaves == []
        assert hashes == []  # every prefix is in the partition map by now
        truth = ground_truth_cells(dataset, second)
        assert set(result.cells) == set(truth)

    def test_snapping_materializes_no_cell(self, monkeypatch):
        interleaves = counted(
            monkeypatch, geohash_module, "_interleave_many", also=[cover_module]
        )
        labels = counted(monkeypatch, cover_module, "label_of_code")
        query = rectangle()
        box = query.snapped_bbox()
        assert box_contains(box, query.bbox)
        assert query.footprint_size() == 165 and query.snapped_time_range()
        assert interleaves == [] and labels == []
        assert len(query.footprint()) == 165 and query.snapped_bbox() == box
        assert len(interleaves) == 0 and len(labels) == 165  # was 1 array interleave
        assert query.clone()._footprint_cache is None  # a clone derives afresh

    def test_cover_and_ring_spread_rows_plus_columns_and_build_no_array(
        self, monkeypatch
    ):
        """11 rows x 15 columns: 26 spreads for the cover and 30 for its
        ring, not 165 + 56; no array interleave or array labelling (2 + 2
        at the parent)."""
        interleaves = counted(
            monkeypatch, geohash_module, "_interleave_many", also=[cover_module]
        )
        array_labels = counted(
            monkeypatch, geohash_module, "codes_to_geohashes", also=[cover_module]
        )
        spreads = counted(monkeypatch, cover_module, "_spread")
        query = rectangle()
        cover = query.grid_cover()
        rows = cover.lat_hi - cover.lat_lo + 1
        cols = cover.lon_hi - cover.lon_lo + 1
        assert (rows, cols) == (11, 15)
        assert len(query.footprint()) == rows * cols
        assert len(spreads) == rows + cols
        del spreads[:]
        ring = query_ring(query)
        assert len(ring) == 2 * (rows + cols) + 4 + 2 * rows * cols
        assert len(spreads) == (rows + 2) + (cols + 2)
        assert interleaves == [] and array_labels == []

    def test_time_keys_are_counted_before_they_are_built(self, monkeypatch):
        """Ten years of hours over one cell column: the size is read off
        two divisions, and the cap refuses before a key exists."""
        built = counted(monkeypatch, TimeKey, "__new__")
        decade = TimeRange(0.0, 3.2e8)
        query = AggregationQuery(
            bbox=BoundingBox(30, 45, -115, -95),
            time_range=decade,
            resolution=Resolution(3, TemporalResolution.HOUR),
        )
        assert query.footprint_size() == 165 * 88_889
        with pytest.raises(QueryError, match="exceeds"):
            query.footprint()
        assert built == []


class TestTouchBatch:
    def test_one_level_lookup_per_run_of_one_resolution(self, dataset, monkeypatch):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=1)))
        query = rectangle()
        cluster.warm([query])
        graph = next(iter(cluster.nodes.values())).graph
        footprint = query.footprint()
        coarser = [CellKey(key.geohash[:2], key.time_key) for key in footprint[:3]]
        lookups = counted(monkeypatch, StashGraph, "level_of")
        assert graph.touch_batch(footprint, 1.0, 5.0, 0.1) == len(footprint) == 165
        assert len(lookups) == 1  # was one per key
        del lookups[:]
        # Three runs (two resolutions, one of them twice): three lookups,
        # and the absent coarser keys touch nothing.
        mixed = footprint[:4] + coarser + footprint[4:8]
        assert graph.touch_batch(mixed, 1.0, 6.0, 0.1) == 8
        assert len(lookups) == 3


class TestColdPlanAndPopulate:
    """A cold op asks once per key shape whether a finer level holds any
    cell before it probes a missing key's children, and its owners
    populate the scanned summaries without building a ``Cell``."""

    def test_a_flushed_cluster_enters_no_rollup(self, dataset, monkeypatch):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm([rectangle()])
        cluster.flush_caches()
        entered = counted(monkeypatch, planner_module, "try_rollup")
        query = rectangle()
        result = cluster.run_query(query)
        cluster.drain()
        assert result.provenance["cells_from_disk"] == len(query.footprint()) == 165
        assert entered == []  # was one per missing key

    def test_one_finer_level_resident_enters_once_per_missing_key(self, monkeypatch):
        graph = StashGraph(ResolutionSpace(1, 8))
        day_keys = rectangle().footprint()
        hour = TimeKey.of(2013, 2, 2, 5)
        hour_keys = [CellKey(key.geohash, hour) for key in day_keys[:20]]
        # One cell at p4/day: the level finer than the day keys' level.
        # Nothing at p4/hour, the only level finer than the hour keys'.
        finer = CellKey(day_keys[0].geohash + "0", day_keys[0].time_key)
        graph.upsert(Cell(key=finer, summary=SummaryVector.empty(["t"])))
        entered = counted(monkeypatch, planner_module, "try_rollup")
        plan = plan_query(graph, day_keys + hour_keys, ["t"])
        assert len(entered) == len(day_keys)  # was one per missing key: +20
        assert plan.missing == day_keys + hour_keys
        assert (plan.lookups, plan.merges) == (len(day_keys) + 20, 0)

    def test_populate_builds_no_cell(self, dataset, monkeypatch):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm([rectangle()])
        cluster.flush_caches()
        built: list[str] = []
        real_init = Cell.__init__

        def init(cell, *args, **kwargs):
            built.append("Cell")
            real_init(cell, *args, **kwargs)

        monkeypatch.setattr(Cell, "__init__", init)
        cluster.run_query(rectangle())
        cluster.drain()
        assert cluster.total_cached_cells() == 165
        assert built == []  # was one per populated cell


def hours_of_a_day() -> AggregationQuery:
    """Hour bins over one day: the ring's adjacent bins are the previous
    day's last hour and the next day's first."""
    return AggregationQuery(
        bbox=BoundingBox(30, 40, -115, -100),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(3, TemporalResolution.HOUR),
    )


class TestRingNeverTravels:
    """The dispersion ring is not on the wire: each ``fetch_cells`` owner
    derives its own share from the query, and an owner whose graph holds
    no cell at the query's level derives none."""

    def test_a_flushed_cluster_builds_no_ring(self, dataset, monkeypatch):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm([rectangle()])
        cluster.flush_caches()
        rings = counted(monkeypatch, cover_module.GridCover, "ring")
        result = cluster.run_query(rectangle())
        cluster.drain()
        assert result.provenance["cells_from_disk"] == 165
        assert rings == []  # was 1: the coordinator built the whole ring

    def test_no_fetch_payload_carries_a_ring(self, dataset, monkeypatch):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm([rectangle()])
        payloads: list[dict] = []
        real = StashNode._fetch_cells_impl

        def spy(node, payload, parent=None):
            payloads.append(payload)
            return real(node, payload, parent=parent)

        monkeypatch.setattr(StashNode, "_fetch_cells_impl", spy)
        result = cluster.run_query(rectangle())
        cluster.drain()
        assert result.provenance["cells_from_cache"] == 165
        assert len(payloads) >= 2  # one per footprint owner, local and remote
        assert not any("ring" in payload for payload in payloads)

    @pytest.mark.parametrize("make", [rectangle, hours_of_a_day])
    def test_each_owner_disperses_the_coordinators_share(self, dataset, monkeypatch, make):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm([make()])
        node_of_graph = {id(node.graph): node for node in cluster.nodes.values()}
        dispersed: dict[str, list] = {}
        real = FreshnessTracker.touch_cells

        def spy(tracker, graph, keys, now, ring=()):
            dispersed.setdefault(node_of_graph[id(graph)].node_id, []).append(ring)
            return real(tracker, graph, keys, now, ring=ring)

        monkeypatch.setattr(FreshnessTracker, "touch_cells", spy)
        query = make()
        cluster.run_query(query)
        cluster.drain()
        shared_view = cluster.nodes["node-0"].membership
        expected = ring_by_owner_reference(query_ring(query), shared_view.node_for)
        owners = {shared_view.node_for(key.geohash) for key in query.footprint()}
        assert set(dispersed) == owners and len(owners) >= 2
        for owner, rings in dispersed.items():
            assert rings == [expected.get(owner, [])]
            assert query_ring(query, cluster.nodes[owner]._owns()) == rings[0]
        if make is hours_of_a_day:
            before, after = query.neighborhood()[1]
            time_keys = query.time_keys()
            assert before.components[:3] != time_keys[0].components[:3]
            assert after.components[:3] != time_keys[-1].components[:3]


class TestOneTouchPerOwnerLeg:
    """A warm owner leg touches its footprint share and disperses to its
    ring share in one column update, and builds its ring from probe pairs:
    no ``CellKey``, no ``TimeKey.step``."""

    def test_a_warm_leg_builds_no_ring_key_and_calls_the_kernel_once(
        self, dataset, monkeypatch
    ):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm([rectangle()])
        query = rectangle()
        query.footprint()  # the coordinator's keys, built before counting
        legs = counted(monkeypatch, StashNode, "_fetch_cells_impl")
        kernels = counted(monkeypatch, StashGraph, "touch_runs")
        steps = counted(monkeypatch, TimeKey, "step")
        cell_keys = counted(monkeypatch, CellKey, "__new__")
        result = cluster.run_query(query)
        cluster.drain()
        assert result.provenance["cells_from_cache"] == 165
        assert len(legs) >= 2  # one per footprint owner, local and remote
        assert len(kernels) == len(legs)  # was two per leg
        assert steps == []  # was two per query: the flanking bins
        assert cell_keys == []  # was one per ring key (2 x (rows + cols) + 4 + 2 x cover)

    def test_the_flanks_past_either_calendar_end_are_left_out(self):
        for day in (TimeKey.of(1, 1, 1), TimeKey.of(9999, 12, 31)):
            query = AggregationQuery(
                bbox=BoundingBox(30, 31, -110, -109),
                time_range=day.epoch_range(),
                resolution=Resolution(3, TemporalResolution.DAY),
            )
            (flank,) = query.neighborhood()[1]
            assert flank == day.step(1 if day.components[0] == 1 else -1)


SPACE = ResolutionSpace(1, 8)
#: Keys at four levels (two spatial precisions x two temporal
#: resolutions); the pool's last three are never inserted.
TOUCH_POOL = [
    CellKey(geohash, time_key)
    for geohash in ("9q8y", "9q8z", "dr5r", "9q8y7", "9q8yd", "dr5rs")
    for time_key in (TimeKey.of(2013, 2, 2), TimeKey.of(2013, 2, 2, 5))
]
RESIDENT = TOUCH_POOL[:-3]


def touched_graph(history: list[tuple[float, float, int]]) -> StashGraph:
    graph = StashGraph(SPACE)
    summary = SummaryVector.empty(("temperature",))
    for key, (freshness, last, count) in zip(RESIDENT, history):
        graph.insert(Cell(key, summary, freshness, last, count))
    return graph


def column_bits(graph: StashGraph) -> list[bytes]:
    return [
        array[: columns.size].tobytes()
        for columns in graph.freshness_columns()
        for array in (columns.freshness, columns.last_touch, columns.access_count)
    ]


class TestOneFreshnessUpdate:
    """``touch_runs`` over several runs equals the sequential reference,
    one ``touch_batch_reference`` per run, bit for bit, when no key is in
    two runs (an owner's footprint and its ring never share one)."""

    @given(
        history=st.lists(
            st.tuples(st.floats(0, 50), st.floats(0, 10), st.integers(0, 9)),
            min_size=len(RESIDENT),
            max_size=len(RESIDENT),
        ),
        runs=st.lists(
            st.tuples(
                st.lists(st.integers(0, len(TOUCH_POOL) - 1), max_size=12),
                st.sampled_from([1.0, 0.35, 0.1, 0.0]),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=3,
        ),
        now=st.floats(0, 20),
        decay_rate=st.sampled_from([0.0, 1e-3, 0.07, 2.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_pass_equals_sequential_touches(self, history, runs, now, decay_rate):
        claimed: set[int] = set()
        disjoint = []
        for picks, amount, count_access, as_pairs in runs:
            mine = [i for i in picks if i not in claimed]
            claimed.update(mine)
            keys = [TOUCH_POOL[i] for i in mine]  # duplicates kept
            if as_pairs:
                keys = [(key.geohash, key.time_key) for key in keys]
            disjoint.append((keys, amount, count_access))
        fused, sequential = touched_graph(history), touched_graph(history)
        touched = fused.touch_runs(disjoint, now, decay_rate)
        expected = sum(
            touch_batch_reference(sequential, keys, amount, now, decay_rate, count)
            for keys, amount, count in disjoint
        )
        assert touched == expected
        assert column_bits(fused) == column_bits(sequential)

    def test_k_duplicates_carry_k_times_the_amount(self):
        """Ten touches of 0.1 on a cold cell carry 0.1 * 10 = 1.0, not ten
        additions (0.9999999999999999)."""
        history = [(0.0, 1.0, 2)] * len(RESIDENT)
        fused, sequential = touched_graph(history), touched_graph(history)
        runs = [([RESIDENT[0]] * 10, 0.1, True), ([RESIDENT[1]], 0.35, False)]
        fused.touch_runs(runs, 4.0, 0.07)
        for keys, amount, count_access in runs:
            touch_batch_reference(sequential, keys, amount, 4.0, 0.07, count_access)
        assert column_bits(fused) == column_bits(sequential)
        assert fused.get(RESIDENT[0]).freshness == 1.0

    def test_a_key_in_two_runs_coalesces_like_a_duplicate(self):
        history = [(3.0, 1.0, 2)] * len(RESIDENT)
        runs, duplicated = touched_graph(history), touched_graph(history)
        key = RESIDENT[0]
        runs.touch_runs([([key], 0.35, True), ([key], 0.35, True)], 4.0, 0.07)
        duplicated.touch_batch([key, key], 0.35, 4.0, 0.07, count_access=True)
        assert column_bits(runs) == column_bits(duplicated)


class TestLiveIngest:
    """One ``ingest_live``: cached cells x touched days ``epoch_range``
    calls before extent invalidation went by label; none after."""

    DAYS = TimeRange(
        TimeKey.of(2013, 2, 2).epoch_range().start,
        TimeKey.of(2013, 2, 3).epoch_range().end,
    )

    def scattered_batch(self, seed: int) -> ObservationBatch:
        """400 records across the dataset's domain on both cached days."""
        rng = np.random.default_rng(seed)
        n = 400
        return ObservationBatch(
            lats=rng.uniform(15.0, 60.0, n),
            lons=rng.uniform(-150.0, -50.0, n),
            epochs=rng.uniform(self.DAYS.start, self.DAYS.end - 1, n),
            attributes={name: rng.uniform(0, 1, n) for name in OBSERVATION_ATTRIBUTES},
        )

    def calendar_calls(self, dataset, monkeypatch, temporal) -> tuple[int, int]:
        """(cells cached, ``epoch_range`` calls made by one ``ingest_live``)
        with a p3 cover of two days cached; ``time_range`` is never read."""
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm(
            [
                AggregationQuery(
                    bbox=BoundingBox(30, 45, -115, -95),
                    time_range=self.DAYS,
                    resolution=Resolution(3, temporal),
                )
            ]
        )
        cached = cluster.total_cached_cells()
        reads: list[str] = []
        with monkeypatch.context() as patch:
            calls = counted(patch, TimeKey, "epoch_range")
            patch.setattr(
                CellKey,
                "time_range",
                property(lambda key: reads.append("time_range") or key.time_key.epoch_range()),
            )
            blocks, invalidated = cluster.ingest_live(self.scattered_batch(seed=11))
        assert blocks >= 100 and invalidated > 0
        assert reads == []
        return cached, len(calls)

    def test_calendar_work_is_per_touched_day_not_per_cached_cell(
        self, dataset, monkeypatch
    ):
        cells, calls = self.calendar_calls(dataset, monkeypatch, TemporalResolution.DAY)
        assert cells >= 300
        assert calls <= 2  # at most one per touched day; was cells x days
        more_cells, more_calls = self.calendar_calls(
            dataset, monkeypatch, TemporalResolution.HOUR
        )
        assert more_cells >= 2 * cells
        assert more_calls <= calls


class TestColdScan:
    """One rectangle query against flushed caches: every cell is a miss."""

    @pytest.fixture()
    def cold_cluster(self, dataset):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm([rectangle()])
        cluster.flush_caches()
        return cluster

    def test_one_bin_ids_call_and_two_batches_per_scan_leg(
        self, cold_cluster, dataset, monkeypatch
    ):
        legs: list[int] = []
        real_scan = storage_node_module.scan_blocks

        def scan(blocks, query):
            legs.append(len(blocks))
            return real_scan(blocks, query)

        monkeypatch.setattr(storage_node_module, "scan_blocks", scan)
        binned = counted(monkeypatch, ObservationBatch, "bin_ids")
        batches = counted(monkeypatch, ObservationBatch, "from_columns")

        query = rectangle()
        result = cold_cluster.run_query(query)
        cold_cluster.drain()
        assert result.provenance["cells_from_disk"] == len(query.footprint())
        assert len(legs) >= 2 and sum(legs) >= 3 * len(legs)  # several blocks a leg
        assert len(binned) <= len(legs)  # was one per block
        # The leg's concatenation and its filtered copy; was two per block.
        assert len(batches) <= 2 * len(legs)
        assert set(result.cells) == set(ground_truth_cells(dataset, query))

    def test_day_labels_rendered_once_per_time_key(self, cold_cluster, monkeypatch):
        """The coordinator looks up every missing cell's blocks once; the
        owners' ``_handle_populate`` looks up none (residency is
        completeness).  The cells share one day."""
        backend_module._day_labels.cache_clear()
        rendered = counted(monkeypatch, TimeKey, "__str__")
        lookups = counted(monkeypatch, type(cold_cluster.catalog), "blocks_for_cell")
        query = rectangle()
        cells = len(query.footprint())
        assert cells >= 20 and len({key.time_key for key in query.footprint()}) == 1
        cold_cluster.run_query(query)
        cold_cluster.drain()
        assert len(lookups) == cells  # was 2 * cells: populate looked again
        assert len(rendered) <= 1  # was one per lookup

    def test_block_sums_its_arrays_once(self, dataset, monkeypatch):
        sums: list[str] = []
        real = ObservationBatch.nbytes.fget
        monkeypatch.setattr(
            ObservationBatch,
            "nbytes",
            property(lambda batch: sums.append("nbytes") or real(batch)),
        )
        block = Block(block_id=BlockId(geohash="9w", day="2013-02-02"), batch=dataset)
        assert [block.nbytes for _ in range(5)] == [real(dataset)] * 5
        assert sums == ["nbytes"]
        # An append makes a new Block (``StorageCatalog.ingest``), which sums afresh.
        grown = Block(block_id=block.block_id, batch=dataset.concat(dataset))
        assert grown.nbytes == 2 * block.nbytes and len(sums) == 2

    def test_decode_bin_ids_decodes_each_temporal_code_once(self, dataset, monkeypatch):
        decoded = counted(monkeypatch, binning_module, "time_key_of_code")
        ids = dataset.bin_ids(3, TemporalResolution.DAY)
        pairs = binning_module.decode_bin_ids(ids, 3, TemporalResolution.DAY)
        days = {key for _, key in pairs}
        assert len(pairs) == len(dataset) and 2 <= len(days) <= 31
        assert len(decoded) == len(days)

    def test_frame_to_cells_labels_each_id_from_the_table(self, dataset, monkeypatch):
        """A scan leg's frame: one table label per id and no array built
        for them (``codes_to_geohashes`` ran six numpy calls a character)."""
        array_labels = counted(
            monkeypatch, geohash_module, "codes_to_geohashes", also=[binning_module]
        )
        labels = counted(monkeypatch, binning_module, "label_of_code")
        resolution = Resolution(3, TemporalResolution.DAY)
        frame = SummaryFrame.from_groups(
            dataset.bin_ids(resolution.spatial, resolution.temporal), dataset.attributes
        )
        cells = backend_module.frame_to_cells(frame, resolution)
        assert len(cells) == len(frame.ids) >= 100
        assert len(labels) == len(frame.ids) and array_labels == []
        assert set(cells) == {
            CellKey.parse(str(label))
            for label in bin_labels(dataset, resolution.spatial, resolution.temporal)
        }


def identity_frames(run) -> collections.Counter:
    """Python-level ``__hash__`` / ``__eq__`` / ``__lt__`` frames entered
    while ``run()`` executes (C slots are ``c_call`` events, not ``call``)."""
    entered: collections.Counter = collections.Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_name in ("__hash__", "__eq__", "__lt__"):
            entered[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return entered


class TestKeysHashInC:
    """Graph, PLM, freshness and catalog probes hash, compare and order
    keys without entering Python: ``TimeKey``, ``CellKey``, ``BlockId`` and
    ``Resolution`` are tuples.  As frozen dataclasses a warm op entered
    ~130 ``__hash__`` and ~60 ``__eq__`` frames, a cold one ~1 300,
    ~150 and ~90 ``__lt__``."""

    def query_op(self, cluster):
        def run():
            query = rectangle()
            assert cluster.run_query(query).completeness == 1.0
            cluster.drain()

        return run

    def test_a_warm_read_enters_no_identity_frame(self, dataset):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm([rectangle()])
        assert identity_frames(self.query_op(cluster)) == {}

    def test_a_cold_read_enters_no_identity_frame(self, dataset):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm([rectangle()])
        cluster.flush_caches()
        assert identity_frames(self.query_op(cluster)) == {}

    def test_the_counter_sees_a_python_dunder(self):
        """The probe must bite: a dict probe with a fresh, equal dataclass
        key enters the generated ``__hash__`` and ``__eq__`` of the key
        and of its time key."""
        from tests.reference import CellKeyTwin, TimeKeyTwin

        twin = CellKeyTwin("9q8", TimeKeyTwin((2013, 2, 2)))
        probes = {twin: 1}
        entered = identity_frames(lambda: probes[CellKeyTwin("9q8", TimeKeyTwin((2013, 2, 2)))])
        assert entered == {"__hash__": 2, "__eq__": 2}


class TestMetricsRegistryOnTheReadPath:
    """One registry call per completed query, and nothing built for it:
    the ``query`` series exists after the first query and the recorder's
    histograms only when the recorder is on."""

    def test_warm_query_appends_one_point_and_constructs_nothing(
        self, dataset, monkeypatch
    ):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm([rectangle()])
        series_built = counted(monkeypatch, registry_module, "TimeSeries")
        histograms_built = counted(monkeypatch, registry_module, "LatencyHistogram")
        records = counted(monkeypatch, cluster.metrics, "record")
        series = cluster.metrics.series["query"]
        before = len(series)

        result = cluster.run_query(rectangle())
        cluster.drain()

        assert records == ["record"]
        assert series_built == [] and histograms_built == []
        assert cluster.metrics.series["query"] is series
        assert len(series) == before + 1
        assert series.values[-1] == result.latency
        assert series.times[-1] == series.duration() <= cluster.sim.now
        assert cluster.metrics.histograms == {}  # recorder off
        assert cluster.fault_counters == {}  # nothing but fault counters lives there

    def test_socket_node_declares_the_gauges_of_its_sim_twin(self):
        import asyncio

        from repro.data.generator import DatasetSpec, SyntheticNAMGenerator
        from repro.serve.server import NodeSpec, build_node
        from repro.transport.asyncio_net import AsyncioTransport

        spec = DatasetSpec(num_records=2_000, start_day=(2013, 2, 1), num_days=1, seed=3)
        config = StashConfig(cluster=ClusterConfig(num_nodes=2))
        loop = asyncio.new_event_loop()
        try:
            transport = AsyncioTransport("node-0", loop=loop)
            node = build_node(
                NodeSpec(0, ("node-0", "node-1"), spec, config), transport
            )
            socket_gauges = node.metrics.snapshot()["gauges"]
            transport.engine.close()
        finally:
            loop.close()
        twin = StashCluster(SyntheticNAMGenerator(spec).generate(), config)
        twin.start()
        twin_gauges = twin.nodes["node-0"].metrics.snapshot()["gauges"]
        assert list(socket_gauges) == list(twin_gauges) == [
            "queue_depth", "disk_reads", "cache_cells", "freshness_pressure",
            "guest_cells",
        ]
        assert socket_gauges == twin_gauges  # both idle and cold: all zero
        # ... and the system mounts exactly those under the node's id.
        assert [n for n in twin.metrics.gauges if n.startswith("node-0.")] == [
            f"node-0.{name}" for name in twin_gauges
        ]


class TestSimulatorEventsPerRead:
    """Events the simulator steps for one read and its background
    population, by kind: the exact counts, so that removing an event
    shows up here as a change of one kind.  The warm read is an
    ``explore_warm`` op, every cell cached; the cold one a ``scan_cold``
    op, caches flushed first."""

    def events(self, monkeypatch, cluster) -> dict[str, int]:
        counts: collections.Counter = collections.Counter()
        real_step = Simulator.step

        def step(sim):
            counts[type(sim._heap[0][2]).__name__] += 1
            real_step(sim)

        with monkeypatch.context() as patch:
            patch.setattr(Simulator, "step", step)
            assert cluster.run_query(rectangle()).completeness == 1.0
            cluster.drain()
        return dict(counts)

    @pytest.fixture()
    def warm_cluster(self, dataset):
        cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm([rectangle()])
        return cluster

    def test_a_warm_read(self, warm_cluster, monkeypatch):
        expected = {"Event": 17, "Timeout": 12, "Process": 8, "AllOf": 1}
        assert self.events(monkeypatch, warm_cluster) == expected
        assert self.events(monkeypatch, warm_cluster) == expected

    def test_a_cold_read(self, warm_cluster, monkeypatch):
        expected = {"Event": 62, "Timeout": 40, "Process": 31, "AllOf": 2}
        for _ in range(2):
            warm_cluster.flush_caches()
            assert self.events(monkeypatch, warm_cluster) == expected
