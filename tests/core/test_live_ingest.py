"""Real-time update path: live ingest invalidates stale cached cells."""

import numpy as np
import pytest

from repro.config import ClusterConfig, StashConfig
from repro.core.cell import Cell
from repro.core.cluster import StashCluster
from repro.data.block import partition_into_blocks
from repro.data.generator import small_test_dataset
from repro.data.observation import ObservationBatch
from repro.errors import StorageError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey, TimeRange
from repro.query.model import AggregationQuery
from repro.storage.backend import ground_truth_cells
from tests.reference import extent_overlaps_reference, slot_maps_mirror_levels


def make_query(box=None):
    return AggregationQuery(
        bbox=box or BoundingBox(32, 40, -112, -102),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(4, TemporalResolution.DAY),
    )


def new_observations(n=50, lat0=35.0, lon0=-107.0, temp=99.0, day=2, seed=123):
    """A burst of hot observations inside the query box on the query day."""
    rng = np.random.default_rng(seed)
    base = TimeKey.of(2013, 2, day).epoch_range()
    return ObservationBatch(
        lats=rng.uniform(lat0, lat0 + 1.0, n),
        lons=rng.uniform(lon0, lon0 + 1.0, n),
        epochs=rng.uniform(base.start, base.end - 1, n),
        attributes={
            "temperature": np.full(n, temp),
            "humidity": np.full(n, 10.0),
            "precipitation": np.zeros(n),
            "snow_depth": np.zeros(n),
        },
    )


@pytest.fixture()
def cluster():
    dataset = small_test_dataset(num_records=6_000)
    return StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=6)))


class TestLiveIngest:
    def test_stale_cells_recomputed(self, cluster):
        query = make_query()
        before = cluster.run_query(query)
        cluster.drain()
        blocks, invalidated = cluster.ingest_live(new_observations())
        assert blocks > 0
        assert invalidated > 0
        after = cluster.run_query(make_query())
        # New records are visible: total count grew by exactly the burst.
        assert after.total_count == before.total_count + 50
        # The hot burst shows up in the max temperature.
        assert after.overall_summary()["temperature"].maximum == 99.0

    def test_result_matches_oracle_after_update(self, cluster):
        query = make_query()
        cluster.run_query(query)
        cluster.drain()
        burst = new_observations()
        cluster.ingest_live(burst)
        combined = small_test_dataset(num_records=6_000).concat(burst)
        result = cluster.run_query(make_query())
        truth = ground_truth_cells(combined, query)
        assert set(result.cells) == set(truth)
        for key, vec in result.cells.items():
            assert vec.approx_equal(truth[key])

    def test_cells_cached_as_empty_are_invalidated(self, cluster):
        # Query an ocean region with no data: cells cached as empty.
        empty_box = BoundingBox(0.0, 2.0, -60.0, -56.0)
        query = make_query(box=empty_box)
        first = cluster.run_query(query)
        assert first.cells == {}
        cluster.drain()
        assert cluster.total_cached_cells() > 0
        # New data lands in that previously-empty region (new blocks!).
        cluster.ingest_live(new_observations(lat0=0.5, lon0=-58.0))
        second = cluster.run_query(make_query(box=empty_box))
        assert second.total_count == 50

    def test_untouched_regions_keep_their_cache(self, cluster):
        far_query = make_query(box=BoundingBox(45, 50, -90, -80))
        cluster.run_query(far_query)
        cluster.drain()
        cached_before = cluster.total_cached_cells()
        cluster.ingest_live(new_observations())  # far away from far_query
        # The far region's footprint stays cached.
        repeat = cluster.run_query(make_query(box=BoundingBox(45, 50, -90, -80)))
        assert repeat.provenance["cells_from_disk"] == 0
        assert cluster.total_cached_cells() <= cached_before

    def test_day_ingest_only_affects_that_day(self, cluster):
        other_day = AggregationQuery(
            bbox=BoundingBox(32, 40, -112, -102),
            time_range=TimeKey.of(2013, 2, 3).epoch_range(),
            resolution=Resolution(4, TemporalResolution.DAY),
        )
        cluster.run_query(other_day)
        cluster.drain()
        cluster.ingest_live(new_observations())  # lands on 2013-02-02
        repeat = cluster.run_query(
            AggregationQuery(
                bbox=other_day.bbox,
                time_range=other_day.time_range,
                resolution=other_day.resolution,
            )
        )
        assert repeat.provenance["cells_from_disk"] == 0


def resident_keys(cluster):
    """Every cached key in the cluster, local and guest, by (node, graph)."""
    return {
        (node.node_id, graph.name, cell.key)
        for node in cluster.nodes.values()
        for graph in (node.graph, node.guest)
        for cell in graph.cells()
    }


def assert_matches_oracle(cells, records, query):
    truth = ground_truth_cells(records, query)
    assert set(cells) == set(truth)
    for key, vec in cells.items():
        assert vec.approx_equal(truth[key])


class TestEveryResolutionCase:
    """Cells coarser than, equal to and finer than the block (precision
    3), at MONTH, DAY and HOUR, through three interleaved live batches."""

    LAND = BoundingBox(32, 40, -112, -102)
    LAND_SPOT = BoundingBox(35.0, 35.4, -107.0, -106.6)  # inside the land bursts
    OCEAN = BoundingBox(0.0, 2.0, -60.0, -56.0)  # no record in the base data
    OCEAN_SPOT = BoundingBox(0.5, 0.9, -58.0, -57.6)

    def queries(self):
        days = TimeRange(
            TimeKey.of(2013, 2, 2).epoch_range().start,
            TimeKey.of(2013, 2, 3).epoch_range().end,
        )
        return [
            AggregationQuery(
                bbox=box, time_range=days, resolution=Resolution(precision, temporal)
            )
            for precision, boxes in (
                (2, (self.LAND, self.OCEAN)),
                (3, (self.LAND, self.OCEAN)),
                (5, (self.LAND_SPOT, self.OCEAN_SPOT)),
            )
            for box in boxes
            for temporal in (
                TemporalResolution.MONTH,
                TemporalResolution.DAY,
                TemporalResolution.HOUR,
            )
        ]

    def test_interleaved_batches_match_oracle_and_reference(self):
        records = small_test_dataset(num_records=6_000)
        cluster = StashCluster(records, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.warm(self.queries())
        ocean_cached = cluster.run_query(
            AggregationQuery(
                bbox=self.OCEAN_SPOT,
                time_range=TimeKey.of(2013, 2, 2).epoch_range(),
                resolution=Resolution(5, TemporalResolution.HOUR),
            )
        )
        assert ocean_cached.cells == {}  # cached as empty, and about to go stale
        assert ocean_cached.provenance["cells_from_disk"] == 0
        batches = [
            new_observations(n=40, lat0=35.0, lon0=-107.0, day=2, seed=1),
            # Opens brand-new blocks inside cells cached as empty.
            new_observations(n=40, lat0=0.5, lon0=-58.0, day=2, seed=2),
            # Lands on the second day only.
            new_observations(n=40, lat0=35.0, lon0=-107.0, day=3, seed=3),
        ]
        for batch in batches:
            touched = list(
                partition_into_blocks(batch, cluster.catalog.block_precision)
            )
            before = resident_keys(cluster)
            expected = {
                entry for entry in before if extent_overlaps_reference(entry[2], touched)
            }
            blocks, invalidated = cluster.ingest_live(batch)
            assert blocks == len(touched)
            assert before - resident_keys(cluster) == expected
            assert invalidated == len(expected) > 0
            # All three temporal resolutions and all three precisions lost cells.
            assert {len(key.geohash) for _, _, key in expected} == {2, 3, 5}
            assert {key.time_key.resolution for _, _, key in expected} == {
                TemporalResolution.MONTH,
                TemporalResolution.DAY,
                TemporalResolution.HOUR,
            }
            records = records.concat(batch)
            for query in self.queries():
                assert_matches_oracle(cluster.run_query(query).cells, records, query)
            cluster.drain()

    def test_stale_guest_cells_go_and_the_reroute_falls_back(self):
        records = small_test_dataset(num_records=6_000)
        cluster = StashCluster(records, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        cluster.start()
        query = AggregationQuery(
            bbox=self.LAND,
            time_range=TimeKey.of(2013, 2, 2).epoch_range(),
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        helper = cluster.nodes["node-0"]
        for key, summary in cluster.compute_footprint_cells(query).items():
            helper.guest.upsert(Cell(key=key, summary=summary))
        batch = new_observations(day=2)
        touched = list(partition_into_blocks(batch, cluster.catalog.block_precision))
        stale = {
            cell.key
            for cell in helper.guest.cells()
            if extent_overlaps_reference(cell.key, touched)
        }
        held = len(helper.guest)
        assert cluster.ingest_live(batch) == (len(touched), len(stale))
        assert stale and len(helper.guest) == held - len(stale)
        assert not any(helper.guest.contains(key) for key in stale)
        slot_maps_mirror_levels(helper.guest)
        # The replica is now incomplete: a rerouted read falls back to a
        # full evaluation and sees the new records.
        reply = cluster.network.request(
            "client", helper.node_id, "evaluate_guest", {"query": query}, size=512
        )
        response = cluster.sim.run(until=reply)
        assert helper.counters.get("guest_fallbacks") == 1
        assert_matches_oracle(response["cells"], records.concat(batch), query)


def two_attribute_burst(positions, epoch):
    """A live batch carrying only two of the catalog's four attributes."""
    lats, lons = (np.asarray(column, dtype=np.float64) for column in zip(*positions))
    n = len(lats)
    return ObservationBatch(
        lats=lats,
        lons=lons,
        epochs=np.full(n, epoch),
        attributes={"temperature": np.full(n, 99.0), "humidity": np.full(n, 10.0)},
    )


class TestMismatchedBatchIsRefused:
    """A batch with the wrong attribute schema changes nothing at all."""

    def check_refused(self, cluster, query, bad_batch):
        first = cluster.run_query(query)
        cluster.drain()
        cached = cluster.total_cached_cells()
        records, blocks = cluster.catalog.total_records, cluster.catalog.num_blocks
        with pytest.raises(StorageError, match="attributes"):
            cluster.ingest_live(bad_batch)
        assert cluster.catalog.total_records == records
        assert cluster.catalog.num_blocks == blocks
        assert cluster.total_cached_cells() == cached
        repeat = cluster.run_query(query.clone())
        assert repeat.provenance["cells_from_disk"] == 0
        assert repeat.cells.keys() == first.cells.keys()
        # The disk still backs what the cache says.
        cluster.drain()
        cluster.flush_caches()
        rescanned = cluster.run_query(query.clone())
        assert rescanned.cells.keys() == first.cells.keys()
        for key, vec in rescanned.cells.items():
            assert vec.approx_equal(first.cells[key])

    def test_batch_that_only_opens_new_blocks(self, cluster):
        empty_box = BoundingBox(0.0, 2.0, -60.0, -56.0)
        day = TimeKey.of(2013, 2, 2).epoch_range()
        bad = two_attribute_burst([(0.7, -58.0), (1.1, -57.5), (1.6, -59.0)], day.start + 60)
        self.check_refused(cluster, make_query(box=empty_box), bad)

    def test_batch_that_mixes_new_and_existing_blocks(self, cluster):
        base = small_test_dataset(num_records=6_000)
        lat, lon, epoch = float(base.lats[0]), float(base.lons[0]), float(base.epochs[0])
        # Geohash '0...' sorts before every block of the northern-hemisphere
        # base data, so the new block would be placed before the append to
        # the existing one is attempted.
        bad = two_attribute_burst([(-80.0, -170.0), (lat, lon)], epoch)
        ids = list(partition_into_blocks(bad, cluster.catalog.block_precision))
        assert cluster.catalog.get_block(ids[0]) is None
        assert cluster.catalog.get_block(ids[1]) is not None
        query = AggregationQuery(
            bbox=BoundingBox(lat - 1, lat + 1, lon - 1, lon + 1),
            time_range=TimeKey.from_epoch(epoch, TemporalResolution.DAY).epoch_range(),
            resolution=Resolution(4, TemporalResolution.DAY),
        )
        self.check_refused(cluster, query, bad)

    def test_empty_batch_of_any_schema_is_a_no_op(self, cluster):
        cluster.start()
        blocks = cluster.catalog.num_blocks
        assert cluster.ingest_live(ObservationBatch.empty(("temperature",))) == (0, 0)
        assert cluster.catalog.num_blocks == blocks
        assert cluster.ingest_live(new_observations())[0] > 0
