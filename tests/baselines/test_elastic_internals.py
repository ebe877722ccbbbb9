"""Unit tests for the ES baseline's internals (shards, chunking, caches)."""

import numpy as np
import pytest

from repro.baselines.elastic import CHUNK_TILE_PRECISION, EsShard
from repro.data.generator import small_test_dataset
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery


@pytest.fixture(scope="module")
def batch():
    return small_test_dataset(num_records=2_000)


class TestShardChunking:
    def test_chunks_partition_records(self, batch):
        shard = EsShard(0)
        shard.add_chunked(batch)
        total = sum(len(chunk) for chunk in shard.chunks.values())
        assert total == len(batch)

    def test_chunk_members_match_labels(self, batch):
        from repro.geo.geohash import encode
        from repro.geo.temporal import TemporalResolution as TR

        shard = EsShard(0)
        shard.add_chunked(batch)
        for (day, tile), chunk in list(shard.chunks.items())[:10]:
            for i in range(min(3, len(chunk))):
                assert encode(chunk.lats[i], chunk.lons[i], CHUNK_TILE_PRECISION) == tile
                key = TimeKey.from_epoch(chunk.epochs[i], TR.DAY)
                assert str(key) == day

    def test_incremental_add_merges(self, batch):
        half = len(batch) // 2
        idx = np.arange(len(batch))
        shard = EsShard(0)
        shard.add_chunked(batch.select(idx[:half]))
        shard.add_chunked(batch.select(idx[half:]))
        total = sum(len(chunk) for chunk in shard.chunks.values())
        assert total == len(batch)

    def test_add_empty_noop(self):
        from repro.data.observation import ObservationBatch

        shard = EsShard(0)
        shard.add_chunked(ObservationBatch.empty())
        assert shard.chunks == {}

    def test_matching_chunks_filters_by_day_and_tile(self, batch):
        shard = EsShard(0)
        shard.add_chunked(batch)
        query = AggregationQuery(
            bbox=BoundingBox(30, 45, -115, -95),
            time_range=TimeKey.of(2013, 2, 2).epoch_range(),
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        matches = shard.matching_chunks(query)
        assert matches
        for (day, tile), _chunk in matches:
            assert day == "2013-02-02"

    def test_matching_chunks_complete(self, batch):
        """Every record in the snapped extent appears in a matching chunk."""
        shard = EsShard(0)
        shard.add_chunked(batch)
        query = AggregationQuery(
            bbox=BoundingBox(30, 45, -115, -95),
            time_range=TimeKey.of(2013, 2, 2).epoch_range(),
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        in_extent = batch.filter_bbox(query.snapped_bbox()).filter_time(
            query.snapped_time_range()
        )
        matched = sum(
            len(chunk.filter_bbox(query.snapped_bbox()).filter_time(
                query.snapped_time_range()
            ))
            for _id, chunk in shard.matching_chunks(query)
        )
        assert matched == len(in_extent)


class TestRequestCacheLRU:
    def test_capacity_enforced(self, monkeypatch):
        from repro.baselines.elastic import ElasticSystem
        from repro.config import ClusterConfig, ElasticConfig, StashConfig

        monkeypatch.setattr("repro.baselines.elastic.REQUEST_CACHE_ENTRIES", 2)
        dataset = small_test_dataset(num_records=2_000)
        config = StashConfig(
            cluster=ClusterConfig(num_nodes=2),
            elastic=ElasticConfig(num_shards=4),
        )
        system = ElasticSystem(dataset, config)
        boxes = [
            BoundingBox(30 + i, 33 + i, -110, -105) for i in range(4)
        ]
        for box in boxes:
            system.run_query(
                AggregationQuery(
                    bbox=box,
                    time_range=TimeKey.of(2013, 2, 2).epoch_range(),
                    resolution=Resolution(3, TemporalResolution.DAY),
                )
            )
        for node in system.nodes.values():
            assert len(node._request_cache) <= 2
