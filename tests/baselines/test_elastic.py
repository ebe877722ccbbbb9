"""Tests for the simulated ElasticSearch baseline."""

import pytest

from repro.baselines.elastic import ElasticSystem, PageCache, _request_key
from repro.config import ClusterConfig, ElasticConfig, StashConfig
from repro.data.generator import small_test_dataset
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.storage.backend import ground_truth_cells
from tests.reference import scan_blocks_reference


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=6_000)


def make_config(**kwargs):
    defaults = dict(
        cluster=ClusterConfig(num_nodes=6),
        elastic=ElasticConfig(num_shards=24, page_cache_blocks=16),
    )
    defaults.update(kwargs)
    return StashConfig(**defaults)


@pytest.fixture()
def system(dataset):
    return ElasticSystem(dataset, make_config())


def make_query(box=None, precision=3):
    return AggregationQuery(
        bbox=box or BoundingBox(30, 45, -115, -95),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(precision, TemporalResolution.DAY),
    )


class TestCorrectness:
    def test_matches_ground_truth(self, system, dataset):
        query = make_query()
        result = system.run_query(query)
        truth = ground_truth_cells(dataset, query)
        assert set(result.cells) == set(truth)
        for key, vec in result.cells.items():
            assert vec.approx_equal(truth[key])

    def test_multi_shard_multi_day_cells_are_pinned(self, system, dataset):
        """The shard scan bins on packed ids; the answer must be the one
        the string-label reference scan gives — same cells, same order,
        same bits (group order and float summation order preserved) —
        and agree with the ground truth."""
        query = AggregationQuery(
            bbox=BoundingBox(28, 48, -120, -90),
            time_range=TimeKey.of(2013, 2).epoch_range(),
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        result = system.run_query(query)

        expected = {}
        shards_hit = 0
        for node_id in sorted(system.nodes):  # the coordinator's merge order
            chunks = []
            for shard in system.nodes[node_id].shards:
                matching = [chunk for _, chunk in shard.matching_chunks(query)]
                shards_hit += bool(matching)
                chunks.extend(matching)
            for key, vec in scan_blocks_reference(chunks, query).items():
                existing = expected.get(key)
                expected[key] = vec if existing is None else existing.merge(vec)
        assert shards_hit > 12
        assert len({key.time_key for key in expected}) > 1
        assert result.cells == expected
        assert list(result.cells) == list(expected)

        # Against the single-pass oracle: keys, counts and extrema are
        # exact; sums differ only by per-shard partial-sum rounding.
        truth = ground_truth_cells(dataset, query)
        assert set(result.cells) == set(truth)
        for key, vec in result.cells.items():
            assert vec.approx_equal(truth[key], rel=1e-12)

    def test_repeat_query_still_correct(self, system, dataset):
        query = make_query()
        system.run_query(query)
        repeat = system.run_query(make_query())
        truth = ground_truth_cells(dataset, repeat.query)
        assert set(repeat.cells) == set(truth)

    def test_matches_stash_answers(self, dataset):
        from repro.core.cluster import StashCluster

        query_box = BoundingBox(32, 42, -112, -98)
        es = ElasticSystem(dataset, make_config()).run_query(
            make_query(box=query_box)
        )
        stash = StashCluster(dataset, make_config()).run_query(
            make_query(box=query_box)
        )
        assert es.matches(stash)


class TestCacheSemantics:
    def test_identical_repeat_hits_request_cache(self, system):
        query = make_query()
        first = system.run_query(query)
        repeat = system.run_query(make_query())  # same bounds, new id
        counts = sum(
            node.counters.get("request_cache_hits")
            for node in system.nodes.values()
        )
        assert counts > 0
        assert repeat.latency < first.latency / 2

    def test_panned_query_misses_request_cache(self, system):
        system.run_query(make_query())
        hits_before = sum(
            node.counters.get("request_cache_hits")
            for node in system.nodes.values()
        )
        system.run_query(make_query().panned(0.5, 0.5))
        hits_after = sum(
            node.counters.get("request_cache_hits")
            for node in system.nodes.values()
        )
        assert hits_after == hits_before  # no request-cache reuse

    def test_panning_improvement_is_small(self, system):
        """The paper's Fig 8a shape: ES improves only slightly on pans.

        This holds in the paper's regime — the working set far exceeds
        the page cache (1.1 TB vs 16 GB nodes) — so the cache must be
        small relative to the chunks the query spans.
        """
        config = make_config(
            elastic=ElasticConfig(num_shards=24, page_cache_blocks=1)
        )
        system = ElasticSystem(small_test_dataset(num_records=6_000), config)
        base = make_query(box=BoundingBox(25, 48, -125, -85))
        first = system.run_query(base)
        panned_latencies = []
        for i in range(1, 5):
            moved = base.panned(0.2 * i, 0.2 * i)
            panned_latencies.append(system.run_query(moved).latency)
        for latency in panned_latencies:
            reduction = (first.latency - latency) / first.latency
            assert reduction < 0.35  # nowhere near STASH's 49-70%

    def test_request_key_distinguishes_bounds(self):
        a = make_query()
        b = make_query().panned(1e-6, 0)
        assert _request_key(a) != _request_key(b)
        c = make_query()
        assert _request_key(a) == _request_key(c)

    def test_page_cache_lru(self):
        cache = PageCache(capacity=2)
        assert not cache.access((0, "a", "x"))
        assert not cache.access((0, "b", "x"))
        assert cache.access((0, "a", "x"))
        assert not cache.access((0, "c", "x"))  # evicts b
        assert not cache.access((0, "b", "x"))
        assert cache.hits == 1 and cache.misses == 4

    def test_page_cache_zero_capacity(self):
        cache = PageCache(capacity=0)
        assert not cache.access((0, "a", "x"))
        assert not cache.access((0, "a", "x"))


class TestShardPlacement:
    def test_all_records_in_shards(self, system, dataset):
        system.start()
        total = sum(
            len(chunk)
            for node in system.nodes.values()
            for shard in node.shards
            for chunk in shard.chunks.values()
        )
        assert total == len(dataset)

    def test_shards_spread_over_nodes(self, system):
        system.start()
        shard_counts = [len(node.shards) for node in system.nodes.values()]
        assert all(count == 4 for count in shard_counts)  # 24 shards / 6 nodes

    def test_hash_sharding_splits_regions(self, system):
        """Geospatially adjacent data lands in many shards (no locality)."""
        system.start()
        query = AggregationQuery(
            bbox=BoundingBox(28, 48, -120, -90),
            time_range=TimeKey.of(2013, 2).epoch_range(),
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        shards_with_matches = 0
        for node in system.nodes.values():
            for shard in node.shards:
                if shard.matching_chunks(query):
                    shards_with_matches += 1
        assert shards_with_matches > 12  # most of the 24 shards
