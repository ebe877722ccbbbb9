"""Integration tests: the STASH cluster end-to-end."""

import pytest

from repro.config import (
    ClusterConfig,
    EvictionConfig,
    FreshnessConfig,
    StashConfig,
)
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.storage.backend import ground_truth_cells


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=6_000)


def make_config(**kwargs):
    defaults = dict(cluster=ClusterConfig(num_nodes=6))
    defaults.update(kwargs)
    return StashConfig(**defaults)


@pytest.fixture()
def cluster(dataset):
    return StashCluster(dataset, make_config())


def make_query(box=None, precision=3, day=(2013, 2, 2)):
    return AggregationQuery(
        bbox=box or BoundingBox(30, 45, -115, -95),
        time_range=TimeKey.of(*day).epoch_range(),
        resolution=Resolution(precision, TemporalResolution.DAY),
    )


def assert_matches_truth(result, dataset, query):
    truth = ground_truth_cells(dataset, query)
    assert set(result.cells) == set(truth)
    for key, vec in result.cells.items():
        assert vec.approx_equal(truth[key])


class TestCorrectness:
    def test_cold_query_matches_ground_truth(self, cluster, dataset):
        query = make_query()
        result = cluster.run_query(query)
        assert_matches_truth(result, dataset, query)
        assert result.provenance["cells_from_disk"] > 0
        assert result.provenance["cells_from_cache"] == 0

    def test_hot_query_matches_and_hits_cache(self, cluster, dataset):
        query = make_query()
        cluster.warm([query])
        repeat = make_query()  # identical extent, fresh query id
        result = cluster.run_query(repeat)
        assert_matches_truth(result, dataset, repeat)
        assert result.provenance["cells_from_disk"] == 0
        assert result.provenance["cells_from_cache"] == len(repeat.footprint())

    def test_hot_query_is_much_faster(self, cluster):
        query = make_query()
        cold = cluster.run_query(query)
        cluster.drain()
        hot = cluster.run_query(make_query())
        assert hot.latency < cold.latency / 3

    def test_cold_stash_slower_than_basic(self, dataset):
        """Paper Fig 6a: empty STASH pays lookup overhead over basic."""
        from repro.baselines.basic import BasicSystem

        query = make_query()
        basic = BasicSystem(dataset, make_config()).run_query(query)
        stash = StashCluster(dataset, make_config()).run_query(make_query())
        assert stash.latency > basic.latency
        # ... but only slightly (within ~50%).
        assert stash.latency < basic.latency * 1.5

    def test_overlapping_query_partial_reuse(self, cluster, dataset):
        query = make_query()
        cluster.warm([query])
        panned = make_query().panned(1.0, 1.0)
        result = cluster.run_query(panned)
        assert_matches_truth(result, dataset, panned)
        assert result.provenance["cells_from_cache"] > 0
        assert result.provenance["cells_from_disk"] > 0

    def test_population_is_asynchronous(self, cluster):
        query = make_query()
        result = cluster.run_query(query)
        # Population messages may still be in flight right after the
        # client response; draining completes them.
        cluster.drain()
        assert cluster.total_cached_cells() >= len(result.cells)

    def test_empty_cells_cached_explicitly(self, cluster):
        query = make_query()
        cluster.warm([query])
        cached = cluster.total_cached_cells()
        assert cached == len(query.footprint())

    def test_matches_basic_system_exactly(self, dataset):
        from repro.baselines.basic import BasicSystem

        query = make_query(box=BoundingBox(28, 44, -120, -90))
        basic = BasicSystem(dataset, make_config()).run_query(query)
        stash_cluster = StashCluster(dataset, make_config())
        cold = stash_cluster.run_query(make_query(box=BoundingBox(28, 44, -120, -90)))
        stash_cluster.drain()
        hot = stash_cluster.run_query(make_query(box=BoundingBox(28, 44, -120, -90)))
        assert cold.matches(basic)
        assert hot.matches(basic)


class TestRollupReuse:
    def _warm_children_of(self, cluster, coarse):
        """Warm the fine-resolution cells tiling the coarse query exactly."""
        fine = AggregationQuery(
            bbox=coarse.snapped_bbox(),
            time_range=coarse.time_range,
            resolution=Resolution(
                coarse.resolution.spatial + 1, coarse.resolution.temporal
            ),
        )
        cluster.warm([fine])
        return fine

    def test_rollup_answers_coarser_query_without_disk(self, cluster, dataset):
        coarse = make_query(precision=3)
        self._warm_children_of(cluster, coarse)
        result = cluster.run_query(coarse)
        assert_matches_truth(result, dataset, coarse)
        assert result.provenance["cells_from_rollup"] == len(coarse.footprint())
        assert result.provenance["cells_from_disk"] == 0

    def test_rollup_results_are_cached(self, cluster):
        coarse = make_query(precision=3)
        self._warm_children_of(cluster, coarse)
        cluster.run_query(coarse)
        cluster.drain()
        again = cluster.run_query(make_query(precision=3))
        assert again.provenance["cells_from_rollup"] == 0
        assert again.provenance["cells_from_cache"] == len(coarse.footprint())

    def test_drilldown_cannot_use_coarser_cells(self, cluster):
        coarse = make_query(precision=3)
        cluster.warm([coarse])
        fine = make_query(precision=4)
        result = cluster.run_query(fine)
        assert result.provenance["cells_from_disk"] == len(fine.footprint())


class TestPreload:
    def test_preload_full_makes_query_hot(self, cluster, dataset):
        query = make_query()
        inserted = cluster.preload_fraction(query, 1.0)
        assert inserted == len(query.footprint())
        result = cluster.run_query(make_query())
        assert_matches_truth(result, dataset, query)
        assert result.provenance["cells_from_disk"] == 0

    def test_preload_half(self, cluster):
        query = make_query()
        inserted = cluster.preload_fraction(query, 0.5)
        footprint_size = len(query.footprint())
        assert inserted == round(footprint_size * 0.5)
        result = cluster.run_query(make_query())
        assert result.provenance["cells_from_cache"] == inserted

    def test_preload_bad_fraction(self, cluster):
        from repro.errors import CacheError

        with pytest.raises(CacheError):
            cluster.preload_fraction(make_query(), 1.5)

    def test_preload_latency_decreases_with_fraction(self):
        # Needs a dense day and fine partitioning so the query spans many
        # nonempty blocks — otherwise caching half the cells saves no
        # block reads (the paper's queries cover hundreds of blocks).
        dense = small_test_dataset(num_records=40_000, num_days=2)
        config = make_config(
            cluster=ClusterConfig(num_nodes=6, partition_precision=3)
        )
        query = make_query(box=BoundingBox(32, 40, -112, -102), precision=4)
        latencies = {}
        for fraction in (0.0, 0.5, 1.0):
            cluster = StashCluster(dense, config)
            cluster.preload_fraction(query, fraction)
            latencies[fraction] = cluster.run_query(
                make_query(box=BoundingBox(32, 40, -112, -102), precision=4)
            ).latency
        assert latencies[1.0] < latencies[0.5] < latencies[0.0]


class TestEvictionUnderPressure:
    def test_cache_respects_capacity(self, dataset):
        config = make_config(
            eviction=EvictionConfig(max_cells=50, safe_fraction=0.8),
            freshness=FreshnessConfig(half_life=30.0),
        )
        cluster = StashCluster(dataset, config)
        for i in range(6):
            cluster.run_query(make_query(box=BoundingBox(25 + i, 40 + i, -115, -95)))
            cluster.drain()
        for node in cluster.nodes.values():
            assert len(node.graph) <= 50
        assert cluster.counters_total().get("cells_evicted", 0) > 0

    def test_results_correct_despite_eviction(self, dataset):
        config = make_config(eviction=EvictionConfig(max_cells=30, safe_fraction=0.5))
        cluster = StashCluster(dataset, config)
        query = make_query()
        for _ in range(3):
            result = cluster.run_query(make_query())
            cluster.drain()
            assert_matches_truth(result, dataset, query)
