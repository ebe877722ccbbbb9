"""Tests for trace record/replay and cluster monitoring (the gauges)."""

import numpy as np
import pytest

from repro.config import ClusterConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.data.generator import NAM_DOMAIN, small_test_dataset
from repro.errors import WorkloadError
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.workload.queries import QuerySize, random_query
from repro.workload.trace import (
    load_trace,
    query_from_dict,
    query_to_dict,
    replay_trace,
    save_trace,
)


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=5_000)


def gauges(cluster) -> dict[str, float]:
    """Every gauge of the system's registry, read now."""
    return cluster.metrics.snapshot()["gauges"]


def sample_queries(n=5):
    rng = np.random.default_rng(17)
    return [
        random_query(
            rng,
            QuerySize.STATE,
            NAM_DOMAIN,
            day=TimeKey.of(2013, 2, 2),
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        for _ in range(n)
    ]


class TestTraceSerialization:
    def test_roundtrip_dict(self):
        for query in sample_queries(3):
            clone = query_from_dict(query_to_dict(query))
            assert clone.bbox == query.bbox
            assert clone.time_range == query.time_range
            assert clone.resolution == query.resolution

    def test_attributes_preserved(self):
        query = sample_queries(1)[0]
        from repro.query.model import AggregationQuery

        with_attrs = AggregationQuery(
            bbox=query.bbox,
            time_range=query.time_range,
            resolution=query.resolution,
            attributes=("temperature",),
        )
        clone = query_from_dict(query_to_dict(with_attrs))
        assert clone.attributes == ("temperature",)

    def test_malformed_record(self):
        with pytest.raises(WorkloadError):
            query_from_dict({"bbox": [1, 2, 3]})

    def test_save_load_file(self, tmp_path):
        queries = sample_queries(7)
        path = tmp_path / "trace.jsonl"
        assert save_trace(queries, path) == 7
        loaded = load_trace(path)
        assert len(loaded) == 7
        for a, b in zip(queries, loaded):
            assert a.bbox == b.bbox and a.resolution == b.resolution

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(WorkloadError):
            load_trace(path)

    def test_load_skips_blank_lines(self, tmp_path):
        queries = sample_queries(2)
        path = tmp_path / "trace.jsonl"
        save_trace(queries, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_trace(path)) == 2


class TestReplay:
    def test_serial_replay(self, dataset, tmp_path):
        queries = sample_queries(3)
        path = tmp_path / "trace.jsonl"
        save_trace(queries, path)
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        results = replay_trace(cluster, load_trace(path))
        assert len(results) == 3
        assert all(r.latency > 0 for r in results)

    def test_replay_reproducible(self, dataset, tmp_path):
        queries = sample_queries(3)
        path = tmp_path / "trace.jsonl"
        save_trace(queries, path)

        def run():
            cluster = StashCluster(
                dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
            )
            return [r.latency for r in replay_trace(cluster, load_trace(path))]

        assert run() == run()

    def test_concurrent_replay(self, dataset):
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        results = replay_trace(cluster, sample_queries(4), concurrent=True)
        assert len(results) == 4


class TestMonitor:
    def test_snapshot_fields(self, dataset):
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        replay_trace(cluster, sample_queries(3))
        cluster.drain()
        snap = gauges(cluster)
        assert cluster.sim.now > 0
        per_node = [name for name in snap if name.endswith(".cache_cells")]
        assert per_node == [f"node-{i}.cache_cells" for i in range(4)]
        assert len(cluster.metrics.series["query"]) == 3
        assert sum(snap[name] for name in per_node) == cluster.total_cached_cells()
        assert snap["network.messages_sent"] == cluster.network.messages_sent > 0
        assert snap["network.bytes_sent"] == cluster.network.bytes_sent

    def test_hit_rate_progression(self, dataset):
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        queries = sample_queries(2)
        replay_trace(cluster, queries)
        cluster.drain()
        cold_rate = gauges(cluster)["cluster.hit_rate"]
        replay_trace(cluster, [q.panned(0, 0) for q in queries])
        cluster.drain()
        warm_rate = gauges(cluster)["cluster.hit_rate"]
        assert warm_rate > cold_rate

    def test_format_table(self, dataset):
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        replay_trace(cluster, sample_queries(1))
        cluster.metrics.sample()
        table = cluster.metrics.format_table()
        assert "node-0.cache_cells" in table
        assert "cluster.hit_rate" in table

    def test_snapshot_is_side_effect_free(self, dataset):
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        replay_trace(cluster, sample_queries(2))
        cluster.drain()
        before = cluster.sim.now
        first = cluster.metrics.snapshot()
        assert cluster.sim.now == before
        assert cluster.metrics.snapshot() == first
        assert all(len(s) == 0 for n, s in cluster.metrics.series.items() if n != "query")

    def test_imbalance_and_guest_zero_without_hotspot(self, dataset):
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        replay_trace(cluster, sample_queries(2))
        cluster.drain()
        snap = gauges(cluster)
        assert sum(v for n, v in snap.items() if n.endswith(".guest_cells")) == 0
        cells = [v for n, v in snap.items() if n.endswith(".cache_cells")]
        assert max(cells) / (sum(cells) / len(cells)) >= 1.0

    @pytest.mark.parametrize("engine", ["stash", "basic", "elastic"])
    def test_snapshot_and_gauge_agree_on_the_hit_rate(self, dataset, engine):
        """One definition: the ``cluster.hit_rate`` gauge *is* ``cache_hit_rate()``.

        Three identical requests: the elastic request cache answers the
        last two (2/3), which a second read path once ignored (0.0);
        STASH serves repeats from its cells; basic caches nothing.
        """
        from repro.bench.harness import make_system

        system = make_system(
            engine, dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        query = sample_queries(1)[0]
        for _ in range(3):
            system.run_query(query.clone())
            system.drain()
        system.metrics.sample()
        gauge = system.metrics.series["cluster.hit_rate"].last()
        assert system.cache_hit_rate() == gauge == gauges(system)["cluster.hit_rate"]
        if engine == "basic":
            assert gauge == 0.0
        else:
            assert gauge == pytest.approx(2 / 3)
