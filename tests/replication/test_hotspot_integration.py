"""End-to-end hotspot handling: detection, handoff, reroute, correctness."""

import numpy as np
import pytest

from repro.config import ClusterConfig, ReplicationConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.storage.backend import ground_truth_cells


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=10_000, num_days=3)


@pytest.fixture(autouse=True)
def long_routing_ttl(monkeypatch):
    """Routes outlive every run, as guest replicas do (``guest_ttl=1e6``)."""
    monkeypatch.setattr("repro.core.node.ROUTING_TTL", 1e6)


def hotspot_config(**repl_kwargs):
    repl = dict(
        hotspot_queue_threshold=8,
        cooldown=0.5,
        clique_depth=2,
        max_replicated_cells=5_000,
        top_k_cliques=4,
        reroute_probability=0.8,
        guest_ttl=1e6,
    )
    repl.update(repl_kwargs)
    return StashConfig(
        cluster=ClusterConfig(num_nodes=8),
        replication=ReplicationConfig(**repl),
    )


def hotspot_queries(n: int, seed: int = 5):
    """County-sized queries panning around one fixed point (paper VIII-E)."""
    rng = np.random.default_rng(seed)
    base = AggregationQuery(
        bbox=BoundingBox.from_center(36.0, -100.0, 1.0, 1.0),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(4, TemporalResolution.DAY),
    )
    out = []
    for _ in range(n):
        dlat = float(rng.uniform(-0.1, 0.1))
        dlon = float(rng.uniform(-0.1, 0.1))
        out.append(base.panned(dlat, dlon))
    return out


class TestHotspotHandling:
    def test_handoff_triggers_under_load(self, dataset):
        cluster = StashCluster(dataset, hotspot_config())
        queries = hotspot_queries(120)
        cluster.warm(queries[:2])  # ensure some cells exist to replicate
        cluster.run_concurrent(queries)
        counts = cluster.counters_total()
        assert counts.get("hotspots_detected", 0) > 0
        assert counts.get("handoffs_completed", 0) > 0
        assert cluster.total_guest_cells() > 0

    def test_rerouted_queries_served_and_correct(self, dataset):
        cluster = StashCluster(dataset, hotspot_config())
        queries = hotspot_queries(150)
        cluster.warm(queries[:2])
        results = cluster.run_concurrent(queries)
        counts = cluster.counters_total()
        assert counts.get("queries_rerouted", 0) > 0
        assert counts.get("guest_queries_served", 0) > 0
        rerouted_checked = 0
        for result in results:
            if result.provenance.get("rerouted"):
                truth = ground_truth_cells(dataset, result.query)
                assert set(result.cells) == set(truth)
                for key, vec in result.cells.items():
                    assert vec.approx_equal(truth[key])
                rerouted_checked += 1
        assert rerouted_checked > 0

    def test_replication_improves_completion_time(self, dataset):
        def run(enable: bool) -> float:
            config = hotspot_config()
            config = StashConfig(
                cluster=config.cluster,
                replication=config.replication,
                enable_replication=enable,
            )
            cluster = StashCluster(dataset, config)
            queries = hotspot_queries(150)
            cluster.warm(queries[:2])
            cluster.run_concurrent(queries)
            return cluster.metrics.series["query"].duration()

        with_repl = run(True)
        without_repl = run(False)
        assert with_repl < without_repl

    def test_no_replication_when_disabled(self, dataset):
        config = hotspot_config()
        config = StashConfig(
            cluster=config.cluster,
            replication=config.replication,
            enable_replication=False,
        )
        cluster = StashCluster(dataset, config)
        queries = hotspot_queries(100)
        cluster.run_concurrent(queries)
        counts = cluster.counters_total()
        assert counts.get("handoffs_completed", 0) == 0
        assert cluster.total_guest_cells() == 0

    def test_guest_purge_after_ttl(self, dataset):
        cluster = StashCluster(dataset, hotspot_config(guest_ttl=5.0))
        queries = hotspot_queries(120)
        cluster.warm(queries[:2])
        cluster.run_concurrent(queries)
        assert cluster.total_guest_cells() > 0
        # Let simulated time pass beyond the TTL, then force a purge via
        # a distress probe path on each node.
        cluster.sim.run(until=cluster.sim.now + 10.0)
        for node in cluster.nodes.values():
            node._purge_guest()
        assert cluster.total_guest_cells() == 0
