"""End-to-end observability: tracing, attribution, provenance, CLI."""

import json

import numpy as np
import pytest

from repro.baselines.basic import BasicSystem
from repro.baselines.elastic import ElasticSystem
from repro.cli import main
from repro.config import ClusterConfig, ObservabilityConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.data.generator import NAM_DOMAIN, small_test_dataset
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import PROVENANCE_KEYS
from repro.workload.queries import QuerySize, random_query
from repro.workload.trace import replay_trace


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=5_000)


def sample_queries(n=4):
    rng = np.random.default_rng(23)
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


def traced_config():
    return StashConfig(
        cluster=ClusterConfig(num_nodes=4),
        observability=ObservabilityConfig(trace=True),
    )


class TestTracing:
    def test_trace_structure_is_deterministic(self, dataset):
        queries = sample_queries()  # same objects -> same query_ids

        def run():
            cluster = StashCluster(dataset, traced_config())
            replay_trace(cluster, queries)
            cluster.drain()
            return cluster.tracer.structure()

        first = run()
        second = run()
        assert first, "expected spans from a traced run"
        assert first == second

    def test_one_root_span_per_query(self, dataset):
        cluster = StashCluster(dataset, traced_config())
        results = replay_trace(cluster, sample_queries())
        cluster.drain()
        roots = cluster.tracer.query_roots()
        assert len(roots) == len(results)
        assert all(root.name == "query" for root in roots)
        assert all(root.end is not None for root in roots)

    def test_tracing_does_not_perturb_results(self, dataset):
        queries = sample_queries()

        def latencies(observability):
            cluster = StashCluster(
                dataset,
                StashConfig(
                    cluster=ClusterConfig(num_nodes=4),
                    observability=observability,
                ),
            )
            return [r.latency for r in replay_trace(cluster, queries)]

        assert latencies(ObservabilityConfig()) == latencies(
            ObservabilityConfig(trace=True)
        )

    def test_tracing_off_records_nothing(self, dataset):
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        replay_trace(cluster, sample_queries(2))
        cluster.drain()
        assert len(cluster.tracer) == 0


class TestAttribution:
    def test_attribution_sums_to_latency(self, dataset):
        cluster = StashCluster(dataset, traced_config())
        results = replay_trace(cluster, sample_queries())
        for result in results:
            assert result.attribution is not None
            assert sum(result.attribution.values()) == pytest.approx(
                result.latency, rel=1e-9
            )

    def test_attribution_absent_when_tracing_off(self, dataset):
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        results = replay_trace(cluster, sample_queries(2))
        assert all(r.attribution is None for r in results)

    def test_cold_queries_are_disk_dominated(self, dataset):
        cluster = StashCluster(dataset, traced_config())
        results = replay_trace(cluster, sample_queries())
        cold = results[0]
        assert cold.attribution["disk"] > cold.attribution["compute"]


class TestProvenanceVocabulary:
    def engines(self, dataset):
        config = StashConfig(cluster=ClusterConfig(num_nodes=4))
        yield StashCluster(dataset, config)
        yield BasicSystem(dataset, config)
        yield ElasticSystem(dataset, config)

    def test_all_engines_emit_canonical_keys(self, dataset):
        for system in self.engines(dataset):
            results = replay_trace(system, sample_queries(2))
            for result in results:
                assert set(PROVENANCE_KEYS) <= set(result.provenance), (
                    type(system).__name__
                )

    def test_result_json_carries_provenance(self, dataset):
        cluster = StashCluster(dataset, traced_config())
        (result,) = replay_trace(cluster, sample_queries(1))
        doc = result.to_json_dict()
        assert set(PROVENANCE_KEYS) <= set(doc["provenance"])
        assert sum(doc["attribution"].values()) == pytest.approx(result.latency)
        json.dumps(doc)


class TestMonitorIsPassive:
    def test_snapshot_does_not_boot_unstarted_cluster(self, dataset):
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        snap = cluster.metrics.snapshot()
        assert cluster._nodes_started is False
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
        assert cluster.cache_hit_rate() == 0.0
        assert cluster.nodes == {}


class TestMetricsSampling:
    def test_registry_samples_during_replay(self, dataset):
        cluster = StashCluster(
            dataset,
            StashConfig(
                cluster=ClusterConfig(num_nodes=4),
                observability=ObservabilityConfig(sample_interval=0.005),
            ),
        )
        replay_trace(cluster, sample_queries())
        cluster.drain()
        series = cluster.metrics.series
        assert "cluster.hit_rate" in series
        assert "network.bytes_sent" in series
        assert "node-0.queue_depth" in series
        assert len(series["network.bytes_sent"]) > 0
        assert series["network.bytes_sent"].last() > 0


class TestCli:
    def test_explain_trace_out_writes_loadable_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            [
                "explain",
                "--requests", "3",
                "--records", "5000",
                "--nodes", "4",
                "--trace-out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases <= {"X", "M"}
        assert f"wrote Chrome trace of the full run to {out}" in capsys.readouterr().out

    def test_metrics_command(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(
            [
                "metrics",
                "--requests", "3",
                "--records", "5000",
                "--nodes", "4",
                "--interval", "0.005",
                "--json", str(out),
            ]
        )
        assert code == 0
        assert "cluster.hit_rate" in capsys.readouterr().out
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert "network.bytes_sent" in doc
