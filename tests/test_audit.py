"""Tests for the cluster invariant auditor — and, through it, a deep
consistency check of the whole system after realistic workloads."""

import numpy as np
import pytest

from repro.config import ClusterConfig, EvictionConfig, ReplicationConfig, StashConfig
from repro.core.cell import Cell
from repro.core.cluster import StashCluster
from repro.core.keys import CellKey
from repro.data.generator import NAM_DOMAIN, small_test_dataset
from repro.data.statistics import SummaryVector
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.workload.hotspot import hotspot_workload
from repro.workload.queries import QuerySize, random_query
from tests.audit import audit_cluster


def make_cluster(dataset=None, **config_kwargs):
    if dataset is None:
        dataset = small_test_dataset(num_records=5_000)
    defaults = dict(cluster=ClusterConfig(num_nodes=6))
    defaults.update(config_kwargs)
    return StashCluster(dataset, StashConfig(**defaults))


def workload(n=6, seed=3):
    rng = np.random.default_rng(seed)
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


class TestCleanClustersPass:
    def test_fresh_cluster(self):
        cluster = make_cluster()
        cluster.start()
        assert audit_cluster(cluster) == 0

    def test_after_serial_workload(self):
        cluster = make_cluster()
        cluster.run_serial(workload())
        cluster.drain()
        assert audit_cluster(cluster, value_sample=-1) > 0

    def test_after_eviction_pressure(self):
        cluster = make_cluster(
            eviction=EvictionConfig(max_cells=40, safe_fraction=0.7)
        )
        cluster.run_serial(workload(8))
        cluster.drain()
        audit_cluster(cluster, value_sample=-1)

    def test_after_hotspot_and_replication(self):
        dataset = small_test_dataset(num_records=8_000, num_days=3)
        cluster = make_cluster(
            dataset=dataset,
            replication=ReplicationConfig(
                hotspot_queue_threshold=8, cooldown=0.5, reroute_probability=0.8
            ),
        )
        rng = np.random.default_rng(5)
        queries = hotspot_workload(rng, NAM_DOMAIN, 100)
        cluster.warm(queries[:2])
        cluster.run_concurrent(queries)
        cluster.drain()
        assert cluster.total_guest_cells() > 0  # replication happened
        audit_cluster(cluster, value_sample=24)

    def test_after_live_ingest(self):
        from tests.core.test_live_ingest import new_observations

        cluster = make_cluster()
        cluster.run_serial(workload(3))
        cluster.drain()
        cluster.ingest_live(new_observations())
        cluster.run_serial([q.panned(0, 0) for q in workload(3)])
        cluster.drain()
        audit_cluster(cluster, value_sample=-1)


class TestCorruptionDetected:
    def _warm_cluster(self):
        cluster = make_cluster()
        cluster.run_serial(workload(2))
        cluster.drain()
        return cluster

    def _any_node_with_cells(self, cluster):
        for node in cluster.nodes.values():
            if len(node.graph) > 0:
                return node
        raise AssertionError("no node has cells")

    def test_detects_value_drift(self):
        cluster = self._warm_cluster()
        node = self._any_node_with_cells(cluster)
        cell = next(c for c in node.graph.cells() if not c.summary.is_empty)
        cell.summary = SummaryVector.from_arrays(
            {name: np.array([1.0]) for name in cluster.attribute_names}
        )
        with pytest.raises(AssertionError, match="drifted"):
            audit_cluster(cluster, value_sample=-1)

    def test_detects_misplaced_cell(self):
        cluster = self._warm_cluster()
        donor = self._any_node_with_cells(cluster)
        cell = next(iter(donor.graph.cells()))
        wrong = next(
            node
            for node in cluster.nodes.values()
            if node.membership.base.node_for(cell.key.geohash) != node.node_id
        )
        wrong.graph.insert(Cell(key=cell.key, summary=cell.summary))
        with pytest.raises(AssertionError, match="owned by"):
            audit_cluster(cluster, value_sample=0)

    def test_detects_plm_ghost(self):
        """A slot without a cell: the cell leaves its level but keeps its
        freshness slot."""
        cluster = self._warm_cluster()
        node = self._any_node_with_cells(cluster)
        cell = next(iter(node.graph.cells()))
        level = node.graph.level_of(cell.key)
        del node.graph._levels[level][cell.key]
        with pytest.raises(AssertionError, match="absent"):
            audit_cluster(cluster, value_sample=0)

    def test_detects_plm_orphan(self):
        cluster = self._warm_cluster()
        node = self._any_node_with_cells(cluster)
        key = CellKey(
            node.membership.base.partition_key("9q8y7") + "8y7"[:0] or "9q8y7",
            TimeKey.of(2013, 2, 2),
        )
        # A cell without a slot: filed in its level, not in the columns.
        owner = cluster.owner_node(key)
        level = owner.graph.level_of(key)
        owner.graph._levels.setdefault(level, {})[key] = Cell(
            key=key, summary=SummaryVector.empty(cluster.attribute_names)
        )
        with pytest.raises(AssertionError, match="has no slot"):
            audit_cluster(cluster, value_sample=0)

    def test_detects_overfull_node(self):
        cluster = make_cluster(eviction=EvictionConfig(max_cells=3))
        cluster.start()
        node = next(iter(cluster.nodes.values()))
        from repro.geo.geohash import children

        for code in children("9q8y")[:8]:
            key = CellKey(code, TimeKey.of(2013, 2, 2))
            owner = cluster.owner_node(key)
            owner.graph.upsert(
                Cell(key=key, summary=SummaryVector.empty(cluster.attribute_names))
            )
        with pytest.raises(AssertionError, match="exceed the"):
            audit_cluster(cluster, value_sample=0)
