"""Server-side cache-correctness regressions.

Two fixes pinned here:

* the guest fast path (``evaluate_guest`` answered straight from the
  guest graph) must honor the query's attribute projection and reply with
  an explicit ``completeness``, matching ``_evaluate_core``'s response
  contract — a rerouted query must be indistinguishable from a direct
  one;
* ``fetch_cells`` must give roll-up-recomputed cells freshness credit:
  the parent cell created by the roll-up was absent during the footprint
  touch, and without a follow-up touch it would sit at zero freshness —
  first in line for eviction despite having just been used.
"""

import pytest

from repro.config import ClusterConfig, StashConfig
from repro.core.cell import Cell
from repro.core.cluster import StashCluster
from repro.core.keys import CellKey
from repro.data.generator import small_test_dataset
from repro.data.statistics import SummaryVector
from repro.geo import geohash as gh
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery

DAY = TimeKey.of(2013, 2, 2)


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=5_000)


def make_cluster(dataset):
    cluster = StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
    cluster.start()
    return cluster


class TestGuestFastPath:
    def _guest_answer(self, cluster, query):
        """Fill one helper's guest graph and serve ``query`` from it."""
        helper = cluster.nodes["node-0"]
        for key, summary in cluster.compute_footprint_cells(query).items():
            helper.guest.upsert(Cell(key=key, summary=summary))
        reply = cluster.network.request(
            "client", helper.node_id, "evaluate_guest", {"query": query}, size=512
        )
        return helper, cluster.sim.run(until=reply)

    def test_projection_applied_on_guest_hit(self, dataset):
        cluster = make_cluster(dataset)
        query = AggregationQuery(
            bbox=BoundingBox(32, 40, -112, -102),
            time_range=DAY.epoch_range(),
            resolution=Resolution(3, TemporalResolution.DAY),
            attributes=("temperature",),
        )
        helper, response = self._guest_answer(cluster, query)
        # Served from the guest graph, not via fallback evaluation.
        assert helper.counters.get("guest_queries_served") == 1
        assert response["cells"]
        for vec in response["cells"].values():
            assert vec.attributes == ["temperature"]

    def test_guest_hit_matches_direct_evaluation(self, dataset):
        cluster = make_cluster(dataset)
        query = AggregationQuery(
            bbox=BoundingBox(32, 40, -112, -102),
            time_range=DAY.epoch_range(),
            resolution=Resolution(3, TemporalResolution.DAY),
            attributes=("temperature", "humidity"),
        )
        _helper, response = self._guest_answer(cluster, query)
        direct = cluster.run_query(
            AggregationQuery(
                bbox=query.bbox,
                time_range=query.time_range,
                resolution=query.resolution,
                attributes=query.attributes,
            )
        )
        assert set(response["cells"]) == set(direct.cells)
        for key, vec in response["cells"].items():
            assert vec.approx_equal(direct.cells[key])

    def test_guest_reply_carries_completeness(self, dataset):
        cluster = make_cluster(dataset)
        query = AggregationQuery(
            bbox=BoundingBox(33, 38, -110, -104),
            time_range=DAY.epoch_range(),
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        _helper, response = self._guest_answer(cluster, query)
        assert response["completeness"] == 1.0


class TestRollupFreshnessCredit:
    def test_rolled_up_parent_gets_touched(self, dataset):
        cluster = make_cluster(dataset)
        parent = CellKey("9q8y", DAY)
        node = cluster.owner_node(parent)
        empty = SummaryVector.empty(node.attribute_names)
        for child in gh.children(parent.geohash):
            node.graph.upsert(Cell(key=CellKey(child, DAY), summary=empty))
        reply = cluster.network.request(
            "client",
            node.node_id,
            "fetch_cells",
            {"cells": [parent], "ring": []},
            size=64,
        )
        response = cluster.sim.run(until=reply)
        assert parent in response["found"]  # answered by roll-up
        cell = node.graph.get(parent)
        assert cell is not None  # roll-up result was cached
        # The fix under test: the fresh parent is credited for the access
        # that created it instead of starting at zero freshness.
        assert cell.freshness > 0.0
        assert cell.access_count == 1
        assert 0.0 < cell.last_touched <= cluster.sim.now

    def test_children_also_credited_by_the_same_fetch(self, dataset):
        cluster = make_cluster(dataset)
        parent = CellKey("9q8z", DAY)
        node = cluster.owner_node(parent)
        empty = SummaryVector.empty(node.attribute_names)
        children = [CellKey(c, DAY) for c in gh.children(parent.geohash)]
        for child in children:
            node.graph.upsert(Cell(key=child, summary=empty))
        reply = cluster.network.request(
            "client",
            node.node_id,
            "fetch_cells",
            {"cells": [parent], "ring": []},
            size=64,
        )
        cluster.sim.run(until=reply)
        # Roll-up reads the children but does not double-count them as
        # direct accesses: only the requested (parent) key is an access.
        assert node.graph.get(parent).access_count == 1
        for child in children:
            assert node.graph.get(child).access_count == 0
