"""One node's cache driven as a state machine against the catalog.

Each piece of the cache is tested alone elsewhere: the graph levels,
freshness and eviction, roll-up, guest cliques, extent invalidation on
ingest.  Here hypothesis drives *sequences* of the operations a node
runs — populate a footprint from a scan, touch, roll up, evict, ingest,
adopt and purge a guest clique, crash or flush — on a one-node cluster over a
small catalog, and after every step checks what must hold whatever came
before (DESIGN.md §6):

* every resident cell, local or guest, equals ``ground_truth_cells``
  over every record the catalog holds *now*;
* per level, the resident cells are exactly the keys of the freshness
  slot map (:func:`tests.reference.slot_maps_mirror_levels`);
* each level's ``FreshnessColumns.slot_of`` is a bijection onto its
  dense live slots;
* the local graph stays within the eviction threshold, an eviction stops
  at the safe limit, and no evicted cell was fresher than a survivor.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.config import ClusterConfig, EvictionConfig, StashConfig
from repro.core.aggregation import try_rollup
from repro.core.cell import Cell
from repro.core.cluster import StashCluster
from repro.core.eviction import EvictionPolicy
from repro.core.freshness import query_ring
from repro.core.keys import CellKey
from repro.data.observation import ObservationBatch
from repro.data.statistics import SummaryVector
from repro.geo import geohash as gh
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.storage.backend import ground_truth_cells
from tests.reference import slot_maps_mirror_levels

ATTRIBUTES = ("temperature", "humidity")
#: Regions the rules aim at: a parent of block precision 2, and two
#: blocks of precision 3 inside it, one of which holds no records until
#: an ingest puts some there.
REGIONS = ("9q", "9q8", "9q9")
DAYS = (TimeKey.of(2013, 2, 1), TimeKey.of(2013, 2, 2))
MONTH = TimeKey.of(2013, 2)
DOMAIN = gh.bbox(REGIONS[0])
#: (region, extra precision, time bin) of a region's footprint.
FOOTPRINTS = st.tuples(
    st.sampled_from(REGIONS), st.integers(0, 1), st.sampled_from(DAYS + (MONTH,))
)
MAX_CELLS = 64
SAFE_FRACTION = 0.75


def observations(rng, n: int, regions, days) -> ObservationBatch:
    """``n`` records spread over the given regions and days."""
    boxes = [gh.bbox(region) for region in regions]
    picks = rng.integers(0, len(boxes), n)
    lats = np.array([rng.uniform(boxes[i].south, boxes[i].north) for i in picks])
    lons = np.array([rng.uniform(boxes[i].west, boxes[i].east) for i in picks])
    ranges = [days[i].epoch_range() for i in rng.integers(0, len(days), n)]
    epochs = np.array([rng.uniform(r.start, r.end - 1) for r in ranges])
    return ObservationBatch(
        lats=lats,
        lons=lons,
        epochs=epochs,
        attributes={
            name: rng.normal(10.0, 5.0, n).round(3) for name in ATTRIBUTES
        },
    )


def region_query(region: str, finer: int, time_key: TimeKey) -> AggregationQuery:
    """The footprint of ``region`` at ``len(region) + finer`` over one bin."""
    temporal = TemporalResolution(len(time_key.components) - 1)
    return AggregationQuery(
        bbox=gh.bbox(region),
        time_range=time_key.epoch_range(),
        resolution=Resolution(len(region) + finer, temporal),
    )


def slot_map_is_bijection(graph) -> None:
    for level, columns in graph._columns.items():
        assert len(columns.keys) == columns.size, (graph.name, level)
        assert len(columns.slot_of) == columns.size, (graph.name, level)
        for key, slot in columns.slot_of.items():
            assert 0 <= slot < columns.size, (graph.name, key, slot)
            assert columns.keys[slot] == key, (graph.name, key, slot)


class NodeCacheMachine(RuleBasedStateMachine):
    """One node's ``graph`` + ``guest`` against the records it was fed."""

    @initialize(seed=st.integers(0, 2**16))
    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.records = observations(rng, 120, REGIONS[1:2], DAYS)
        config = StashConfig(
            cluster=ClusterConfig(num_nodes=1),
            eviction=EvictionConfig(max_cells=MAX_CELLS, safe_fraction=SAFE_FRACTION),
        )
        self.cluster = StashCluster(self.records, config)
        self.cluster.start()
        (self.node,) = self.cluster.nodes.values()
        self.now = 0.0
        #: (records held, resolution) -> ground truth cells at it.
        self._truth: dict[tuple, dict[CellKey, SummaryVector]] = {}

    def _tick(self) -> float:
        self.now += 1.0
        return self.now

    def _evict(self, policy: EvictionPolicy) -> None:
        """Enforce ``policy`` on the local graph, checking whom it picked."""
        graph = self.node.graph
        decay = self.node.tracker.decay_rate
        scores = {c.key: c.decayed_freshness(self.now, decay) for c in graph.cells()}
        victims = policy.enforce(graph, self.node.tracker, self.now)
        if not victims:
            assert len(graph) <= policy.config.max_cells
            return
        assert len(graph) == policy.safe_limit
        survivors = [scores[key] for key in scores if graph.contains(key)]
        assert max(scores[key] for key in victims) <= min(survivors, default=np.inf)

    # -- rules ----------------------------------------------------------
    #
    # Hypothesis orders rules by argument count, then name, and draws the
    # first ones most often.  The rules that build state (adopt_clique,
    # ingest, populate) take one argument each and sort first; the rule
    # that empties the cache is named ``wipe`` so that it sorts after them.

    @rule(footprint=FOOTPRINTS)
    def populate(self, footprint):
        """A scan's footprint cells, inserted and credited like a populate."""
        query = region_query(*footprint)
        cells = self.cluster.compute_footprint_cells(query)
        for key, summary in cells.items():
            self.node.graph.upsert(Cell(key=key, summary=summary))
        self.node.tracker.touch_cells(self.node.graph, list(cells), self._tick())
        self._evict(self.node.eviction)

    @rule(footprint=FOOTPRINTS, count_access=st.booleans())
    def touch(self, footprint, count_access):
        query = region_query(*footprint)
        now = self._tick()
        graph = self.node.graph
        self.node.tracker.touch_cells(graph, [], now, ring=query_ring(query))
        graph.touch_batch(
            query.footprint(), 1.0, now, self.node.tracker.decay_rate, count_access
        )

    @rule(key=st.sampled_from([CellKey(r, d) for r in REGIONS for d in DAYS]))
    def roll_up(self, key):
        """Recompute a parent from resident children, as a fetch does."""
        graph = self.node.graph
        if graph.contains(key):
            return
        rollup = try_rollup(graph, key, self.cluster.attribute_names)
        if rollup is None:
            return
        graph.upsert(Cell(key=key, summary=rollup.summary))
        self.node.tracker.touch_cells(graph, [key], self._tick())
        self._evict(self.node.eviction)

    @rule(capacity=st.integers(1, MAX_CELLS), safe=st.sampled_from((0.25, 0.5, 1.0)))
    def evict(self, capacity, safe):
        """Eviction at a capacity at most the node's own."""
        self._tick()
        self._evict(EvictionPolicy(EvictionConfig(max_cells=capacity, safe_fraction=safe)))

    @rule(
        batch=st.tuples(
            st.integers(0, 2**16),
            st.integers(1, 6),
            st.sampled_from(REGIONS[1:]),
            st.sampled_from(DAYS),
        )
    )
    def ingest(self, batch):
        """Live records through ``ingest_live``: catalog, extents, both graphs."""
        seed, n, region, day = batch
        records = observations(np.random.default_rng(seed), n, [region], [day])
        self.cluster.ingest_live(records)
        self.records = self.records.concat(records)

    @rule(root=st.sampled_from([CellKey(r, t) for r in REGIONS for t in DAYS + (MONTH,)]))
    def adopt_clique(self, root):
        """Take in a peer's clique: a root cell and its 32 children."""
        cells = {}
        for finer in (0, 1):
            query = region_query(root.geohash, finer, root.time_key)
            cells.update(self.cluster.compute_footprint_cells(query))
        guest = self.node.guest
        for key, summary in cells.items():
            guest.upsert(Cell(key=key, summary=summary))
        for key in self.node.guest_cliques.add(root, list(cells), self._tick()):
            if guest.contains(key):
                guest.remove(key)

    @precondition(lambda self: bool(self.node.guest_cliques.entries))
    @rule(pick=st.integers(0, 2**16))
    def purge_clique(self, pick):
        roots = sorted(self.node.guest_cliques.entries)
        for key in self.node.guest_cliques.remove(roots[pick % len(roots)]):
            if self.node.guest.contains(key):
                self.node.guest.remove(key)

    @rule(crash=st.booleans())
    def wipe(self, crash):
        """Lose every cached cell: a node crash and restart, or a flush."""
        if crash:
            self.node.crash()
            self.node.restart()
        else:
            self.cluster.flush_caches()
        assert len(self.node.graph) == len(self.node.guest) == 0

    # -- invariants -----------------------------------------------------

    def _ground_truth(self, resolution: Resolution) -> dict[CellKey, SummaryVector]:
        memo = (len(self.records), resolution)
        if memo not in self._truth:
            query = AggregationQuery(
                bbox=DOMAIN,
                time_range=MONTH.epoch_range(),
                resolution=resolution,
            )
            self._truth[memo] = ground_truth_cells(self.records, query)
        return self._truth[memo]

    @invariant()
    def cells_match_the_catalog(self):
        empty = SummaryVector.empty(self.cluster.attribute_names)
        for graph in (self.node.graph, self.node.guest):
            for cell in graph.cells():
                truth = self._ground_truth(cell.key.resolution).get(cell.key, empty)
                assert cell.summary.approx_equal(truth), (graph.name, cell.key)

    @invariant()
    def residency_is_the_slot_map(self):
        for graph in (self.node.graph, self.node.guest):
            slot_maps_mirror_levels(graph)
            slot_map_is_bijection(graph)

    @invariant()
    def within_capacity(self):
        assert len(self.node.graph) <= MAX_CELLS


NodeCacheMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=25, deadline=None
)
TestNodeCache = NodeCacheMachine.TestCase
