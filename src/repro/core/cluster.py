"""The STASH cluster: nodes, warm-up, preloading, and inspection helpers.

:class:`StashCluster` is the system under test in every STASH experiment.
Besides the client API inherited from
:class:`~repro.system.DistributedSystem`, it offers experiment utilities:
``warm`` (run queries only to heat the cache), ``preload_fraction``
(directly stack a fraction of a query's cells into the graphs, as the
paper does for the 50/75/100% zoom scenarios), and live ingest (the
real-time-update path).
"""

from __future__ import annotations

import numpy as np

from repro.config import DEFAULT_CONFIG, StashConfig
from repro.core.cell import Cell
from repro.core.graph import stale_extents
from repro.core.keys import CellKey
from repro.core.node import StashNode
from repro.data.block import BlockId
from repro.data.observation import ObservationBatch
from repro.data.statistics import SummaryVector
from repro.errors import CacheError
from repro.geo.resolution import ResolutionSpace
from repro.query.model import AggregationQuery
from repro.sim.engine import Simulator
from repro.storage.backend import scan_blocks
from repro.system import DistributedSystem


class StashCluster(DistributedSystem):
    """A cluster of :class:`~repro.core.node.StashNode`."""

    def __init__(
        self,
        dataset: ObservationBatch,
        config: StashConfig = DEFAULT_CONFIG,
        sim: Simulator | None = None,
        space: ResolutionSpace | None = None,
    ):
        super().__init__(dataset, config, sim)
        self.space = space if space is not None else ResolutionSpace(1, 8)
        self.nodes: dict[str, StashNode] = {}

    def _start_nodes(self) -> None:
        for index, node_id in enumerate(self.node_ids):
            node = StashNode(
                self.sim,
                self.network,
                self.catalog,
                node_id,
                self.config,
                space=self.space,
                attribute_names=self.attribute_names,
                node_index=index,
                membership=self.memberships[node_id],
            )
            self.nodes[node_id] = node
            node.start()
            # Anti-entropy hooks: when *this node's own view* confirms a
            # death (or sees a rejoin), it repairs / hands back (the
            # callbacks are inert unless ``gossip.repair``).
            view = self.memberships[node_id]
            view.on_dead.append(node.on_peer_confirmed_dead)
            view.on_alive.append(node.on_peer_rejoined)

    # -- cache state inspection ------------------------------------------------

    def total_cached_cells(self) -> int:
        return sum(len(node.graph) for node in self.nodes.values())

    def total_guest_cells(self) -> int:
        return sum(len(node.guest) for node in self.nodes.values())

    def counters_total(self) -> dict[str, int]:
        """Cluster-wide sum of per-node counters, by name (first-seen order)."""
        names = dict.fromkeys(
            name for node in self.nodes.values() for name in node.counters
        )
        return {name: self.node_counter_total(name) for name in names}

    def owner_node(self, key: CellKey) -> StashNode:
        return self.nodes[self.partitioner.node_for(key.geohash)]

    # -- experiment utilities ----------------------------------------------------

    def warm(self, queries: list[AggregationQuery]) -> None:
        """Run queries serially just to heat the cache (results dropped)."""
        for query in queries:
            self.run_query(query)
        self.drain()

    def compute_footprint_cells(
        self, query: AggregationQuery
    ) -> dict[CellKey, SummaryVector]:
        """Complete (including empty) cell values for a query footprint.

        Computed directly from the catalog, outside simulated time; used
        for preloading and for correctness oracles.
        """
        footprint = query.footprint()
        needed: set[BlockId] = set()
        for key in footprint:
            needed.update(self.catalog.blocks_for_cell(key))
        blocks = [self.catalog.get_block(b) for b in sorted(needed)]
        scanned, _stats = scan_blocks(blocks, query)
        return {
            key: scanned.get(key, SummaryVector.empty(self.attribute_names))
            for key in footprint
        }

    def preload_fraction(
        self,
        query: AggregationQuery,
        fraction: float,
        seed: int = 0,
    ) -> int:
        """Stack a fraction of a query's cells into the cache as regions.

        Reproduces the paper's zoom setup: "we have randomly stacked the
        STASH graph with *regions* covering 50%, 75% and 100% of all the
        relevant Cells".  A region here is one storage block's extent:
        cells are grouped by backing block and whole random groups are
        cached, so a cached fraction translates into a proportional
        reduction in block reads (caching a scatter of individual cells
        would leave every block still needed).  Insertion is a setup step
        — it consumes no simulated time.  Returns the cells inserted.
        """
        if not 0.0 <= fraction <= 1.0:
            raise CacheError(f"fraction must be in [0, 1], got {fraction}")
        self.start()
        cells = self.compute_footprint_cells(query)
        keys = query.footprint()
        groups: dict[tuple, list[CellKey]] = {}
        for key in keys:
            blocks = tuple(self.catalog.blocks_for_cell(key))
            group = blocks if blocks else ("empty", key.geohash)
            groups.setdefault(group, []).append(key)
        order = sorted(groups, key=str)
        rng = np.random.default_rng(seed)
        rng.shuffle(order)
        take = int(round(len(keys) * fraction))
        inserted = 0
        for group in order:
            if inserted >= take:
                break
            for key in groups[group]:
                node = self.owner_node(key)
                if node.graph.upsert(Cell(key=key, summary=cells[key])):
                    inserted += 1
        return inserted

    def flush_caches(self) -> int:
        """Drop every cached cell — local graphs, guest graphs, cliques.

        The answer-changing state of a STASH cluster must live entirely
        on disk; the in-memory layer is a pure accelerator.  Flushing it
        (the most violent eviction possible) therefore must not change
        any subsequent answer — the eviction-independence metamorphic
        relation the conformance harness checks.  Routing tables are left
        alone on purpose: a stale reroute must degrade to a guest
        fallback, never to a wrong answer.  Returns cells dropped.
        """
        self.start()
        dropped = 0
        for node in self.nodes.values():
            dropped += node.graph.clear()
            dropped += node.guest.clear()
            node.guest_cliques.clear()
        return dropped

    # -- real-time updates (paper IV-D) ---------------------------------------

    def ingest_live(self, batch: ObservationBatch) -> tuple[int, int]:
        """Ingest new observations into the running cluster.

        The storage layer appends the records to their blocks; every
        cached cell whose extent overlaps a touched block is dropped so
        the next access recomputes a fresh summary (paper IV-D: "the PLM
        can be adjusted during an update ... so that stale data summaries
        are recomputed in case of future access").

        Invalidation is by *extent*: a brand-new block may fall inside a
        cell that was cached as empty, and that cell is stale too.  A
        touched block finds the cells that enclose it by truncating its
        own label (:func:`~repro.core.graph.stale_extents`), so the cost
        is one table of ``block_precision x 3`` labels per touched block,
        built once per ingest, plus one set probe per resident cell
        (local and guest) — independent of how many blocks the batch
        touched.

        Returns (blocks touched, cached cells invalidated).
        """
        self.start()
        touched = self.catalog.ingest(batch)
        precision = self.catalog.block_precision
        extents = stale_extents(touched, precision)
        invalidated = 0
        for node in self.nodes.values():
            for graph in (node.graph, node.guest):
                invalidated += len(graph.invalidate_extents(extents, precision))
        return len(touched), invalidated
