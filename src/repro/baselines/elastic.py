"""Simulated ElasticSearch baseline (paper section VIII-F).

The paper contrasts STASH with an ES 6.x deployment (600 shards over 120
data nodes) whose caching consists of the shard *request cache* (full
results of byte-identical requests), the node *query cache* (filter
bitsets) and field-data/page caching.  The decisive semantic difference
is that none of these make results **reusable across overlapping
queries**: a panned query is a different request body, so every pan
re-aggregates all matching documents from scratch — which is exactly why
ES improves only 0.6-2% across a panning sequence while STASH improves
49-70% (Fig. 8a).

Model here:

* documents are **hash-partitioned** into ``num_shards`` shards (ES
  routing ignores geography), shards assigned round-robin to nodes;
* within a shard, documents are chunked by (day, coarse geo tile) —
  the unit of disk fetch.  A node-level LRU page cache of chunk ids
  models the OS page cache / doc-values cache;
* per query, each shard pays: request-cache check; on miss an index
  walk (fixed overhead), disk for uncached matching chunks, and
  re-aggregation CPU over every matching record; then stores the result
  under the exact request key;
* the request cache serves byte-identical repeats only.

Results are exact: chunks partition the data, so merged per-cell
summaries equal the ground truth (verified in tests).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Generator

import numpy as np

from repro.core.keys import CellKey
from repro.data.block import partition_into_blocks
from repro.data.observation import ObservationBatch
from repro.data.statistics import SummaryFrame, SummaryVector
from repro.faults.membership import rpc_ok
from repro.geo.cover import covering_cells
from repro.geo.temporal import TemporalResolution
from repro.obs.tracer import Span
from repro.query.model import AggregationQuery
from repro.sim.engine import Event
from repro.sim.network import Message
from repro.storage.backend import frame_to_cells
from repro.storage.node import Reply, StorageNode
from repro.system import DistributedSystem

#: Geo tile precision used for shard chunking (ES BKD leaves, roughly).
CHUNK_TILE_PRECISION = 2
#: Entries in each node's exact-match (request) cache.
REQUEST_CACHE_ENTRIES = 1_024


def _request_key(query: AggregationQuery) -> tuple:
    """The exact-match request-cache key: the request body, not its extent
    semantics — two queries differing in any bound are different keys."""
    return (
        round(query.bbox.south, 9),
        round(query.bbox.north, 9),
        round(query.bbox.west, 9),
        round(query.bbox.east, 9),
        round(query.time_range.start, 3),
        round(query.time_range.end, 3),
        query.resolution.spatial,
        int(query.resolution.temporal),
        query.attributes,
    )


class EsShard:
    """One shard: a hash-routed slice of the corpus, chunked for fetch."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        #: (day string, tile geohash) -> ObservationBatch
        self.chunks: dict[tuple[str, str], ObservationBatch] = {}

    def add_chunked(self, batch: ObservationBatch) -> None:
        for block_id, block in partition_into_blocks(
            batch, CHUNK_TILE_PRECISION
        ).items():
            chunk_id = (block_id.day, block_id.geohash)
            existing = self.chunks.get(chunk_id)
            self.chunks[chunk_id] = (
                block.batch if existing is None else existing.concat(block.batch)
            )

    def matching_chunks(
        self, query: AggregationQuery
    ) -> list[tuple[tuple[str, str], ObservationBatch]]:
        days = {
            str(k)
            for k in query.snapped_time_range().covering_keys(TemporalResolution.DAY)
        }
        tiles = set(covering_cells(query.snapped_bbox(), CHUNK_TILE_PRECISION))
        return [
            (chunk_id, chunk)
            for chunk_id, chunk in sorted(self.chunks.items())
            if chunk_id[0] in days and chunk_id[1] in tiles
        ]


class PageCache:
    """Node-level LRU of chunk ids (OS page cache / doc-values cache)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, str, str], None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, chunk_id: tuple[int, str, str]) -> bool:
        """Touch a chunk; True when already resident (no disk needed)."""
        if chunk_id in self._entries:
            self._entries.move_to_end(chunk_id)
            self.hits += 1
            return True
        self.misses += 1
        if self.capacity > 0:
            self._entries[chunk_id] = None
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return False


class ElasticNode(StorageNode):
    """An ES data node hosting several shards."""

    def __init__(self, *args: Any, shards: list[EsShard], **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.shards = shards
        es = self.config.elastic
        self.page_cache = PageCache(es.page_cache_blocks)
        #: request cache: key -> per-node merged cell dict (LRU).
        self._request_cache: OrderedDict[tuple, dict[CellKey, SummaryVector]] = (
            OrderedDict()
        )
        self.register_handler("evaluate", self._handle_evaluate)
        self.register_handler("es_scan", self._handle_es_scan)

    # -- shard-local scan ----------------------------------------------------

    def _scan_shards(
        self, query: AggregationQuery, parent: Span | None = None
    ) -> Generator[Event, Any, dict[str, Any]]:
        """Scan this node's shards; returns ``{"cells", "stats"}``.

        ``stats`` carries per-node provenance inputs: whether the request
        cache answered (``request_cache_hit``), how many chunks went to
        disk (``chunks_read``) and how many cells came back (``cells``).

        The scan is per chunk on purpose, not the fused
        :func:`~repro.storage.backend.scan_blocks`: each chunk is one
        page-cache entry and one disk read, charged in chunk order, and
        the CPU charge counts the records that pass the query filter,
        which ``scan_blocks``' :class:`~repro.storage.backend.ScanStats`
        does not report.  ``tests/baselines`` pins its cells bit for bit
        to ``tests/reference.py``'s ``scan_blocks_reference``.
        """
        key = _request_key(query)
        cached = self._request_cache.get(key)
        yield self.sim.timeout(self.cost.cell_lookup_cost)
        if cached is not None:
            self._request_cache.move_to_end(key)
            self.counters.increment("request_cache_hits")
            return {
                "cells": dict(cached),
                "stats": {
                    "cells": len(cached),
                    "request_cache_hit": 1,
                    "chunks_read": 0,
                },
            }
        self.counters.increment("request_cache_misses")

        span = self.tracer.begin(
            "es:scan_shards",
            "compute",
            parent=parent,
            node=self.node_id,
            attrs={"shards": len(self.shards)},
        )
        snapped_box = query.snapped_bbox()
        snapped_time = query.snapped_time_range()
        out: dict[CellKey, SummaryVector] = {}
        records = 0
        chunks_read = 0
        for shard in self.shards:
            # Index walk: fixed overhead per shard per query.
            yield self.sim.timeout(self.cost.request_overhead)
            for chunk_id, chunk in shard.matching_chunks(query):
                full_id = (shard.shard_id, *chunk_id)
                if not self.page_cache.access(full_id):
                    chunks_read += 1
                    # A process of its own, not ``yield from``: inlined, it
                    # moves the elastic rows of BENCH_scale.json.
                    yield self.sim.process(
                        self.disk.read(chunk.nbytes, parent=span if span else parent)
                    )
                sub = chunk.filter_bbox(snapped_box).filter_time(snapped_time)
                records += len(sub)
                if len(sub) == 0:
                    continue
                frame = SummaryFrame.from_groups(
                    sub.bin_ids(
                        query.resolution.spatial, query.resolution.temporal
                    ),
                    sub.attributes,
                )
                for cell_key, vec in frame_to_cells(
                    frame, query.resolution
                ).items():
                    existing = out.get(cell_key)
                    out[cell_key] = vec if existing is None else existing.merge(vec)
        # Re-aggregation CPU over every matching document — paid on every
        # non-identical request; this is what STASH's cells amortize away.
        cpu = records * self.cost.scan_cost_per_record
        if span is not None and cpu > 0:
            self.tracer.record(
                "es:aggregate",
                "compute",
                self.sim.now,
                self.sim.now + cpu,
                parent=span,
                node=self.node_id,
                attrs={"records": records},
            )
        yield self.sim.timeout(cpu)
        self.counters.increment("records_aggregated", records)
        self.tracer.end(span)

        self._request_cache[key] = dict(out)
        if len(self._request_cache) > REQUEST_CACHE_ENTRIES:
            self._request_cache.popitem(last=False)
        return {
            "cells": out,
            "stats": {
                "cells": len(out),
                "request_cache_hit": 0,
                "chunks_read": chunks_read,
            },
        }

    def _handle_es_scan(self, message: Message) -> Generator[Event, Any, Reply]:
        yield self.sim.timeout(self.cost.request_overhead)
        query: AggregationQuery = message.payload["query"]
        response = yield from self._scan_shards(query, parent=message.span)
        return self._cells_reply(response, response["cells"])

    # -- coordination --------------------------------------------------------

    def _handle_evaluate(self, message: Message) -> Generator[Event, Any, Reply]:
        yield self.sim.timeout(self.cost.request_overhead)
        query: AggregationQuery = message.payload["query"]
        legs = [
            (node_id, {"query": query}, 512)
            for node_id in sorted(self.network.node_ids)
            if node_id == self.node_id or node_id.startswith("node-")
        ]
        partials = yield from self._scatter(
            "es_scan",
            legs,
            lambda _leg: self._scan_shards(query, parent=message.span),
            parent=message.span,
        )
        answered: list[dict[CellKey, SummaryVector]] = []
        from_cache = from_disk = blocks_read = 0
        legs_failed = 0
        for partial in partials:
            if not rpc_ok(partial):
                # A data node (and its shards) is unreachable: its slice
                # of the corpus is missing from the answer.
                legs_failed += 1
                self.counters.increment("scan_legs_failed")
                continue
            stats = partial["stats"]
            if stats["request_cache_hit"]:
                from_cache += stats["cells"]
            else:
                from_disk += stats["cells"]
            blocks_read += stats["chunks_read"]
            answered.append(partial["cells"])
        merged = yield from self._merge_partials(answered, message.span)
        # Shard scans (and the request cache) hold every attribute.
        merged = self._shape_response_cells(query, merged)
        response = {
            "cells": merged,
            "provenance": {
                "cells_from_cache": from_cache,
                "cells_from_rollup": 0,
                "cells_from_disk": from_disk,
                "disk_blocks_read": blocks_read,
                "rerouted": 0,
            },
        }
        if legs_failed:
            # Shards are hash-routed, so a lost node leg loses an
            # (approximately) proportional slice of every query.
            response["provenance"]["scan_legs_failed"] = legs_failed
            response["completeness"] = 1.0 - legs_failed / max(1, len(legs))
            self.counters.increment("degraded_answers")
        return self._cells_reply(response, merged)


class ElasticSystem(DistributedSystem):
    """A simulated ES cluster with hash sharding and ES cache semantics."""

    def _start_nodes(self) -> None:
        es = self.config.elastic
        shards = [EsShard(i) for i in range(es.num_shards)]
        # Hash-route every document to a shard (ES default routing).
        for node_id in self.node_ids:
            for block in self.catalog.blocks_on(node_id).values():
                batch = block.batch
                if len(batch) == 0:
                    continue
                assignment = (
                    np.floor(batch.epochs).astype(np.int64) * 2_654_435_761
                    + (batch.lats * 1e6).astype(np.int64)
                ) % es.num_shards
                for shard_id in np.unique(assignment):
                    shards[int(shard_id)].add_chunked(
                        batch.select(assignment == shard_id)
                    )
        by_node: dict[str, list[EsShard]] = {n: [] for n in self.node_ids}
        for i, shard in enumerate(shards):
            by_node[self.node_ids[i % len(self.node_ids)]].append(shard)
        self.nodes = {
            node_id: ElasticNode(
                self.sim,
                self.network,
                self.catalog,
                node_id,
                self.config,
                membership=self.memberships[node_id],
                shards=by_node[node_id],
            )
            for node_id in self.node_ids
        }
        for node in self.nodes.values():
            node.start()
