"""The "basic system": distributed scan with no STASH layer.

This is the paper's primary baseline (the "simple Galileo storage
system"): every query is answered by scattering scans to the nodes
holding the relevant blocks and merging the partial aggregations at the
coordinator.  No state is reused between queries.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.keys import CellKey
from repro.data.statistics import SummaryVector
from repro.faults.membership import rpc_ok
from repro.query.model import AggregationQuery
from repro.sim.engine import Event
from repro.sim.network import Message
from repro.storage.node import Reply, StorageNode
from repro.system import DistributedSystem


class BasicNode(StorageNode):
    """Storage node that can also coordinate whole-query evaluation."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.register_handler("evaluate", self._handle_evaluate)

    def _handle_evaluate(self, message: Message) -> Generator[Event, Any, Reply]:
        yield self.sim.timeout(self.cost.request_overhead)
        query: AggregationQuery = message.payload["query"]
        block_ids = self.catalog.blocks_for_query(query)
        plan = sorted(self.catalog.blocks_by_node(block_ids).items())
        partials: list[dict[CellKey, SummaryVector]] = yield from self._scatter(
            "scan",
            [
                (node_id, {"query": query, "block_ids": ids}, 1_024)
                for node_id, ids in plan
            ],
            lambda leg: self.scan_locally(
                query, leg["block_ids"], parent=message.span
            ),
            parent=message.span,
        )
        answered: list[dict[CellKey, SummaryVector]] = []
        blocks_unread = 0
        legs_failed = 0
        for (_node_id, ids), cells in zip(plan, partials):
            if not rpc_ok(cells):
                # The peer holding these blocks is gone: degrade rather
                # than hang — its cells are simply missing from the answer.
                legs_failed += 1
                blocks_unread += len(ids)
                self.counters.increment("scan_legs_failed")
                continue
            answered.append(cells)
        merged = yield from self._merge_partials(answered, message.span)
        merged = self._shape_response_cells(query, merged)
        response = {
            "cells": merged,
            "provenance": {
                "cells_from_cache": 0,
                "cells_from_rollup": 0,
                "cells_from_disk": len(merged),
                "disk_blocks_read": len(block_ids) - blocks_unread,
                "rerouted": 0,
            },
        }
        if legs_failed:
            response["provenance"]["scan_legs_failed"] = legs_failed
            response["completeness"] = 1.0 - blocks_unread / max(1, len(block_ids))
            self.counters.increment("degraded_answers")
        return self._cells_reply(response, merged)


class BasicSystem(DistributedSystem):
    """Cluster of :class:`BasicNode` — the no-cache baseline."""

    def _start_nodes(self) -> None:
        self.nodes = {
            node_id: BasicNode(
                self.sim,
                self.network,
                self.catalog,
                node_id,
                self.config,
                membership=self.memberships[node_id],
            )
            for node_id in self.node_ids
        }
        for node in self.nodes.values():
            node.start()
