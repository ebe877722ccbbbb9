"""Cluster invariant audit, a test helper.

:func:`audit_cluster` walks a quiesced STASH cluster and checks the
structural invariants the design relies on.  It reads state only and
raises ``AssertionError`` listing every finding:

1.  per graph level, the freshness slot map holds exactly the resident
    cells (:func:`tests.reference.slot_maps_mirror_levels`);
2.  every *local* cell is on the node the DHT assigns it;
3.  cell summaries equal a fresh scan of their backing blocks
    (sampled, optionally exhaustive): the cache never drifts from disk;
4.  guest-clique registry members are resident in the guest graph;
5.  per-node occupancy respects the eviction hard limit.
"""

from __future__ import annotations

import numpy as np

from repro.data.statistics import SummaryVector
from repro.query.model import AggregationQuery
from repro.storage.backend import scan_blocks
from tests.reference import slot_maps_mirror_levels


def _audit_placement(node, findings: list[str]) -> None:
    for cell in node.graph.cells():
        owner = node.membership.base.node_for(cell.key.geohash)
        if owner != node.node_id:
            findings.append(
                f"{node.graph.name}: cell {cell.key} owned by {owner}, "
                f"cached on {node.node_id}"
            )


def _audit_cell_values(cluster, graph, findings: list[str], sample: int, rng) -> None:
    cells = list(graph.cells())
    if 0 < sample < len(cells):
        cells = [cells[int(i)] for i in rng.choice(len(cells), sample, replace=False)]
    for cell in cells:
        blocks = [
            cluster.catalog.get_block(b) for b in cluster.catalog.blocks_for_cell(cell.key)
        ]
        blocks = [b for b in blocks if b is not None]
        if not blocks:
            if not cell.summary.is_empty:
                findings.append(
                    f"{graph.name}: {cell.key} non-empty but has no backing blocks"
                )
            continue
        probe = AggregationQuery(
            bbox=cell.key.bbox,
            time_range=cell.key.time_range,
            resolution=cell.key.resolution,
        )
        fresh, _stats = scan_blocks(blocks, probe)
        expected = fresh.get(cell.key, SummaryVector.empty(cluster.attribute_names))
        if not cell.summary.approx_equal(expected, rel=1e-6):
            findings.append(
                f"{graph.name}: {cell.key} cached summary drifted from disk "
                f"(cached count={cell.summary.count}, disk count={expected.count})"
            )


def audit_cluster(cluster, value_sample: int = 16, seed: int = 0) -> int:
    """Audit every started node; returns the number of cells value-checked.

    ``value_sample`` bounds the per-graph number of cells whose summaries
    are recomputed from storage (0 = skip value checks, negative =
    exhaustive).
    """
    findings: list[str] = []
    rng = np.random.default_rng(seed)
    sample = 10**9 if value_sample < 0 else value_sample
    checked = 0
    for node in cluster.nodes.values():
        slot_maps_mirror_levels(node.graph)
        slot_maps_mirror_levels(node.guest)
        _audit_placement(node, findings)
        if sample:
            for graph in (node.graph, node.guest):
                _audit_cell_values(cluster, graph, findings, sample, rng)
                checked += min(sample, len(graph))
        for root, entry in node.guest_cliques.entries.items():
            for member in entry["members"]:
                if not node.guest.contains(member):
                    findings.append(
                        f"{node.node_id}: guest clique {root} member {member} "
                        "missing from guest graph"
                    )
        if len(node.graph) > node.eviction.config.max_cells:
            findings.append(
                f"{node.node_id}: {len(node.graph)} cells exceed the "
                f"hard limit {node.eviction.config.max_cells}"
            )
    assert not findings, (
        f"{len(findings)} invariant violation(s):\n  " + "\n  ".join(findings)
    )
    return checked
