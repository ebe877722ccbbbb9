"""Cluster invariant auditing.

:func:`audit_cluster` walks a (quiesced) STASH cluster and checks every
structural invariant the design relies on.  The integration tests call
it after exercising the system; operators can call it any time — it
reads state only and raises :class:`AuditError` with a full finding list
on the first inconsistent cluster it sees.

Checked invariants:

1.  every cached cell key lives at the graph level its resolution maps to;
2.  the PLM tracks exactly the cells resident in each graph (no orphans,
    no ghosts), and its reverse index agrees with the forward map;
3.  every *local* cell is on the node the DHT assigns it;
4.  every PLM backing block exists in the storage catalog;
5.  cell summaries equal a fresh aggregation of their backing blocks
    (sampled, optionally exhaustive) — the cache never drifts from disk;
6.  guest-clique registry members refer to cells present in the guest
    graph (or already purged as a whole clique);
7.  per-node occupancy respects the eviction hard limit.
"""

from __future__ import annotations

import numpy as np

from repro.core.keys import CellKey
from repro.errors import ReproError


class AuditError(ReproError):
    """One or more cluster invariants are violated."""

    def __init__(self, findings: list[str]):
        self.findings = findings
        super().__init__(
            f"{len(findings)} invariant violation(s):\n  " + "\n  ".join(findings)
        )


def _audit_graph(node, graph, findings: list[str], is_local: bool) -> None:
    plm_keys: set[CellKey] = set()
    for level in graph.plm.tracked_levels():
        for key in list(graph.plm._by_level.get(level, {})):
            plm_keys.add(key)
            if not graph.contains(key):
                findings.append(
                    f"{graph.name}: PLM tracks {key} but the cell is absent"
                )
            if graph.space.level_of(key.resolution) != level:
                findings.append(
                    f"{graph.name}: {key} tracked at wrong level {level}"
                )
    for cell in graph.cells():
        if cell.key not in plm_keys:
            findings.append(f"{graph.name}: cell {cell.key} missing from PLM")
        level = graph.level_of(cell.key)
        if not graph.plm.contains(level, cell.key):
            findings.append(
                f"{graph.name}: cell {cell.key} not tracked at level {level}"
            )
        if is_local:
            owner = node.membership.base.node_for(cell.key.geohash)
            if owner != node.node_id:
                findings.append(
                    f"{graph.name}: cell {cell.key} owned by {owner}, "
                    f"cached on {node.node_id}"
                )
    # Reverse index agreement.
    for block_id, dependents in graph.plm._by_block.items():
        for key in dependents:
            level = graph.space.level_of(key.resolution)
            if not graph.plm.contains(level, key):
                findings.append(
                    f"{graph.name}: reverse index {block_id} -> {key} is stale"
                )


def _audit_cell_values(
    cluster, node, graph, findings: list[str], sample: int, rng
) -> None:
    from repro.data.statistics import SummaryVector
    from repro.storage.backend import scan_blocks
    from repro.query.model import AggregationQuery

    cells = list(graph.cells())
    if not cells:
        return
    if 0 < sample < len(cells):
        picked = [cells[int(i)] for i in rng.choice(len(cells), sample, replace=False)]
    else:
        picked = cells
    for cell in picked:
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
        expected = fresh.get(
            cell.key, SummaryVector.empty(cluster.attribute_names)
        )
        if not cell.summary.approx_equal(expected, rel=1e-6):
            findings.append(
                f"{graph.name}: {cell.key} cached summary drifted from disk "
                f"(cached count={cell.summary.count}, disk count={expected.count})"
            )


def audit_cluster(cluster, value_sample: int = 16, seed: int = 0) -> int:
    """Audit every node; returns the number of cells value-checked.

    ``value_sample`` bounds the per-graph number of cells whose summaries
    are recomputed from storage (0 = skip value checks, negative =
    exhaustive).
    """
    cluster.start()
    findings: list[str] = []
    rng = np.random.default_rng(seed)
    checked = 0
    for node in cluster.nodes.values():
        _audit_graph(node, node.graph, findings, is_local=True)
        _audit_graph(node, node.guest, findings, is_local=False)
        if value_sample != 0:
            sample = 10**9 if value_sample < 0 else value_sample
            _audit_cell_values(cluster, node, node.graph, findings, sample, rng)
            _audit_cell_values(cluster, node, node.guest, findings, sample, rng)
            checked += min(sample, len(node.graph)) + min(sample, len(node.guest))
        # Guest registry members must be resident (or the clique purged).
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
    if findings:
        raise AuditError(findings)
    return checked
