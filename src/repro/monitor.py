"""Cluster monitoring: a point-in-time operational snapshot.

The kind of dashboard an operator of a STASH deployment would watch:
per-node cache occupancy, guest load, queue depths, disk and cache
counters, plus cluster-wide hit rates.  Pure inspection — touching the
snapshot never perturbs the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


def cache_hit_rate(counter_total: Callable[[str], int]) -> float:
    """Cells served from memory over all cell resolutions so far.

    The one definition behind :meth:`ClusterSnapshot.cache_hit_rate` and
    the ``cluster.hit_rate`` gauge: cache, roll-up and (elastic) request
    cache serves against populated cells and request-cache misses, each
    read through ``counter_total(name)`` — a counter summed over nodes.
    """
    served = (
        counter_total("cells_served_from_cache")
        + counter_total("cells_served_from_rollup")
        + counter_total("request_cache_hits")
    )
    total = (
        served
        + counter_total("cells_populated")
        + counter_total("request_cache_misses")
    )
    return served / total if total else 0.0


@dataclass(frozen=True)
class NodeSnapshot:
    """One node's state at snapshot time."""

    node_id: str
    local_cells: int
    guest_cells: int
    pending_requests: int
    disk_reads: int
    disk_bytes_read: int
    counters: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ClusterSnapshot:
    """The whole cluster at snapshot time."""

    sim_time: float
    nodes: tuple[NodeSnapshot, ...]
    queries_completed: int
    messages_sent: int
    bytes_sent: int

    @property
    def total_cached_cells(self) -> int:
        return sum(node.local_cells for node in self.nodes)

    @property
    def total_guest_cells(self) -> int:
        return sum(node.guest_cells for node in self.nodes)

    def counter_total(self, name: str) -> int:
        return sum(node.counters.get(name, 0) for node in self.nodes)

    def cache_hit_rate(self) -> float:
        """Fraction of served cells that came from memory (:func:`cache_hit_rate`)."""
        return cache_hit_rate(self.counter_total)

    def imbalance(self) -> float:
        """Max/mean ratio of per-node cached cells (1.0 = perfectly even)."""
        sizes = [node.local_cells for node in self.nodes]
        mean = sum(sizes) / len(sizes) if sizes else 0.0
        return max(sizes) / mean if mean else 0.0

    def format_table(self) -> str:
        lines = [
            f"cluster @ t={self.sim_time:.3f}s  "
            f"queries={self.queries_completed}  "
            f"msgs={self.messages_sent}  bytes={self.bytes_sent:,}",
            f"{'node':>10} {'cells':>8} {'guest':>7} {'pending':>8} "
            f"{'disk rd':>8} {'disk MB':>8}",
        ]
        for node in self.nodes:
            lines.append(
                f"{node.node_id:>10} {node.local_cells:>8} {node.guest_cells:>7} "
                f"{node.pending_requests:>8} {node.disk_reads:>8} "
                f"{node.disk_bytes_read / 1e6:>8.2f}"
            )
        lines.append(
            f"hit rate: {self.cache_hit_rate():.1%}   "
            f"imbalance: {self.imbalance():.2f}   "
            f"guest total: {self.total_guest_cells}"
        )
        return "\n".join(lines)


def snapshot(cluster) -> ClusterSnapshot:
    """Take a snapshot of a running (or finished) cluster system.

    Works for any :class:`~repro.system.DistributedSystem`; STASH-specific
    fields (cells, guest) read as zero on systems without a graph.  Pure
    inspection: snapshotting an unstarted cluster reports it empty rather
    than booting its nodes.
    """
    nodes_map = getattr(cluster, "nodes", None) or {}
    nodes = []
    for node_id in sorted(nodes_map):
        node = nodes_map[node_id]
        nodes.append(
            NodeSnapshot(
                node_id=node_id,
                local_cells=len(getattr(node, "graph", ())),
                guest_cells=len(getattr(node, "guest", ())),
                pending_requests=node.pending_requests,
                disk_reads=node.disk.reads,
                disk_bytes_read=node.disk.bytes_read,
                counters=node.counters.as_dict(),
            )
        )
    return ClusterSnapshot(
        sim_time=cluster.sim.now,
        nodes=tuple(nodes),
        queries_completed=len(cluster.timeline),
        messages_sent=cluster.network.messages_sent,
        bytes_sent=cluster.network.bytes_sent,
    )
