"""Zero-hop DHT partitioners: geohash -> owning node.

Galileo is "a zero-hop DHT based storage system that uses Geohash to
generate data partitions that store and colocate geospatially proximate
data points" (paper section VI-C).  Zero-hop means every node holds the
complete partition map, so locating the owner of any key is a single
local computation — the paper's O(1) discovery cost.

Two implementations:

* :class:`PrefixPartitioner` — hashes the geohash *prefix* at the
  configured partition precision; all data within one coarse cell lands
  on one node (the paper's "first 2 characters" scheme).
* :class:`ConsistentHashPartitioner` — classic ring with virtual nodes;
  node removal only remaps keys the removed node owned.  Provided for
  elasticity experiments.
"""

from __future__ import annotations

import bisect
import hashlib
from abc import ABC, abstractmethod

from repro.errors import StorageError


def _stable_hash(text: str) -> int:
    """Platform/run-stable 64-bit hash (Python's built-in hash is salted)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class Partitioner(ABC):
    """Maps geohash keys to node ids; shared by storage and STASH layers."""

    def __init__(self, node_ids: list[str], partition_precision: int):
        if not node_ids:
            raise StorageError("partitioner needs at least one node")
        if len(set(node_ids)) != len(node_ids):
            raise StorageError("duplicate node ids")
        if partition_precision < 1:
            raise StorageError("partition_precision must be >= 1")
        self.node_ids = list(node_ids)
        self.partition_precision = partition_precision
        #: The partition map itself, prefix -> owner, filled on first use.
        #: A partitioner never changes (ring repair builds a new one), so
        #: an entry is never wrong.
        self._owners: dict[str, str] = {}

    def partition_key(self, geohash: str) -> str:
        """The coarse prefix that determines ownership."""
        if not geohash:
            raise StorageError("empty geohash")
        return geohash[: self.partition_precision]

    @abstractmethod
    def node_for_partition(self, prefix: str) -> str:
        """Owner node of a partition prefix."""

    def node_for(self, geohash: str) -> str:
        """Owner node of any geohash (cell or block)."""
        prefix = self.partition_key(geohash)
        owner = self._owners.get(prefix)
        if owner is None:
            owner = self._owners[prefix] = self.node_for_partition(prefix)
        return owner

    def without_node(self, node_id: str) -> "Partitioner":
        """A new partition map with one node removed (ring repair).

        The base implementation rebuilds with the surviving nodes;
        subclasses with better remap locality override this.
        """
        if node_id not in self.node_ids:
            raise StorageError(f"unknown node {node_id!r}")
        remaining = [n for n in self.node_ids if n != node_id]
        return type(self)(remaining, self.partition_precision)

    def without_nodes(self, node_ids: "set[str] | frozenset[str]") -> "Partitioner":
        """Ring repair for a whole dead-set at once.

        Removes nodes one at a time in base order, so the result is
        identical to chained :meth:`without_node` calls regardless of the
        order deaths were observed in — every membership view that agrees
        on *which* nodes are dead agrees on the repaired map.
        """
        view: Partitioner = self
        for node_id in self.node_ids:
            if node_id in node_ids:
                view = view.without_node(node_id)
        return view


class PrefixPartitioner(Partitioner):
    """Uniform modulo placement of geohash prefixes (Galileo-style)."""

    def node_for_partition(self, prefix: str) -> str:
        return self.node_ids[_stable_hash(prefix) % len(self.node_ids)]


class ConsistentHashPartitioner(Partitioner):
    """Consistent-hash ring with virtual nodes."""

    def __init__(
        self,
        node_ids: list[str],
        partition_precision: int,
        virtual_nodes: int = 64,
    ):
        super().__init__(node_ids, partition_precision)
        if virtual_nodes < 1:
            raise StorageError("virtual_nodes must be >= 1")
        self.virtual_nodes = virtual_nodes
        self._ring: list[tuple[int, str]] = sorted(
            (_stable_hash(f"{node}#{v}"), node)
            for node in node_ids
            for v in range(virtual_nodes)
        )
        self._points = [p for p, _ in self._ring]

    def node_for_partition(self, prefix: str) -> str:
        point = _stable_hash(prefix)
        index = bisect.bisect_right(self._points, point) % len(self._ring)
        return self._ring[index][1]

    def without_node(self, node_id: str) -> "ConsistentHashPartitioner":
        """A new ring with one node removed (for remap-locality tests)."""
        if node_id not in self.node_ids:
            raise StorageError(f"unknown node {node_id!r}")
        remaining = [n for n in self.node_ids if n != node_id]
        return ConsistentHashPartitioner(
            remaining, self.partition_precision, self.virtual_nodes
        )
