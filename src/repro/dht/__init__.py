"""Zero-hop DHT partitioning (Galileo-style, paper section VI-C)."""

from repro.dht.partitioner import Partitioner, PrefixPartitioner

__all__ = ["Partitioner", "PrefixPartitioner"]
