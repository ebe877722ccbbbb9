"""Tests for the zero-hop DHT partitioners."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import partitioner as partitioner_module
from repro.dht.partitioner import PrefixPartitioner
from repro.errors import StorageError
from repro.geo.geohash import GEOHASH_ALPHABET

NODES = [f"node-{i}" for i in range(8)]
geohashes = st.text(GEOHASH_ALPHABET, min_size=2, max_size=6)


class TestValidation:
    def test_needs_nodes(self):
        with pytest.raises(StorageError):
            PrefixPartitioner([], 2)

    def test_rejects_duplicates(self):
        with pytest.raises(StorageError):
            PrefixPartitioner(["a", "a"], 2)

    def test_rejects_bad_precision(self):
        with pytest.raises(StorageError):
            PrefixPartitioner(NODES, 0)

    def test_rejects_empty_geohash(self):
        part = PrefixPartitioner(NODES, 2)
        with pytest.raises(StorageError):
            part.node_for("")


class TestPrefixPartitioner:
    @given(geohashes)
    def test_every_key_maps_to_one_known_node(self, code):
        part = PrefixPartitioner(NODES, 2)
        assert part.node_for(code) in NODES

    @given(geohashes)
    def test_deterministic(self, code):
        a = PrefixPartitioner(NODES, 2)
        b = PrefixPartitioner(NODES, 2)
        assert a.node_for(code) == b.node_for(code)

    @given(geohashes, geohashes)
    @settings(max_examples=50)
    def test_same_prefix_same_node(self, a, b):
        part = PrefixPartitioner(NODES, 2)
        if a[:2] == b[:2]:
            assert part.node_for(a) == part.node_for(b)

    def test_colocation_of_cells_and_blocks(self):
        """A fine cell lands on the node owning its backing block prefix."""
        part = PrefixPartitioner(NODES, 2)
        assert part.node_for("9q8y7") == part.node_for("9q")

    def test_short_key_uses_whole_key(self):
        part = PrefixPartitioner(NODES, 2)
        assert part.partition_key("9") == "9"
        assert part.node_for("9") in NODES

    def test_roughly_uniform_distribution(self):
        part = PrefixPartitioner(NODES, 2)
        counts = {n: 0 for n in NODES}
        prefixes = [a + b for a in GEOHASH_ALPHABET for b in GEOHASH_ALPHABET]
        for prefix in prefixes:
            counts[part.node_for_partition(prefix)] += 1
        expected = len(prefixes) / len(NODES)
        for count in counts.values():
            assert 0.5 * expected < count < 1.6 * expected


PARTITIONERS = [
    lambda: PrefixPartitioner(NODES, 2),
    lambda: PrefixPartitioner(NODES, 3),
]


class TestMaterializedPartitionMap:
    """``node_for`` reads a per-instance prefix -> owner map filled on
    first use; ``node_for_partition`` stays the definition."""

    @pytest.mark.parametrize("build", PARTITIONERS)
    @given(codes=st.lists(st.text(GEOHASH_ALPHABET, min_size=1, max_size=6), max_size=20))
    @settings(max_examples=40)
    def test_node_for_is_the_partition_owner(self, build, codes):
        part = build()
        for code in codes + codes:  # a miss, then a hit, per prefix
            assert part.node_for(code) == part.node_for_partition(part.partition_key(code))
        assert set(part._owners) == {part.partition_key(code) for code in codes}

    @pytest.mark.parametrize("build", PARTITIONERS)
    def test_known_prefixes_are_not_hashed_again(self, build, monkeypatch):
        part = build()
        first = [part.node_for(code) for code in ("9q8y7", "9q", "dr5r", "9")]
        hashed = []
        real = partitioner_module._stable_hash
        monkeypatch.setattr(
            partitioner_module, "_stable_hash", lambda text: hashed.append(text) or real(text)
        )
        assert [part.node_for(code) for code in ("9q8zz", "9q", "dr5", "9")] == first
        assert hashed == []
        part.node_for("u4pr")
        assert hashed == ["u4p"[: part.partition_precision]]

    @pytest.mark.parametrize("build", PARTITIONERS)
    def test_ring_repair_starts_from_an_empty_map(self, build):
        part = build()
        owner = part.node_for("9q8y")
        repaired = part.without_node(owner)
        assert repaired._owners == {} and part._owners != {}
        assert repaired.node_for("9q8y") != owner
        assert part.node_for("9q8y") == owner  # the old map is untouched
        assert part.without_nodes({owner, NODES[0]})._owners == {}
