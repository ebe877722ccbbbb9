"""Membership: the liveness view + DHT ring repair (shared-instance use)."""

import pytest

from repro.dht.partitioner import ConsistentHashPartitioner, PrefixPartitioner
from repro.errors import FaultError, StorageError
from repro.faults.membership import RPC_FAILED, RPC_SHED, Membership, rpc_ok

NODES = [f"node-{i}" for i in range(4)]
HASHES = ["9q8y", "dr5r", "c2b2", "u4pr", "9z6m", "gcpv"]


def make_membership(partitioner_cls=PrefixPartitioner):
    return Membership(partitioner_cls(NODES, 2))


class TestRpcSentinels:
    def test_truth_testing_raises(self):
        # A failed reply must never be confused with an empty-but-valid
        # one; truth-testing the sentinel is a bug and raises loudly.
        with pytest.raises(TypeError, match="no truth value"):
            bool(RPC_FAILED)
        with pytest.raises(TypeError, match="no truth value"):
            bool(RPC_SHED)
        with pytest.raises(TypeError, match="no truth value"):
            if RPC_FAILED:  # pragma: no cover - the test is the raise
                pass

    def test_repr_and_identity(self):
        assert repr(RPC_FAILED) == "RPC_FAILED"
        assert repr(RPC_SHED) == "RPC_SHED"
        assert RPC_FAILED is not RPC_SHED

    def test_rpc_ok(self):
        assert not rpc_ok(RPC_FAILED)
        assert not rpc_ok(RPC_SHED)
        assert rpc_ok({})
        assert rpc_ok(None)
        assert rpc_ok(0)


class TestMembership:
    def test_initially_all_live(self):
        membership = make_membership()
        assert membership.live_nodes() == NODES
        assert membership.dead_nodes() == []
        assert all(membership.is_live(n) for n in NODES)

    def test_view_matches_base_before_any_death(self):
        membership = make_membership()
        base = PrefixPartitioner(NODES, 2)
        for code in HASHES:
            assert membership.node_for(code) == base.node_for(code)

    def test_declare_dead_reroutes(self):
        membership = make_membership()
        assert membership.declare_dead("node-1")
        assert not membership.is_live("node-1")
        assert membership.dead_nodes() == ["node-1"]
        assert membership.failovers == 1
        for code in HASHES:
            assert membership.node_for(code) != "node-1"

    def test_declare_dead_idempotent(self):
        membership = make_membership()
        assert membership.declare_dead("node-1")
        assert not membership.declare_dead("node-1")
        assert membership.failovers == 1

    def test_unknown_node_rejected(self):
        membership = make_membership()
        with pytest.raises(FaultError, match="unknown node"):
            membership.declare_dead("node-99")

    def test_last_live_node_protected(self):
        membership = make_membership()
        for node in NODES[:-1]:
            membership.declare_dead(node)
        with pytest.raises(FaultError, match="last live node"):
            membership.declare_dead(NODES[-1])

    def test_revive_restores_base_mapping(self):
        membership = make_membership()
        base = PrefixPartitioner(NODES, 2)
        membership.declare_dead("node-2")
        assert membership.revive("node-2")
        assert membership.live_nodes() == NODES
        for code in HASHES:
            assert membership.node_for(code) == base.node_for(code)

    def test_revive_of_live_node_is_noop(self):
        membership = make_membership()
        assert not membership.revive("node-0")

    def test_revive_with_another_node_still_dead(self):
        # Regression: reviving one node while a second is still dead must
        # rebuild the view from the *full* remaining dead set, not undo
        # only the revived node's removal (order-dependent repair bug).
        membership = make_membership()
        membership.declare_dead("node-1")
        membership.declare_dead("node-2")
        assert membership.revive("node-1")
        assert membership.dead_nodes() == ["node-2"]
        expected = PrefixPartitioner(NODES, 2).without_node("node-2")
        for code in HASHES:
            assert membership.node_for(code) == expected.node_for(code)
            assert membership.node_for(code) != "node-2"

    def test_revive_order_independent(self):
        # Kill A then B, revive in both orders: views must agree at every
        # intermediate step with a membership that saw the same dead set.
        base = PrefixPartitioner(NODES, 2)
        first = make_membership()
        second = make_membership()
        for m in (first, second):
            m.declare_dead("node-0")
            m.declare_dead("node-3")
        first.revive("node-0")
        second.revive("node-3")
        second.revive("node-0")
        second.declare_dead("node-3")
        for code in HASHES:
            assert first.node_for(code) == second.node_for(code)
        first.revive("node-3")
        second.revive("node-3")
        for code in HASHES:
            assert first.node_for(code) == base.node_for(code)
            assert second.node_for(code) == base.node_for(code)

    def test_consistent_hash_ring_repair_is_minimal(self):
        membership = make_membership(ConsistentHashPartitioner)
        base = ConsistentHashPartitioner(NODES, 2)
        before = {code: base.node_for(code) for code in HASHES}
        membership.declare_dead("node-3")
        for code, owner in before.items():
            # Keys owned by survivors keep their owner; only node-3's
            # keys move (consistent hashing's minimal-disruption repair).
            if owner != "node-3":
                assert membership.node_for(code) == owner
            else:
                assert membership.node_for(code) != "node-3"


class TestWithoutNode:
    def test_prefix_partitioner_without_node(self):
        part = PrefixPartitioner(NODES, 2)
        smaller = part.without_node("node-2")
        assert smaller.node_ids == [n for n in NODES if n != "node-2"]
        assert type(smaller) is PrefixPartitioner
        for code in HASHES:
            assert smaller.node_for(code) != "node-2"

    def test_without_unknown_node(self):
        part = PrefixPartitioner(NODES, 2)
        with pytest.raises(StorageError, match="unknown node"):
            part.without_node("node-99")
