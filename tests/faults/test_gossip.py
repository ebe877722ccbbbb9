"""Membership as a per-participant view: SWIM-style merge/refutation/aging."""

import pytest

from repro.config import GossipConfig
from repro.dht.partitioner import PrefixPartitioner
from repro.errors import FaultError
from repro.faults.gossip import suspect_count, view_divergence
from repro.faults.membership import Membership, PeerState

NODES = [f"node-{i}" for i in range(4)]
HASHES = ["9q8y", "dr5r", "c2b2", "u4pr", "9z6m", "gcpv"]
CFG = GossipConfig(enabled=True, suspect_after=1.0, dead_after=1.0)


def make_view(owner="node-0", participants=None):
    return Membership(
        PrefixPartitioner(NODES, 2), owner, CFG, participants=participants
    )


class TestRoutingSurface:
    # A shared-instance wiring (``Membership(partitioner)``, no owner) and
    # a per-participant wiring route identically before and after a death.

    def test_matches_cluster_membership_before_any_death(self):
        view = make_view()
        shared = Membership(PrefixPartitioner(NODES, 2))
        for code in HASHES:
            assert view.node_for(code) == shared.node_for(code)

    def test_matches_cluster_membership_after_death(self):
        view = make_view()
        shared = Membership(PrefixPartitioner(NODES, 2))
        assert shared.owner_id is None and view.owner_id == "node-0"
        assert view.declare_dead("node-2")
        assert shared.declare_dead("node-2")
        assert view.dead_nodes() == shared.dead_nodes() == ["node-2"]
        for code in HASHES:
            assert view.node_for(code) == shared.node_for(code)

    def test_declare_dead_semantics(self):
        view = make_view()
        assert view.declare_dead("node-1")
        assert not view.declare_dead("node-1")
        assert view.failovers == 1
        with pytest.raises(FaultError, match="unknown node"):
            view.declare_dead("node-99")

    def test_last_live_node_protected(self):
        view = make_view()
        for node in NODES[:-1]:
            view.declare_dead(node)
        with pytest.raises(FaultError, match="last live node"):
            view.declare_dead(NODES[-1])

    def test_revive_bumps_incarnation(self):
        view = make_view()
        view.declare_dead("node-1")
        assert view.revive("node-1")
        assert not view.revive("node-1")
        assert view.is_live("node-1")
        assert view._records["node-1"].incarnation == 1

    def test_client_participant_does_not_route(self):
        view = make_view("client", participants=NODES + ["client"])
        assert view.live_nodes() == NODES
        assert "client" not in view.base.node_ids


class TestMerge:
    def test_higher_incarnation_wins_outright(self):
        view = make_view()
        view.declare_dead("node-1")
        view.merge({"node-1": (1, 5, PeerState.ALIVE)}, now=1.0)
        assert view.is_live("node-1")
        assert view._records["node-1"].heartbeat == 5

    def test_dead_is_sticky_within_incarnation(self):
        view = make_view()
        view.declare_dead("node-1")
        # A stale pre-death rumor (same incarnation, big heartbeat)
        # must not resurrect the peer.
        view.merge({"node-1": (0, 99, PeerState.ALIVE)}, now=1.0)
        assert not view.is_live("node-1")

    def test_heartbeat_progress_is_fresh_alive_evidence(self):
        view = make_view()
        record = view._records["node-1"]
        record.state = PeerState.SUSPECT
        view.merge({"node-1": (0, 3, PeerState.ALIVE)}, now=1.0)
        assert record.state == PeerState.ALIVE
        assert record.heartbeat == 3
        assert record.updated_at == 1.0

    def test_stale_heartbeat_ignored(self):
        view = make_view()
        view.merge({"node-1": (0, 5, PeerState.ALIVE)}, now=1.0)
        view.merge({"node-1": (0, 2, PeerState.ALIVE)}, now=2.0)
        record = view._records["node-1"]
        assert record.heartbeat == 5
        assert record.updated_at == 1.0

    def test_dead_rumor_adopted_within_incarnation(self):
        view = make_view()
        view.merge({"node-1": (0, 0, PeerState.DEAD)}, now=1.0)
        assert not view.is_live("node-1")
        assert view.failovers == 1

    def test_unknown_peer_ignored(self):
        view = make_view()
        view.merge({"node-99": (0, 3, PeerState.ALIVE)}, now=1.0)
        assert "node-99" not in view._records

    def test_refutes_rumor_of_own_death(self):
        view = make_view()
        own = view._records["node-0"]
        view.merge({"node-0": (0, 0, PeerState.DEAD)}, now=1.0)
        assert own.state == PeerState.ALIVE
        assert own.incarnation == 1  # rumor's incarnation + 1

    def test_refutation_outranks_higher_incarnation_rumor(self):
        view = make_view()
        view.merge({"node-0": (3, 0, PeerState.SUSPECT)}, now=1.0)
        own = view._records["node-0"]
        assert own.state == PeerState.ALIVE
        assert own.incarnation == 4

    def test_digest_is_a_snapshot(self):
        view = make_view()
        digest = view.digest()
        view.heartbeat(1.0)
        assert digest["node-0"][1] == 0  # snapshot unaffected by mutation


class TestAging:
    def test_alive_to_suspect_to_dead(self):
        view = make_view()
        view.age(0.5)
        assert view.suspect_nodes() == []
        view.age(1.5)  # silence > suspect_after
        assert view.suspect_nodes() == ["node-1", "node-2", "node-3"]
        assert view.dead_nodes() == []
        view.age(2.5)  # silence > suspect_after + dead_after
        assert view.suspect_nodes() == []
        # The owner itself never ages, so it remains the last live node.
        assert view.dead_nodes() == ["node-1", "node-2", "node-3"]
        assert view.live_nodes() == ["node-0"]

    def test_fresh_evidence_rescues_a_suspect(self):
        view = make_view()
        view.age(1.5)
        assert "node-1" in view.suspect_nodes()
        view.merge({"node-1": (0, 1, PeerState.ALIVE)}, now=1.6)
        assert "node-1" not in view.suspect_nodes()
        view.age(2.5)
        assert view.is_live("node-1")

    def test_own_record_never_ages(self):
        view = make_view()
        view.age(100.0)
        assert view._records["node-0"].state == PeerState.ALIVE


class TestCrashRejoin:
    def test_reset_forgets_everything(self):
        view = make_view()
        view.declare_dead("node-1")
        view.reset(5.0)
        assert view.dead_nodes() == []
        assert view._records["node-1"].updated_at == 5.0

    def test_rejoin_takes_strictly_newer_incarnation(self):
        view = make_view()
        view.rejoin(incarnation=3, now=1.0)
        own = view._records["node-0"]
        assert own.incarnation == 3
        assert own.state == PeerState.ALIVE
        view.rejoin(incarnation=2, now=2.0)
        assert own.incarnation == 4  # max(2, 3 + 1)


class TestGauges:
    def test_view_divergence(self):
        views = [make_view(n) for n in NODES]
        assert view_divergence(views) == 0
        views[0].declare_dead("node-1")
        # One of four views says dead: 1 * 3 disagreeing pairs.
        assert view_divergence(views) == 3
        for v in views:
            if v.owner_id != "node-1" and v.is_live("node-1"):
                v.declare_dead("node-1")
        # node-1's own view refutes its own death, so 3 dead x 1 alive.
        assert view_divergence(views) == 3
        views[1].reset(0.0)  # as if node-1 crashed: its view drops out
        views[1].merge({"node-1": (0, 0, PeerState.DEAD)}, now=0.0)
        assert view_divergence([v for v in views if v.owner_id != "node-1"]) == 0
        assert view_divergence([]) == 0

    def test_suspect_count(self):
        views = [make_view(n) for n in NODES]
        assert suspect_count(views) == 0
        views[0].age(1.5)
        assert suspect_count(views) == 3
