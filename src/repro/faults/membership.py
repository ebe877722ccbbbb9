"""Cluster membership: the liveness view and the DHT ring it repairs.

Galileo's zero-hop DHT means every node holds the complete partition
map; this module extends that to liveness.  :class:`Membership` is a
view of which nodes are currently live.  When a coordinator exhausts
its retries against a peer it declares the peer dead in its view; the
view then repairs the ring by rebuilding the partition map without the
dead node (``Partitioner.without_nodes``), so subsequent lookups route
around the failure.  A restarted node is revived and the original map
restored.

There is one view type and two ways to wire it.  With gossip off the
client and every node hold *the same instance* — the shared object is
the gossip, every declaration is seen by everyone immediately, and the
failure model stays deterministic.  With gossip on each participant
holds its own instance and the views converge by the push-gossip
rounds of :mod:`repro.faults.gossip`, SWIM / Dynamo style:

* A view's record of a peer is ``(incarnation, heartbeat, state)``.  A
  node's own heartbeat counter advances every gossip round; its
  incarnation advances only when it must refute a rumor of its own
  death (or when it rejoins after a crash).
* Merge precedence: a higher incarnation wins outright.  Within one
  incarnation, DEAD is sticky (only an incarnation bump resurrects) and
  otherwise a larger heartbeat is fresh liveness evidence.
* A peer whose heartbeat makes no progress for ``suspect_after`` seconds
  becomes SUSPECT; after ``dead_after`` more seconds of silence it is
  confirmed DEAD, the ring is repaired around it, and confirmed-death
  callbacks fire (anti-entropy cache repair hangs off these).
* A participant that sees *itself* rumored SUSPECT/DEAD bumps its own
  incarnation — the refutation then spreads epidemically.

``RPC_FAILED`` is the sentinel a fault-aware RPC leg resolves to once
its target is (or has been declared) dead; ``RPC_SHED`` is its sibling
for a leg an overloaded peer rejected outright (fast explicit failure —
the peer is alive, just shedding).  Both must be compared with ``is``;
evaluating either in boolean context raises ``TypeError`` so an
accidental ``if reply:`` fails loudly instead of silently treating a
failure as data.  Use :func:`rpc_ok` when you only care whether a reply
carries a real value.

When no node has ever been declared dead, :meth:`node_for` delegates to
the original partitioner untouched, so fault-free runs route exactly as
before this layer existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.config import GossipConfig
from repro.dht.partitioner import Partitioner
from repro.errors import FaultError


class _RpcSentinel:
    """Interned per-name sentinel for a failed RPC leg."""

    _instances: dict[str, "_RpcSentinel"] = {}

    def __new__(cls, name: str):
        instance = cls._instances.get(name)
        if instance is None:
            instance = cls._instances[name] = super().__new__(cls)
            instance._name = name
        return instance

    def __repr__(self) -> str:
        return self._name

    def __bool__(self) -> bool:
        raise TypeError(
            f"{self._name} has no truth value; compare with "
            f"'is {self._name}' (or use rpc_ok())"
        )


#: The peer is (or has been declared) dead and retries are exhausted.
RPC_FAILED = _RpcSentinel("RPC_FAILED")
#: The peer is alive but shed the request under overload (no retries —
#: the rejection is an explicit, immediate signal).
RPC_SHED = _RpcSentinel("RPC_SHED")


def rpc_ok(reply: object) -> bool:
    """True when ``reply`` is a real value, not an RPC failure sentinel."""
    return reply is not RPC_FAILED and reply is not RPC_SHED


class PeerState:
    """Liveness states of the SWIM-style failure detector."""

    ALIVE = 0
    SUSPECT = 1
    DEAD = 2

    NAMES = {ALIVE: "alive", SUSPECT: "suspect", DEAD: "dead"}


@dataclass
class PeerRecord:
    """One participant's knowledge about one peer."""

    #: Epoch of the peer's identity; bumped by the peer itself on
    #: refutation or rejoin.  Higher incarnation always wins a merge.
    incarnation: int = 0
    #: Liveness counter within the incarnation; the peer advances it
    #: every gossip round while alive.
    heartbeat: int = 0
    state: int = PeerState.ALIVE
    #: Local simulated time when liveness evidence last advanced.  Not
    #: gossiped — each view ages peers against its own clock.
    updated_at: float = 0.0


class Membership:
    """A versioned view of cluster liveness and the ring repaired by it.

    The routing surface (``partitioner``, ``node_for``, ``is_live``,
    ``live_nodes``, ``dead_nodes``, ``declare_dead``, ``revive``,
    ``failovers``) is what nodes and the client route through; the
    gossip surface (``digest``/``merge``/``heartbeat``/``age``) is what
    a :class:`~repro.faults.gossip.GossipAgent` drives.

    How many instances a cluster holds is the wiring, not the type:
    ``Membership(partitioner)`` handed to the client and every node is
    the zero-hop view — a declaration is seen by everyone at once,
    because everyone holds the same object; one instance per
    participant (``owner_id`` set, an agent each) is the epidemic view.
    """

    def __init__(
        self,
        partitioner: Partitioner,
        owner_id: str | None = None,
        config: GossipConfig = GossipConfig(),
        participants: list[str] | None = None,
    ):
        self.owner_id = owner_id
        #: The full partition map; ``partitioner`` is this minus the dead.
        self.base = partitioner
        self.config = config
        if participants is None:
            participants = list(partitioner.node_ids)
            if owner_id is not None and owner_id not in participants:
                participants.append(owner_id)
        elif owner_id not in participants:
            raise FaultError(f"owner {owner_id!r} not among participants")
        self.participants = list(participants)
        self._records: dict[str, PeerRecord] = {}
        self._view: Partitioner = partitioner
        self._view_dirty = False
        #: Monotone count of not-dead -> dead transitions in *this* view.
        self.failovers = 0
        #: Fired with the peer id when a storage node is confirmed dead
        #: (any evidence source: aging, direct declaration, or merge).
        self.on_dead: list[Callable[[str], None]] = []
        #: Fired with the peer id when a dead storage node is seen alive
        #: again (a rejoin at a higher incarnation).
        self.on_alive: list[Callable[[str], None]] = []
        self.reset(0.0)

    # -- routing surface ---------------------------------------------------

    @property
    def partitioner(self) -> Partitioner:
        """The current (possibly repaired) partition map under this view."""
        if self._view_dirty:
            self._rebuild_view()
        return self._view

    def is_live(self, node_id: str) -> bool:
        record = self._records.get(node_id)
        return record is None or record.state != PeerState.DEAD

    def live_nodes(self) -> list[str]:
        return [n for n in self.base.node_ids if self.is_live(n)]

    def dead_nodes(self) -> list[str]:
        return sorted(
            n for n in self.base.node_ids if not self.is_live(n)
        )

    def suspect_nodes(self) -> list[str]:
        return sorted(
            n
            for n in self.base.node_ids
            if self._records[n].state == PeerState.SUSPECT
        )

    def node_for(self, geohash: str) -> str:
        """Owner of a geohash under this view's repaired ring."""
        if self._view_dirty:
            self._rebuild_view()
        return self._view.node_for(geohash)

    def declare_dead(self, node_id: str) -> bool:
        """Direct evidence (retries exhausted): mark the peer dead *here*.

        Only this view changes; whoever else holds it sees the death at
        once, other views learn it via gossip.  True on the first
        declaration, False if already dead, ``FaultError`` for unknown
        nodes or when it would kill the last live node — some owner
        must always exist for every key.
        """
        if node_id not in self.base.node_ids:
            raise FaultError(f"unknown node {node_id!r}")
        record = self._records[node_id]
        if record.state == PeerState.DEAD:
            return False
        if len(self.live_nodes()) <= 1:
            raise FaultError(
                f"refusing to declare last live node {node_id!r} dead"
            )
        self._transition(node_id, record, PeerState.DEAD)
        return True

    def revive(self, node_id: str) -> bool:
        """Direct evidence that a node is back (e.g. it answered an RPC)."""
        if node_id not in self.base.node_ids:
            raise FaultError(f"unknown node {node_id!r}")
        record = self._records[node_id]
        if record.state != PeerState.DEAD:
            return False
        record.incarnation += 1  # model the rejoin epoch this implies
        record.heartbeat = 0
        self._transition(node_id, record, PeerState.ALIVE)
        return True

    # -- gossip surface ----------------------------------------------------

    def digest(self) -> dict[str, tuple[int, int, int]]:
        """Immutable snapshot of this view, suitable for the wire."""
        return {
            peer: (r.incarnation, r.heartbeat, r.state)
            for peer, r in self._records.items()
        }

    def heartbeat(self, now: float) -> None:
        """Advance the owner's own liveness counter (once per round)."""
        record = self._records[self.owner_id]
        record.heartbeat += 1
        record.updated_at = now

    def merge(self, digest: dict[str, tuple[int, int, int]], now: float) -> None:
        """Fold a received digest into this view (push-gossip receive)."""
        for peer, entry in digest.items():
            record = self._records.get(peer)
            if record is None:
                continue  # outside this view's universe
            incarnation, heartbeat, state = entry
            if peer == self.owner_id:
                self._merge_self(record, incarnation, state, now)
                continue
            if incarnation > record.incarnation:
                record.incarnation = incarnation
                record.heartbeat = heartbeat
                record.updated_at = now
                self._transition(peer, record, state)
            elif incarnation == record.incarnation:
                if record.state == PeerState.DEAD:
                    continue  # sticky: stale pre-death rumors can't revive
                if state == PeerState.DEAD:
                    self._transition(peer, record, PeerState.DEAD)
                elif heartbeat > record.heartbeat:
                    record.heartbeat = heartbeat
                    record.updated_at = now
                    self._transition(peer, record, PeerState.ALIVE)

    def age(self, now: float) -> None:
        """Apply the suspect -> dead clock to every peer (one sweep)."""
        cfg = self.config
        for peer, record in self._records.items():
            if peer == self.owner_id or record.state == PeerState.DEAD:
                continue
            silence = now - record.updated_at
            if record.state == PeerState.ALIVE:
                if silence > cfg.suspect_after:
                    self._transition(peer, record, PeerState.SUSPECT)
            elif silence > cfg.suspect_after + cfg.dead_after:
                if (
                    peer in self.base.node_ids
                    and len(self.live_nodes()) <= 1
                ):
                    continue  # never age out the last live node
                self._transition(peer, record, PeerState.DEAD)

    def reset(self, now: float) -> None:
        """Forget everything (crash): a fresh view assuming peers alive."""
        self._records = {
            peer: PeerRecord(updated_at=now) for peer in self.participants
        }
        self._view = self.base
        self._view_dirty = False

    def rejoin(self, incarnation: int, now: float) -> None:
        """Come back after a crash under a strictly newer incarnation."""
        record = self._records[self.owner_id]
        record.incarnation = max(incarnation, record.incarnation + 1)
        record.heartbeat = 1
        record.state = PeerState.ALIVE
        record.updated_at = now

    # -- internals ---------------------------------------------------------

    def _merge_self(
        self, record: PeerRecord, incarnation: int, state: int, now: float
    ) -> None:
        """Handle a rumor about *ourselves*; refute suspicion/death."""
        if incarnation >= record.incarnation and state != PeerState.ALIVE:
            record.incarnation = incarnation + 1
            record.heartbeat += 1
            record.state = PeerState.ALIVE
            record.updated_at = now
        elif incarnation > record.incarnation:
            record.incarnation = incarnation
            record.updated_at = now

    def _transition(self, peer: str, record: PeerRecord, state: int) -> None:
        if record.state == state:
            return
        was_dead = record.state == PeerState.DEAD
        record.state = state
        is_node = peer in self.base.node_ids
        if state == PeerState.DEAD and is_node:
            self.failovers += 1
            self._view_dirty = True
            for callback in self.on_dead:
                callback(peer)
        elif was_dead and is_node:
            self._view_dirty = True
            if state == PeerState.ALIVE:
                for callback in self.on_alive:
                    callback(peer)

    def _rebuild_view(self) -> None:
        """Recompute the routing view as base minus dead, in base order.

        Always derived from the *full* remaining dead-set, never patched
        incrementally: reviving one node while another is still dead must
        yield the repaired-map-minus-the-still-dead, not the original map.
        """
        dead = {n for n in self.base.node_ids if not self.is_live(n)}
        if len(dead) >= len(self.base.node_ids):
            # Total blackout under this view; keep routing over the base
            # map rather than over nothing (requests fail fast anyway).
            self._view = self.base
        else:
            self._view = self.base.without_nodes(dead)
        self._view_dirty = False
