"""Epidemic (gossip) membership: the agents that make views converge.

With ``gossip.enabled`` every participant (each storage node, plus the
client) keeps its **own** :class:`~repro.faults.membership.Membership`
view, and a :class:`GossipAgent` per participant makes the views
converge by periodic push-gossip rounds carried as network messages
(the merge / aging state machine itself lives on the view).

With push fanout ``f`` over ``n`` participants a new rumor reaches the
whole cluster in ``O(log_f n)`` rounds with high probability, so the
expected convergence time after an event is roughly
``interval * log_f(n)`` plus one-way network latency per hop.

Everything is deterministic under a fixed seed: round timers are daemon
timeouts created in participant order, peer choice uses a dedicated
``numpy`` generator per agent, and ties resolve by the simulator's
sequence numbers.
"""

from __future__ import annotations

import numpy as np

from repro.config import CostModel, GossipConfig
from repro.faults.membership import Membership
from repro.sim.engine import Simulator
from repro.sim.network import Network

#: Serialized bytes per view entry in a gossip digest.
WIRE_SIZE_PER_ENTRY = 32

#: Peers each participant pushes its digest to per round.
FANOUT = 2


class GossipAgent:
    """The process side of one participant's membership.

    Owns a dedicated ``gossip:<id>`` network endpoint (so gossip traffic
    never competes with a node's request inbox or perturbs its hotspot
    queue-depth signal) and two simulation processes:

    * a receive loop merging incoming digests, and
    * a round loop on a **daemon** timeout: advance our heartbeat, age
      peers against the local clock, and push our digest to ``fanout``
      peers chosen by a dedicated deterministic RNG.

    Daemon timeouts keep gossip running during queries without keeping
    the schedule alive once real work drains.

    The incarnation survives a crash on this object — the stand-in for
    an epoch counter persisted to the node's disk.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        membership: Membership,
        config: GossipConfig,
        cost: CostModel,
        agent_index: int,
        seed: int,
    ):
        self.sim = sim
        self.network = network
        self.membership = membership
        self.config = config
        self.cost = cost
        self.endpoint = f"gossip:{membership.owner_id}"
        self.inbox = network.register(self.endpoint)
        self.rng = np.random.default_rng([seed, 104_729, agent_index])
        self._peers = [
            p for p in membership.participants if p != membership.owner_id
        ]
        self._down = False
        self._epoch = 0
        #: Telemetry: rounds run, digests merged.
        self.rounds = 0
        self.merges = 0

    def start(self) -> None:
        self.sim.process(self._receive_loop())
        self.sim.process(self._round_loop())

    # -- crash / rejoin (driven by the fault injector) ---------------------

    def crash(self) -> None:
        """Node went down: persist the epoch, forget the view."""
        record = self.membership._records.get(self.membership.owner_id)
        if record is not None:
            self._epoch = max(self._epoch, record.incarnation)
        self._down = True
        self.membership.reset(self.sim.now)

    def rejoin(self) -> None:
        """Node restarted: come back under a strictly newer incarnation."""
        self._epoch += 1
        self._down = False
        self.membership.rejoin(self._epoch, self.sim.now)

    # -- processes ---------------------------------------------------------

    def _round_loop(self):
        interval = self.config.interval
        while True:
            yield self.sim.timeout(interval, daemon=True)
            if self._down:
                continue
            now = self.sim.now
            self.membership.heartbeat(now)
            self.membership.age(now)
            self._push()
            self.rounds += 1

    def _push(self) -> None:
        if not self._peers:
            return
        fanout = min(FANOUT, len(self._peers))
        picks = self.rng.choice(len(self._peers), size=fanout, replace=False)
        digest = self.membership.digest()
        size = len(digest) * WIRE_SIZE_PER_ENTRY
        for index in sorted(int(i) for i in picks):
            self.network.send(
                self.endpoint,
                f"gossip:{self._peers[index]}",
                "gossip",
                digest,
                size=size,
            )

    def _receive_loop(self):
        while True:
            message = yield self.inbox.get()
            if self._down:
                continue
            self.membership.merge(message.payload, self.sim.now)
            self.merges += 1


def view_divergence(views: list[Membership]) -> int:
    """Pairwise liveness disagreement across views (a convergence gauge).

    For each storage node, counts the pairs of views that disagree on
    whether it is dead: ``sum(dead_count * alive_count)`` per column.
    0 means every view agrees (converged).
    """
    if not views:
        return 0
    total = 0
    for node_id in views[0].base.node_ids:
        dead = sum(1 for v in views if not v.is_live(node_id))
        total += dead * (len(views) - dead)
    return total


def suspect_count(views: list[Membership]) -> int:
    """Total SUSPECT entries across views (failure-detector churn gauge)."""
    return sum(len(v.suspect_nodes()) for v in views)
