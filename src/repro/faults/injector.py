"""Drives a :class:`~repro.faults.schedule.FaultSchedule` against a system.

The injector translates schedule entries into simulator state changes:

* ``crash``    — take the node off the network (messages to/from it are
  dropped), wipe its volatile state (queues, in-memory caches), and
  strand its in-flight work.  Peers discover the death through RPC
  timeouts (or gossip silence) and repair the ring in their view.
* ``restart``  — put the node back on the network with a cold cache,
  spin up fresh worker pools, and revive it in the membership so the
  ring routes to it again.
* ``slow_disk`` — multiply the node's disk read time over a window.
* ``drop_link`` / ``delay_link`` — installed as network link rules up
  front (they are pure time-window predicates, costing no simulation
  events at all).

Crash/restart/slow-disk transitions are scheduled as bare timeout
callbacks — no processes — so an installed schedule adds exactly one
simulation event per transition.  With an empty schedule ``install`` is
a no-op and the simulation is untouched.
"""

from __future__ import annotations

from repro.errors import FaultError
from repro.faults.schedule import FaultEvent, FaultSchedule


class FaultInjector:
    """Applies a fault schedule to a running DistributedSystem."""

    def __init__(self, system, schedule: FaultSchedule):
        self.system = system
        self.schedule = schedule
        self._installed = False
        #: Chronological (sim_time, description) log of applied faults.
        self.applied: list[tuple[float, str]] = []

    def install(self) -> None:
        """Schedule every fault; idempotent, call after nodes started."""
        if self._installed:
            return
        self._installed = True
        network = self.system.network
        for event in self.schedule:
            self._check_target(event)
            if event.kind == "crash":
                self._at(event.at, lambda e=event: self._crash(e.node))
            elif event.kind == "restart":
                self._at(event.at, lambda e=event: self._restart(e.node))
            elif event.kind == "slow_disk":
                self._at(event.at, lambda e=event: self._slow_disk(e, e.factor))
                self._at(event.until, lambda e=event: self._slow_disk(e, 1.0))
            elif event.kind == "drop_link":
                network.add_drop_rule(event.at, event.until, event.src, event.dst)
            elif event.kind == "delay_link":
                network.add_delay_rule(
                    event.at, event.until, event.extra, event.src, event.dst
                )

    # -- plumbing ----------------------------------------------------------

    def _check_target(self, event: FaultEvent) -> None:
        for node in (event.node, event.src, event.dst):
            if node is not None and node not in self.system.nodes:
                raise FaultError(
                    f"fault schedule names unknown node {node!r} "
                    f"(cluster has {sorted(self.system.nodes)})"
                )

    def _at(self, when: float, action) -> None:
        sim = self.system.sim
        delay = when - sim.now
        if delay < 0:
            raise FaultError(
                f"fault time {when} is before the current sim time {sim.now}"
            )
        sim.timeout(delay).add_callback(lambda _event: action())

    def _log(self, description: str) -> None:
        self.applied.append((self.system.sim.now, description))
        self.system.fault_counters.increment("faults_applied")

    # -- transitions -------------------------------------------------------

    def _crash(self, node_id: str) -> None:
        self.system.network.set_down(node_id, True)
        self.system.nodes[node_id].crash()
        agent = self.system.gossip_agents.get(node_id)
        if agent is not None:
            # The node's heartbeats stop and its view is wiped; peers
            # discover the death via gossip aging (or RPC timeouts).
            agent.crash()
        self.system.fault_counters.increment("node_crashes")
        self._log(f"crash {node_id}")

    def _restart(self, node_id: str) -> None:
        node = self.system.nodes[node_id]
        node.restart()
        self.system.network.set_down(node_id, False)
        # The node knows it is back.  Whoever shares its view (everyone,
        # in the zero-hop wiring) sees that at once and the original map
        # is restored for its keys; views of their own learn it from the
        # rejoin below, and survivors hand the node's cells back.
        self.system.memberships[node_id].revive(node_id)
        agent = self.system.gossip_agents.get(node_id)
        if agent is not None:
            agent.rejoin()
        self.system.fault_counters.increment("node_restarts")
        self._log(f"restart {node_id}")

    def _slow_disk(self, event: FaultEvent, factor: float) -> None:
        self.system.nodes[event.node].disk.slow_factor = factor
        self._log(f"slow_disk {event.node} x{factor}")
