"""Fault injection and failure recovery for the simulated STASH cluster.

The paper assumes a healthy Galileo DHT; production clusters do not get
that luxury.  This package adds a deterministic failure model on top of
the discrete-event simulator:

* :mod:`repro.faults.schedule` — declarative fault schedules (crash,
  restart, link drop/delay, disk slowdown) validated up front;
* :mod:`repro.faults.membership` — the one liveness view type
  (versioned records, SWIM-style alive/suspect/dead merge and aging)
  with DHT ring repair via ``Partitioner.without_nodes`` when a node is
  declared dead; shared by the whole cluster it is the zero-hop view;
* :mod:`repro.faults.gossip` — the per-participant wiring: one view
  each plus the agents running periodic push-gossip rounds (enabled
  via ``GossipConfig``);
* :mod:`repro.faults.overload` — per-node admission control (load
  shedding) and a circuit breaker for sustained overload;
* :mod:`repro.faults.injector` — the process that drives a schedule
  against a running system;
* :mod:`repro.faults.retry` — ``Participant``, the client's and every
  node's base: one incident call and one timeout/backoff/give-up loop.

Degraded (partial) answers live on the nodes themselves
(:mod:`repro.core.node`); ``RPC_FAILED`` is the sentinel a fault-aware
RPC returns once its target is hopeless.

With an empty schedule and ``FaultConfig.enabled`` false the entire
layer is inert: no extra simulation events are created, so existing
experiments are bit-identical to runs without this package.
"""

from repro.faults.gossip import GossipAgent
from repro.faults.injector import FaultInjector
from repro.faults.membership import (
    RPC_FAILED,
    RPC_SHED,
    Membership,
    PeerState,
    rpc_ok,
)
from repro.faults.overload import OverloadGuard
from repro.faults.schedule import FaultEvent, FaultSchedule

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "GossipAgent",
    "Membership",
    "OverloadGuard",
    "PeerState",
    "RPC_FAILED",
    "RPC_SHED",
    "rpc_ok",
]
