"""Deterministic discrete-event simulation substrate.

The paper evaluated STASH on a 120-node physical cluster; this package
replaces that testbed with a SimPy-style discrete-event core (events,
generator-coroutine processes, simulated clocks), plus models for the
pieces of hardware whose costs drive the results: the network
(latency + bandwidth), node-local disks (seek + streaming throughput),
and bounded worker pools fed by per-node request queues.

Everything is deterministic given a seed: event ordering breaks ties by
schedule sequence number, so repeated runs produce identical traces.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.network import Message, Network
from repro.sim.disk import Disk

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "Resource",
    "Store",
    "Message",
    "Network",
    "Disk",
]
