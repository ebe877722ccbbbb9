"""Per-node disk model: seek + streaming throughput with channel contention.

Reads of storage blocks are the dominant cost the STASH cache removes
(paper RQ-1); each node owns one :class:`Disk` whose read time is
``seek + bytes * data_scale / bandwidth``, serialized over a bounded
number of channels so concurrent cold queries contend realistically.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.config import CostModel
from repro.obs.tracer import Span, Tracer
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource


class Disk:
    """One node's disk."""

    def __init__(
        self,
        sim: Simulator,
        cost: CostModel,
        node_id: str,
        channels: int = 2,
        tracer: Tracer | None = None,
    ):
        self.sim = sim
        self.cost = cost
        self.node_id = node_id
        self.tracer = tracer
        self._channel = Resource(sim, channels, name=f"disk:{node_id}")
        #: Fault-injection multiplier on read time (1.0 = healthy).
        self.slow_factor = 1.0
        #: Totals for reporting.
        self.reads = 0
        self.bytes_read = 0

    def read(
        self, nbytes: int, parent: Span | None = None
    ) -> Generator[Event, Any, int]:
        """Acquire a channel, charge the read, release; returns ``nbytes``.

        A generator: the caller runs it inside its own process with
        ``yield from``, or as a process of its own where it needs an event.
        """
        queued_at = self.sim.now
        yield self._channel.acquire()
        try:
            self.reads += 1
            self.bytes_read += nbytes
            dt = self.cost.disk_read_time(nbytes)
            if self.slow_factor != 1.0:
                dt *= self.slow_factor
            if self.tracer is not None and self.tracer.enabled:
                now = self.sim.now
                if now > queued_at:
                    self.tracer.record(
                        "disk:wait",
                        "queueing",
                        queued_at,
                        now,
                        parent=parent,
                        node=self.node_id,
                    )
                self.tracer.record(
                    "disk:read",
                    "disk",
                    now,
                    now + dt,
                    parent=parent,
                    node=self.node_id,
                    attrs={"bytes": nbytes},
                )
            yield self.sim.timeout(dt)
        finally:
            self._channel.release()
        return nbytes

    def utilization(self) -> float:
        return self._channel.utilization()
