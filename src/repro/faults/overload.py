"""Per-node overload protection: admission control + circuit breaker.

A node under sustained load protects itself in two stages:

1. **Load shedding** at admission.  The dispatcher consults
   :meth:`OverloadGuard.shed_class` before enqueueing work.  Priority-0
   background work (``populate``, ``replicate``, ``distress``) is shed
   once the pending-request depth exceeds ``queue_limit``; priority-1
   cache work (``fetch_cells``, ``scan``) is shed above twice that.
   Evaluate requests are never shed — the coordinator owes the client an
   answer, degraded if need be.  Shed RPCs are answered immediately with
   the ``RPC_SHED`` sentinel (an explicit fast rejection, not a timeout,
   and never grounds for declaring the peer dead).

2. **Circuit breaking**.  :data:`BREAKER_SHEDS` sheds within a sliding
   :data:`BREAKER_WINDOW` trip the breaker open for
   :data:`BREAKER_COOLDOWN` seconds.  While open, a coordinator skips
   the expensive disk-resolution path for cache misses and returns an
   explicitly degraded (completeness < 1) answer — converting overload
   into an honest partial result instead of a cascade of timeouts.
   Degraded answers are never cached, so the breaker can only omit
   cells, never fabricate them.
"""

from __future__ import annotations

from collections import deque

from repro.config import OverloadConfig

#: Sheds within :data:`BREAKER_WINDOW` that trip the breaker open.
BREAKER_SHEDS = 8
#: Sliding window for counting sheds (simulated seconds).
BREAKER_WINDOW = 1.0
#: How long the breaker stays open once tripped (simulated seconds).
BREAKER_COOLDOWN = 2.0

#: Message kinds that may be shed, mapped to shed priority (lower sheds
#: first).  Anything absent — evaluate traffic, gossip, repair control —
#: is never shed.
SHED_PRIORITY: dict[str, int] = {
    "populate": 0,
    "replicate": 0,
    "distress": 0,
    "fetch_cells": 1,
    "scan": 1,
}


class OverloadGuard:
    """Admission decisions and breaker state for one node."""

    def __init__(self, config: OverloadConfig):
        self.config = config
        self._shed_times: deque[float] = deque()
        self._open_until = float("-inf")
        #: Telemetry.
        self.shed_total = 0
        self.breaker_opens = 0

    def shed_class(self, kind: str, depth: int) -> bool:
        """Should a ``kind`` message be shed at pending depth ``depth``?"""
        priority = SHED_PRIORITY.get(kind)
        if priority is None:
            return False
        limit = self.config.queue_limit * (priority + 1)
        return depth > limit

    def record_shed(self, now: float) -> None:
        """Account one shed message; may trip the breaker."""
        self.shed_total += 1
        window_start = now - BREAKER_WINDOW
        times = self._shed_times
        times.append(now)
        while times and times[0] < window_start:
            times.popleft()
        if len(times) >= BREAKER_SHEDS and now >= self._open_until:
            self._open_until = now + BREAKER_COOLDOWN
            self.breaker_opens += 1
            times.clear()

    def breaker_open(self, now: float) -> bool:
        return now < self._open_until
