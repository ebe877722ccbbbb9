"""A simulator that explores schedules instead of running one.

The production :class:`~repro.sim.engine.Simulator` orders events by
``(time, seq)``, so every run of a workload is one interleaving: events
due at the same instant fire in the order they were scheduled.  A real
cluster gives no such promise — its messages race, and its timings
jitter.  :class:`ExploringSimulator` is the opt-in engine that lets a
conformance row check the schedules the canonical one never visits:

* events due at the same instant fire in the order of a seeded random
  key, not of ``seq`` — any order consistent with causality, since an
  event enters the heap only after the event that scheduled it fired;
* every positive, non-daemon delay (a link, a disk read, a CPU charge,
  a timer) grows by a seeded amount in ``[0, EXPLORE_JITTER)``, so
  events that are merely *close* in time can swap too.  Zero delays
  stay zero: their order is the first bullet's business.

A seed replays its schedule exactly.  The engine is off the production
path: it enters only through ``DistributedSystem(..., sim=...)``, from
the conformance rows whose ``simulator`` column says ``"explore"``.
"""

from __future__ import annotations

import heapq
import random

from repro.sim.engine import Event, Simulator

#: The jitter bound (simulated seconds): five link latencies, a quarter
#: of a disk seek.
EXPLORE_JITTER = 1.0e-3


class ExploringSimulator(Simulator):
    """A :class:`Simulator` whose ties and delays come from a seed."""

    def __init__(self, seed: int):
        super().__init__()
        self._rng = random.Random(seed)

    def _schedule(self, event: Event, delay: float, daemon: bool = False) -> None:
        draw = self._rng.random
        if delay > 0.0 and not daemon:
            delay += draw() * EXPLORE_JITTER
        # The key replaces seq; seq stays as its tie-break, so two equal
        # draws never compare events.
        heapq.heappush(
            self._heap, (self.now + delay, (draw(), self._sequence), event, daemon)
        )
        self._sequence += 1
        if not daemon:
            self._live += 1
