"""What the client and every node share: one incident call, one retry loop.

Every RPC incident (timeout, retry, fail-fast, declared death, shed,
redirect, give-up) is counted, recorded and traced by
:meth:`Participant.incident`; the attempt loop under faults is
:meth:`Participant._retrying`.  Each role writes its own incidents in
the loop's hooks, so names, counters and spans stay per role.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

import numpy as np

from repro.config import StashConfig
from repro.dht.partitioner import _stable_hash
from repro.faults.membership import RPC_FAILED, Membership
from repro.obs.recorder import FlightRecorder, QueryContext
from repro.obs.registry import Counters
from repro.obs.tracer import Span, Tracer
from repro.sim.engine import Event

#: An incident's span: ``(label, category, start, end, parent, attrs)``.
IncidentSpan = tuple[str, str, float, float, "Span | None", "dict[str, Any]"]


class Participant:
    """An RPC endpoint — the query client or a storage node.

    A role sets ``counters`` and implements the retry hooks
    ``_timed_out(kind, target, ctx, attempt, span)``,
    ``_retry(kind, target, ctx, attempt, backoff, span)`` and
    ``_gave_up(kind, target, ctx, parent)``.
    """

    counters: Counters

    def __init__(
        self, sim: Any, network: Any, node_id: str, membership: Membership, config: StashConfig
    ):
        self.sim = sim
        self.network = network
        self.node_id = node_id
        #: The liveness view this participant routes through.
        self.membership = membership
        self.config = config
        self.tracer: Tracer = network.tracer
        self.recorder: FlightRecorder = network.recorder
        #: Dedicated stream for retry-backoff jitter; consumed only when
        #: ``faults.backoff_jitter`` > 0, so jitter-free runs draw nothing.
        self._backoff_rng = np.random.default_rng(
            [config.cluster.seed, 65_537, _stable_hash(node_id) % 2**31]
        )
        self.inbox = network.register(node_id)

    def incident(
        self, name: str, ctx: QueryContext | None, detail: dict[str, Any] | None = None, *,
        node: str | None = None, counter: str | None = None, span: IncidentSpan | None = None,
    ) -> None:
        """Count ``counter``, record ``name`` at ``node`` (default: here)
        under a live ``ctx``, and trace ``span`` here when tracing."""
        if counter is not None:
            self.counters.increment(counter)
        self.recorder.record_event(name, ctx, node=node or self.node_id, detail=detail)
        if span is not None and self.tracer.enabled:
            *interval, parent, attrs = span
            self.tracer.record(*interval, parent=parent, node=self.node_id, attrs=attrs)

    def _declare_dead(self, target: str) -> bool:
        """Declare ``target`` dead here, unless it is the last live node."""
        if self.membership.is_live(target) and len(self.membership.live_nodes()) > 1:
            self.membership.declare_dead(target)
            return True
        return False

    def _retrying(
        self, kind: str, send: Callable[[str, Any], Event], resolve: Callable[[], str | None],
        timeout: float, ctx: QueryContext | None, parent: Span | None, bump: bool = False,
    ) -> Generator[Event, Any, tuple[Any, QueryContext | None, str | None]]:
        """``send(target, ctx)`` until a reply beats ``timeout``, backing off between.

        ``resolve()`` names each attempt's target, or ``None`` when it is
        hopeless (fail fast); ``bump`` stamps the attempt number on
        ``ctx``.  Returns ``(reply, ctx, target)`` of the last attempt,
        the reply :data:`RPC_FAILED` when none answered.
        """
        faults = self.config.faults
        attempts = faults.max_retries + 1
        for attempt in range(attempts):
            target = resolve()
            if target is None:
                return RPC_FAILED, ctx, target
            if bump and ctx is not None:
                ctx = ctx.with_(attempt=attempt)
            started = self.sim.now
            index, value = yield self.sim.any_of([send(target, ctx), self.sim.timeout(timeout)])
            if index == 0:
                return value, ctx, target
            now = self.sim.now
            attrs = {"to": target, "attempt": attempt}
            span = (f"timeout:{kind}", "network", started, now, parent, attrs)
            self._timed_out(kind, target, ctx, attempt, span)
            if attempt + 1 < attempts:
                backoff = faults.backoff_delay(attempt, self._backoff_rng)
                attrs = {"to": target, "attempt": attempt + 1}
                span = (f"retry:{kind}", "queueing", now, now + backoff, parent, attrs)
                self._retry(kind, target, ctx, attempt + 1, backoff, span)
                yield self.sim.timeout(backoff)
        self._gave_up(kind, target, ctx, parent)
        return RPC_FAILED, ctx, target
