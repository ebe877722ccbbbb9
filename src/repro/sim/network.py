"""Simulated cluster network: point-to-point messages and RPC.

Every registered node owns an inbox :class:`~repro.sim.resources.Store`.
``send`` delivers a message after latency + size/bandwidth; ``request``
layers a reply event on top so server code can ``respond`` and the caller
sees a round trip with both directions paying network cost.  The socket
fabric subclasses :class:`Network` and replaces only the delivery hooks.

Message payloads are passed by reference (the simulation runs in one
address space); the *cost* of the transfer is what the byte size models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.config import CostModel
from repro.errors import NetworkError
from repro.obs.recorder import FlightRecorder
from repro.obs.tracer import Span, Tracer
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Store


@dataclass
class Message:
    """One network message."""

    sender: str
    recipient: str
    kind: str
    payload: Any
    size: int = 0
    msg_id: int = field(default=-1)
    #: Reply event (present on RPC requests only).
    reply_to: "Event | None" = field(default=None, repr=False)
    #: Simulated enqueue time at the recipient.
    delivered_at: float = field(default=-1.0)
    #: Trace context: the span receiver-side work should parent onto
    #: (the rpc span for requests; rebound to the handler span at
    #: dispatch).  None whenever tracing is off.
    span: "Span | None" = field(default=None, repr=False, compare=False)


class Network:
    """The cluster fabric: endpoints, accounting, fault rules and RPC.

    Everything up to "this message survived the fault rules" is written
    here once; getting it to the recipient is the two delivery hooks at
    the bottom.  This class delivers in simulated time from the cost
    model; :class:`repro.transport.asyncio_net.AsyncioNetwork` overrides
    the hooks to deliver over sockets.
    """

    def __init__(
        self,
        sim: Simulator,
        cost: CostModel | None,
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
    ):
        self.sim = sim
        self.cost = cost
        self.tracer = tracer if tracer is not None else Tracer(sim, enabled=False)
        #: The query flight recorder; like the tracer it rides on the
        #: network object because that is the one handle every node
        #: already holds.  Disabled by default.
        self.recorder = (
            recorder if recorder is not None else FlightRecorder(sim, enabled=False)
        )
        self._inboxes: dict[str, Store] = {}
        self._ids = itertools.count()
        #: Totals for reporting.
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Fault state: crashed nodes and active link rules.  While both
        #: are empty every transport path is byte-identical to the
        #: fault-free fabric (no extra events, no extra cost).
        self._down: set[str] = set()
        #: (start, until, src|None, dst|None) — drop matching messages.
        self._drop_rules: list[tuple[float, float, str | None, str | None]] = []
        #: (start, until, src|None, dst|None, extra) — add one-way latency.
        self._delay_rules: list[
            tuple[float, float, str | None, str | None, float]
        ] = []
        self.messages_dropped = 0

    # -- endpoints ---------------------------------------------------------

    def register(self, node_id: str) -> Store:
        """Create (or return) the inbox for a node."""
        if node_id not in self._inboxes:
            self._inboxes[node_id] = Store(self.sim, name=f"inbox:{node_id}")
        return self._inboxes[node_id]

    def inbox(self, node_id: str) -> Store:
        try:
            return self._inboxes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id!r}") from None

    @property
    def node_ids(self) -> list[str]:
        return sorted(self._inboxes)

    def queue_depth(self, node_id: str) -> int:
        """Pending messages at a node — the hotspot-detection signal."""
        return len(self.inbox(node_id))

    def transport_stats(self) -> dict[str, int]:
        """The fabric's counters, as the node ``stats`` RPC reports them."""
        return {
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "messages_dropped": self.messages_dropped,
        }

    # -- fault hooks -------------------------------------------------------

    def set_down(self, node_id: str, down: bool = True) -> None:
        """Mark a node crashed: messages to/from it are silently dropped."""
        if node_id not in self.node_ids:
            raise NetworkError(f"unknown node {node_id!r}")
        if down:
            self._down.add(node_id)
        else:
            self._down.discard(node_id)

    def is_down(self, node_id: str) -> bool:
        return node_id in self._down

    def add_drop_rule(
        self,
        start: float,
        until: float,
        src: str | None = None,
        dst: str | None = None,
    ) -> None:
        """Drop messages matching src -> dst during [start, until)."""
        self._drop_rules.append((start, until, src, dst))

    def add_delay_rule(
        self,
        start: float,
        until: float,
        extra: float,
        src: str | None = None,
        dst: str | None = None,
    ) -> None:
        """Add ``extra`` one-way latency to matching messages."""
        self._delay_rules.append((start, until, src, dst, extra))

    @staticmethod
    def _fault_id(endpoint: str) -> str:
        """Endpoint id as seen by fault rules.

        Auxiliary endpoints (``gossip:<node>``) share their owner's fate:
        crashing or partitioning a node silences its gossip traffic too.
        """
        if endpoint.startswith("gossip:"):
            return endpoint.partition(":")[2]
        return endpoint

    def _should_drop(self, sender: str, recipient: str) -> bool:
        sender = self._fault_id(sender)
        recipient = self._fault_id(recipient)
        if sender in self._down or recipient in self._down:
            return True
        now = self.sim.now
        for start, until, src, dst in self._drop_rules:
            if (
                start <= now < until
                and (src is None or src == sender)
                and (dst is None or dst == recipient)
            ):
                return True
        return False

    def _extra_delay(self, sender: str, recipient: str) -> float:
        extra = 0.0
        now = self.sim.now
        sender = self._fault_id(sender)
        recipient = self._fault_id(recipient)
        for start, until, src, dst, amount in self._delay_rules:
            if (
                start <= now < until
                and (src is None or src == sender)
                and (dst is None or dst == recipient)
            ):
                extra += amount
        return extra

    # -- transport ---------------------------------------------------------

    def send(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any,
        size: int = 0,
        reply_to: Event | None = None,
        parent: Span | None = None,
    ) -> Message:
        """Fire-and-forget: account, apply the fault rules, then deliver."""
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            payload=payload,
            size=size,
            msg_id=next(self._ids),
            reply_to=reply_to,
        )
        self.messages_sent += 1
        self.bytes_sent += size
        if (self._down or self._drop_rules) and self._should_drop(
            sender, recipient
        ):
            # Lost on the wire: no delivery event, no reply.  Callers
            # recover via timeout/retry (see StorageNode.request_resilient).
            self.messages_dropped += 1
            return message
        if self.tracer.enabled:
            message.span = parent
        extra = self._extra_delay(sender, recipient) if self._delay_rules else 0.0
        self._deliver(message, extra, parent)
        return message

    def request(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any,
        size: int = 0,
        parent: Span | None = None,
    ) -> Event:
        """RPC: send a message carrying a reply event; returns that event."""
        reply = Event(self.sim)
        rpc = self.tracer.begin(
            f"rpc:{kind}",
            "network",
            parent=parent,
            node=sender,
            attrs={"to": recipient},
        )
        self.send(
            sender,
            recipient,
            kind,
            payload,
            size=size,
            reply_to=reply,
            parent=rpc if rpc is not None else parent,
        )
        if rpc is not None:
            reply.add_callback(lambda _ev: self.tracer.end(rpc))
        return reply

    def respond(self, message: Message, value: Any, size: int = 0) -> None:
        """Server-side completion of an RPC; reply pays the return link."""
        if message.reply_to is None:
            raise NetworkError(f"message {message.msg_id} expects no reply")
        self.messages_sent += 1
        self.bytes_sent += size
        self._reply(message, value, size, None)

    def respond_error(self, message: Message, exception: BaseException) -> None:
        """Fail the caller's reply event after the return-link latency."""
        if message.reply_to is None:
            raise NetworkError(f"message {message.msg_id} expects no reply")
        self._reply(message, None, 0, exception)

    def _reply(
        self,
        message: Message,
        value: Any,
        size: int,
        exception: BaseException | None,
    ) -> None:
        if (self._down or self._drop_rules) and self._should_drop(
            message.recipient, message.sender
        ):
            # Responder (or caller) is down, or the return link is cut:
            # the reply vanishes and the caller's event never fires.
            self.messages_dropped += 1
            return
        self._deliver_reply(message, value, size, exception)

    # -- delivery hooks (the only part a fabric implements) ------------------

    def _deliver(
        self, message: Message, extra_delay: float, parent: Span | None
    ) -> None:
        """Enqueue at the recipient after the cost-model link time."""
        inbox = self.inbox(message.recipient)
        delay = extra_delay
        if message.sender != message.recipient:
            delay += self.cost.network_time(message.size)
        if self.tracer.enabled and delay > 0.0:
            self.tracer.record(
                f"net:{message.kind}",
                "network",
                self.sim.now,
                self.sim.now + delay,
                parent=parent,
                node=message.sender,
                attrs={"to": message.recipient, "bytes": message.size},
            )

        def deliver(_event: Event) -> None:
            message.delivered_at = self.sim.now
            inbox.put(message)

        self.sim.timeout(delay).add_callback(deliver)

    def _deliver_reply(
        self,
        message: Message,
        value: Any,
        size: int,
        exception: BaseException | None,
    ) -> None:
        """Resolve the caller's reply event after the return-link time."""
        reply_event = message.reply_to
        delay = (
            0.0
            if message.sender == message.recipient
            else self.cost.network_time(size)
        )
        if exception is not None:
            self.sim.timeout(delay).add_callback(
                lambda _ev: reply_event.fail(exception)
            )
            return
        if self._delay_rules:
            delay += self._extra_delay(message.recipient, message.sender)
        if self.tracer.enabled and delay > 0.0:
            self.tracer.record(
                f"net:reply:{message.kind}",
                "network",
                self.sim.now,
                self.sim.now + delay,
                parent=message.span,
                node=message.recipient,
                attrs={"to": message.sender, "bytes": size},
            )
        self.sim.timeout(delay).add_callback(lambda _ev: reply_event.succeed(value))
