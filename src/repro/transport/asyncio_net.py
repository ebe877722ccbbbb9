"""Real-socket transport: the asyncio side of the engine/network seam.

Two pieces, mirroring the sim pair:

* :class:`AsyncioEngine` — a :class:`~repro.sim.engine.Simulator`
  duck-type backed by the asyncio event loop.  It reuses the sim's
  :class:`Event`/:class:`Timeout`/:class:`Process` classes verbatim:
  those classes only ever call ``sim._schedule`` and read ``sim.now``.
  An event that is due now joins one FIFO queue drained by a single
  loop callback, so a burst of ``succeed`` -> resume -> ``put`` runs to
  completion in one loop turn; only a real wall delay costs a timer.
* :class:`AsyncioNetwork` — the :class:`~repro.sim.network.Network`
  whose two delivery hooks route local endpoints through in-process
  inboxes and remote endpoints over TCP: one protocol object per
  connection (a lazily dialed link per peer, one per accepted socket),
  length-prefixed codec frames on the wire.  A received chunk is
  decoded, dispatched and run to completion inside its own
  ``data_received``; a frame is written straight to its transport.

RPC failure semantics map onto the existing machinery: a dropped
connection resolves every RPC in flight on it to :data:`RPC_FAILED`
(the same sentinel ``request_resilient`` produces after exhausted
retries), and a silent peer is covered by the caller's own
timeout/retry loop, which runs on real timers here.
"""

from __future__ import annotations

import asyncio
import logging
import math
import time
from collections import deque
from typing import Any, Callable, Generator, Iterable

from repro.errors import NetworkError
from repro.faults.membership import RPC_FAILED
from repro.obs.recorder import FlightRecorder
from repro.obs.tracer import Span, Tracer
from repro.sim.engine import AllOf, AnyOf, Event, Process, Timeout
from repro.sim.network import Message, Network
from repro.transport.codec import CodecError
from repro.transport.framing import FrameDecoder, FramingError, encode_frame

log = logging.getLogger(__name__)

#: Outbound connect retry schedule: the serve launcher distributes the
#: address map only after every server is bound, so retries only cover
#: slow accept loops, not absent peers.
_CONNECT_ATTEMPTS = 40
_CONNECT_RETRY_DELAY = 0.05

#: A wall delay below the loop clock's resolution is "now" — the rule
#: asyncio's own ``_run_once`` applies to its timer heap.
_CLOCK_RESOLUTION = time.get_clock_info("monotonic").resolution
#: Events fired per drain before the loop gets a turn for I/O, so a
#: process that reschedules itself forever cannot starve the sockets.
_DRAIN_BATCH = 512


class AsyncioEngine:
    """Simulator-compatible scheduler on the asyncio event loop.

    ``time_scale`` maps simulated seconds (the unit every config
    duration is expressed in) to wall seconds: a ``timeout(d)`` fires
    after ``d * time_scale`` wall seconds and ``now`` advances in
    simulated-second units, so thresholds like ``rpc_timeout`` keep
    their configured meaning on either backend.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop | None = None,
        time_scale: float = 1.0,
    ):
        if not 0 < time_scale < math.inf:
            raise NetworkError(f"time_scale must be finite and positive, got {time_scale}")
        if loop is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                loop = asyncio.get_event_loop()
        self._loop = loop
        self.time_scale = time_scale
        self._t0 = self._loop.time()
        #: Events due now, in schedule order (the sim's ``(time, seq)``
        #: tie-break for same-instant events).
        self._due: deque[Event] = deque()
        #: True while a drain is running or already on the loop's ready
        #: queue: scheduling then needs no wake-up of its own.
        self._drain_pending = False
        self._closed = False
        #: Failures nobody waited on (the sim raises these from ``step``;
        #: a live loop can only record and report them).
        self.unhandled: list[BaseException] = []
        self.tick_hooks: list[Callable[[float], None]] = []
        #: Wall-side work counts: events fired, loop timers armed.
        self.events_fired = 0
        self.timers_armed = 0

    # -- Simulator surface ------------------------------------------------

    @property
    def now(self) -> float:
        """Elapsed wall time since engine start, in simulated seconds."""
        return (self._loop.time() - self._t0) / self.time_scale

    def event(self) -> Event:
        return Event(self)

    def timeout(
        self, delay: float, value: Any = None, daemon: bool = False
    ) -> Timeout:
        return Timeout(self, delay, value, daemon=daemon)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def _schedule(self, event: Event, delay: float, daemon: bool = False) -> None:
        if self._closed:
            return  # shutting down: nothing may resurrect work
        wall = delay * self.time_scale
        if wall < _CLOCK_RESOLUTION:
            self._due.append(event)
            if not self._drain_pending:
                self._drain_pending = True
                self._loop.call_soon(self.run_due)
        else:
            self.timers_armed += 1
            self._loop.call_later(wall, self._fire, event)

    def run_due(self, source: Callable[..., None] | None = None, *args: Any) -> None:
        """One engine turn: fire what is due, in schedule order.

        An I/O callback passes itself as ``source`` so that whatever it
        makes due runs to completion inside the same loop callback.  The
        turn is bounded: past ``_DRAIN_BATCH`` events the rest waits for
        the next loop turn, behind any socket that became ready.
        """
        # An I/O turn that finds a drain already on the loop's ready queue
        # leaves the pending state (and any leftovers) to that drain.
        queued_behind = source is not None and self._drain_pending
        self._drain_pending = True
        try:
            if source is not None:
                source(*args)
            due = self._due
            budget = _DRAIN_BATCH
            while due and budget:
                budget -= 1
                self._fire(due.popleft())
        finally:
            if not queued_behind:
                self._drain_pending = bool(self._due)
                if self._due:
                    self._loop.call_soon(self.run_due)

    def _fire(self, event: Event) -> None:
        """The asyncio analogue of ``Simulator.step`` for one event."""
        if self._closed:
            return  # a timer that outlived close()
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # already processed (defensive)
            return
        self.events_fired += 1
        if event._exception is not None and not callbacks:
            # The sim raises here; a live loop records and keeps serving.
            self.unhandled.append(event._exception)
            log.error("unawaited failure: %r", event._exception)
        for callback in callbacks:
            try:
                callback(event)
            except BaseException as exc:  # noqa: BLE001 - must not kill the loop
                self.unhandled.append(exc)
                log.exception("transport callback failed")
        if self.tick_hooks:
            for hook in self.tick_hooks:
                hook(self.now)

    def close(self) -> None:
        self._closed = True
        self._due.clear()

    # -- asyncio bridge ----------------------------------------------------

    def as_future(self, event: Event) -> "asyncio.Future[Any]":
        """An asyncio future resolving with the event's value/exception."""
        future: asyncio.Future[Any] = self._loop.create_future()

        def _resolve(fired: Event) -> None:
            if future.done():
                return
            if fired._exception is not None:
                future.set_exception(fired._exception)
            else:
                future.set_result(fired._value)

        event.add_callback(_resolve)
        return future


class _Connection(asyncio.Protocol):
    """One TCP connection, dialed (``peer_id`` set) or accepted.

    Frames sent while a dialed link is still connecting wait in its
    ordered ``backlog`` and are flushed by ``connection_made``.
    """

    def __init__(self, network: "AsyncioNetwork", peer_id: str | None = None):
        self.network = network
        self.peer_id = peer_id
        self.transport: asyncio.Transport | None = None
        self.backlog: list[bytes] = []
        self.decoder = FrameDecoder()
        #: Wire ids of the RPCs in flight on this (dialed) connection.
        self.sent_ids: set[str] = set()
        #: The dial-with-retries task of a dialed link (kept referenced).
        self.dial: asyncio.Task | None = None
        self.dead = False

    @property
    def peername(self) -> Any:
        return self.transport and self.transport.get_extra_info("peername")

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.network._connections.add(self)
        if self.dead:  # failed (or closed) while it was dialing
            transport.close()
            return
        for data in self.backlog:
            transport.write(data)  # type: ignore[attr-defined]
        self.backlog.clear()

    def data_received(self, data: bytes) -> None:
        self.network.sim.run_due(self.network._on_data, self, data)

    def eof_received(self) -> None:
        if self.decoder.pending_bytes:
            self.network._reject(self, "stream ended inside a frame")
        # Returning None lets the transport close itself.

    def connection_lost(self, exc: Exception | None) -> None:
        self.network._connection_lost(self)


class RemoteReply:
    """The reply obligation of an RPC that arrived over a socket.

    Duck-types the slice of :class:`Event` a request's ``reply_to`` is
    used through — ``triggered``, ``succeed``, ``fail`` — while the
    actual resolution writes a reply frame back on the originating
    connection.  Forwarding it (the coordinator's evaluate ->
    evaluate_guest reroute) re-registers it as the pending entry of the
    follow-up RPC, so the helper's answer is relayed straight back to
    the original caller.
    """

    __slots__ = ("connection", "msg_id", "triggered")

    def __init__(self, connection: _Connection, msg_id: str):
        self.connection = connection
        self.msg_id = msg_id
        self.triggered = False

    def succeed(self, value: Any) -> None:
        self.triggered = True
        self.connection.network._send_frame(
            self.connection, {"t": "reply", "id": self.msg_id, "value": value}
        )

    def fail(self, exception: BaseException) -> None:
        self.triggered = True
        self.connection.network._send_frame(
            self.connection, {"t": "err", "id": self.msg_id, "exc": exception}
        )


class AsyncioNetwork(Network):
    """The fabric over TCP for one peer process.

    A *peer* is one OS process (a storage node or the client driver); its
    *endpoints* are the inboxes it registers locally (``nodeX`` plus
    ``gossip:nodeX``).  Endpoint ids map to peers exactly as the fault
    rules map them (``_fault_id``): an auxiliary ``gossip:X`` endpoint
    lives on peer ``X``.

    Endpoints, message identity, accounting, fault rules, tracing and
    the RPC envelope are :class:`Network`'s; this class only delivers —
    to a local inbox directly, to a remote one as a frame.
    """

    def __init__(
        self,
        engine: AsyncioEngine,
        peer_id: str,
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
    ):
        # No cost model: link time is whatever the real wire takes.
        super().__init__(engine, None, tracer=tracer, recorder=recorder)
        self.peer_id = peer_id
        self._loop = engine._loop
        self._peers: dict[str, tuple[str, int]] = {}
        #: The live dialed link per peer.
        self._links: dict[str, _Connection] = {}
        #: Every connection with an open transport, dialed or accepted.
        self._connections: set[_Connection] = set()
        #: In-flight RPCs: wire msg id -> local Event | forwarded RemoteReply.
        self._pending: dict[str, "Event | RemoteReply"] = {}
        self._server: asyncio.base_events.Server | None = None
        #: Set by :meth:`close` while it waits for ``_connections`` to empty.
        self._all_lost: asyncio.Future[None] | None = None
        self._closed = False
        #: Wall-side work counts: frames and bytes over the sockets.
        self.frames_in = 0
        self.frames_out = 0
        self.wire_bytes_in = 0
        self.wire_bytes_out = 0

    # -- endpoints ---------------------------------------------------------

    @property
    def node_ids(self) -> list[str]:
        """Local endpoints plus every peer in the address map."""
        return sorted(set(self._inboxes) | set(self._peers))

    def queue_depth(self, node_id: str) -> int:
        """Pending messages at a *local* endpoint (0 for remote peers —
        their depth is their own hotspot signal, not observable here)."""
        store = self._inboxes.get(node_id)
        return len(store) if store is not None else 0

    def set_peers(self, addresses: dict[str, tuple[str, int]]) -> None:
        """Install the cluster address map (peer id -> (host, port))."""
        for peer_id, (host, port) in addresses.items():
            if peer_id != self.peer_id:
                self._peers[peer_id] = (host, port)

    def transport_stats(self) -> dict[str, int]:
        stats = super().transport_stats()
        stats.update(
            events_fired=self.sim.events_fired,
            timers_armed=self.sim.timers_armed,
            frames_in=self.frames_in,
            frames_out=self.frames_out,
            wire_bytes_in=self.wire_bytes_in,
            wire_bytes_out=self.wire_bytes_out,
        )
        return stats

    # -- inbound -----------------------------------------------------------

    async def start_server(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Listen for inbound peers; returns the bound (host, port)."""
        self._server = await self._loop.create_server(lambda: _Connection(self), host, port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def _on_data(self, connection: _Connection, data: bytes) -> None:
        """Every frame a chunk completes, dispatched in arrival order."""
        self.wire_bytes_in += len(data)
        try:
            frames = connection.decoder.feed(data)
        except (FramingError, CodecError) as exc:
            self._reject(connection, exc)
            return
        self.frames_in += len(frames)
        for frame in frames:
            try:
                self._dispatch_frame(frame, connection)
            except Exception:  # noqa: BLE001 - a bad frame must not stop serving
                log.exception("failed to dispatch frame %r", frame)

    def _reject(self, connection: _Connection, reason: object) -> None:
        """A stream that carries something that is not a frame costs its
        sender the connection (an inbound peer is dropped, a dialed link
        fails its in-flight RPCs) and this peer nothing."""
        log.warning(
            "peer %s: closing connection to %s: %s", self.peer_id, connection.peername, reason
        )
        self._fail_link(connection)

    def _dispatch_frame(self, frame: dict, connection: _Connection) -> None:
        kind = frame.get("t")
        if kind == "msg":
            recipient = frame["recipient"]
            store = self._inboxes.get(recipient)
            if store is None:
                log.warning(
                    "peer %s received message for unknown endpoint %r",
                    self.peer_id,
                    recipient,
                )
                return
            wire_id = frame.get("id")  # None: one-way, nobody awaits a reply
            reply_to = None if wire_id is None else RemoteReply(connection, wire_id)
            message = Message(
                sender=frame["sender"],
                recipient=recipient,
                kind=frame["kind"],
                payload=frame["payload"],
                size=frame.get("size", 0),
                msg_id=-1 if wire_id is None else wire_id,
                reply_to=reply_to,  # type: ignore[arg-type]
                delivered_at=self.sim.now,
            )
            store.put(message)
            return
        if kind in ("reply", "err"):
            # A reply comes back on the link its request went out on.
            connection.sent_ids.discard(frame["id"])
            pending = self._pending.pop(frame["id"], None)
            if pending is None or pending.triggered:
                # Late reply after a timeout/drop/close resolution: the
                # caller has already moved on (same as a late sim reply
                # racing a fired timeout).
                return
            # A forwarded RemoteReply relays the answer to the origin.
            if kind == "reply":
                pending.succeed(frame["value"])
            else:
                pending.fail(frame["exc"])
            return
        log.warning("unknown frame type %r", kind)

    # -- outbound ----------------------------------------------------------

    def _link_for(self, peer_id: str) -> _Connection:
        link = self._links.get(peer_id)
        if link is not None:
            return link
        try:
            host, port = self._peers[peer_id]
        except KeyError:
            raise NetworkError(f"peer {self.peer_id} has no address for {peer_id!r}") from None
        link = self._links[peer_id] = _Connection(self, peer_id)
        link.dial = self._loop.create_task(self._dial(link, host, port))
        return link

    async def _dial(self, link: _Connection, host: str, port: int) -> None:
        for attempt in range(_CONNECT_ATTEMPTS):
            if attempt:
                await asyncio.sleep(_CONNECT_RETRY_DELAY)
            try:
                await self._loop.create_connection(lambda: link, host, port)
                return
            except ConnectionError:
                continue
            except OSError:
                break
        self._fail_link(link)

    def _send_frame(self, connection: _Connection, frame: dict) -> None:
        """One frame, one ``transport.write`` (or the dialing link's backlog)."""
        transport = connection.transport
        if transport is not None and transport.is_closing():
            return
        data = encode_frame(frame)
        self.frames_out += 1
        self.wire_bytes_out += len(data)
        if transport is None:
            connection.backlog.append(data)
        else:
            transport.write(data)

    def _fail_link(self, connection: _Connection) -> None:
        """Connection gone: every RPC in flight on it becomes RPC_FAILED."""
        if connection.dead:
            return
        connection.dead = True
        if connection.transport is not None:
            connection.transport.close()
        if self._links.get(connection.peer_id) is connection:
            del self._links[connection.peer_id]
        for msg_id in sorted(connection.sent_ids):
            pending = self._pending.pop(msg_id, None)
            if pending is not None and not pending.triggered:
                # The sentinel, not an exception: exactly what the
                # retry/backoff machinery yields for a hopeless peer.
                pending.succeed(RPC_FAILED)

    def _connection_lost(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        self._fail_link(connection)
        if self._all_lost is not None and not self._connections:
            self._all_lost.set_result(None)
            self._all_lost = None

    # -- delivery hooks ----------------------------------------------------

    def _after(self, extra_delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` now, or behind a delay rule's extra latency."""
        if extra_delay > 0.0:
            self.sim.timeout(extra_delay).add_callback(lambda _ev: action())
        else:
            action()

    def _deliver(
        self, message: Message, extra_delay: float, parent: Span | None
    ) -> None:
        self._after(extra_delay, lambda: self._transmit(message))

    def _transmit(self, message: Message) -> None:
        store = self._inboxes.get(message.recipient)
        if store is not None:
            # Local endpoint: same-process delivery, no wire.
            message.delivered_at = self.sim.now
            store.put(message)
            return
        reply_to = message.reply_to
        try:
            link = self._link_for(self._fault_id(message.recipient))
        except NetworkError:
            # Unroutable peer: behave like a dropped message; the
            # caller's timeout/retry machinery takes it from here.
            if reply_to is not None and not reply_to.triggered:
                reply_to.succeed(RPC_FAILED)
            self.messages_dropped += 1
            return
        wire_id: str | None = None
        if reply_to is not None:
            wire_id = f"{self.peer_id}/{message.msg_id}"
            self._pending[wire_id] = reply_to
            link.sent_ids.add(wire_id)
        self._send_frame(
            link,
            {
                "t": "msg",
                "sender": message.sender,
                "recipient": message.recipient,
                "kind": message.kind,
                "payload": message.payload,
                "size": message.size,
                "id": wire_id,
            },
        )

    def _deliver_reply(
        self,
        message: Message,
        value: Any,
        size: int,
        exception: BaseException | None,
    ) -> None:
        reply_to = message.reply_to  # local Event, or RemoteReply -> frame
        if exception is not None:
            reply_to.fail(exception)  # as in the sim: delay rules skip errors
            return
        extra = (
            self._extra_delay(message.recipient, message.sender)
            if self._delay_rules
            else 0.0
        )
        self._after(extra, lambda: reply_to.succeed(value))

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        """Stop listening, drop every connection, fail what is in flight.

        Returns once every ``connection_lost`` has run: no task, transport
        or socket of this network outlives it.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        dials = [link.dial for link in self._links.values()]
        for task in dials:
            task.cancel()  # a no-op on a link that is already connected
        # Every pending RPC is in flight on one of the links.
        for connection in [*self._links.values(), *self._connections]:
            self._fail_link(connection)
        await asyncio.gather(*dials, return_exceptions=True)
        if self._connections:
            self._all_lost = self._loop.create_future()
            await self._all_lost
        if self._server is not None:
            await self._server.wait_closed()


class AsyncioTransport:
    """Engine + network + lifecycle for one socket-backed peer process."""

    def __init__(
        self,
        peer_id: str,
        loop: asyncio.AbstractEventLoop | None = None,
        time_scale: float = 1.0,
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
    ):
        self.engine = AsyncioEngine(loop=loop, time_scale=time_scale)
        self.network = AsyncioNetwork(
            self.engine, peer_id, tracer=tracer, recorder=recorder
        )

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        return await self.network.start_server(host, port)

    async def aclose(self) -> None:
        # Network first: failing in-flight RPCs to RPC_FAILED still needs
        # the engine to deliver the resolution callbacks.
        await self.network.close()
        self.engine.run_due()
        self.engine.close()
