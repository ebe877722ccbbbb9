"""Real-socket transport: the asyncio side of the engine/network seam.

Two pieces, mirroring the sim pair:

* :class:`AsyncioEngine` — a :class:`~repro.sim.engine.Simulator`
  duck-type backed by the asyncio event loop.  It reuses the sim's
  :class:`Event`/:class:`Timeout`/:class:`Process` classes verbatim:
  those classes only ever call ``sim._schedule`` and read ``sim.now``,
  so mapping ``_schedule`` onto ``loop.call_later`` runs every node
  generator — coordinator fan-out, retry/backoff loops, gossip rounds —
  unchanged on wall-clock time.
* :class:`AsyncioNetwork` — the :class:`~repro.sim.network.Network`
  whose two delivery hooks route local endpoints through in-process
  inboxes and remote endpoints over TCP: one lazily-connected outbound
  link per peer, a reader task per connection feeding a controller
  queue, and length-prefixed codec frames on the wire.

RPC failure semantics map onto the existing machinery: a dropped
connection resolves every RPC in flight on it to :data:`RPC_FAILED`
(the same sentinel ``request_resilient`` produces after exhausted
retries), and a silent peer is covered by the caller's own
timeout/retry loop, which runs on real timers here.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Callable, Coroutine, Generator, Iterable

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
        if time_scale <= 0:
            raise NetworkError(f"time_scale must be positive, got {time_scale}")
        if loop is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                loop = asyncio.get_event_loop()
        self._loop = loop
        self.time_scale = time_scale
        self._t0 = self._loop.time()
        self._handles: set[asyncio.TimerHandle] = set()
        self._closed = False
        #: Failures nobody waited on (the sim raises these from ``step``;
        #: a live loop can only record and report them).
        self.unhandled: list[BaseException] = []
        self.tick_hooks: list[Callable[[float], None]] = []

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
            return  # shutting down: timers must not resurrect work
        # Event has __slots__, so the handle rides in a closure instead.
        handle: asyncio.TimerHandle | None = None

        def fire() -> None:
            self._handles.discard(handle)
            self._fire(event)

        handle = self._loop.call_later(delay * self.time_scale, fire)
        self._handles.add(handle)

    def _fire(self, event: Event) -> None:
        """The asyncio analogue of ``Simulator.step`` for one event."""
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # already processed (defensive)
            return
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
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()

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

    __slots__ = ("network", "writer", "msg_id", "triggered")

    def __init__(
        self,
        network: "AsyncioNetwork",
        writer: asyncio.StreamWriter,
        msg_id: str,
    ):
        self.network = network
        self.writer = writer
        self.msg_id = msg_id
        self.triggered = False

    def succeed(self, value: Any) -> None:
        self.triggered = True
        self.network._write_frame(
            self.writer, {"t": "reply", "id": self.msg_id, "value": value}
        )

    def fail(self, exception: BaseException) -> None:
        self.triggered = True
        self.network._write_frame(
            self.writer, {"t": "err", "id": self.msg_id, "exc": exception}
        )


class _PeerLink:
    """One outbound connection to a peer: FIFO frame queue + reader task."""

    def __init__(self, peer_id: str, host: str, port: int):
        self.peer_id = peer_id
        self.host = host
        self.port = port
        self.outbox: asyncio.Queue[bytes] = asyncio.Queue()
        self.sent_ids: set[str] = set()
        self.reader_task: asyncio.Task | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.dead = False


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
        self._links: dict[str, _PeerLink] = {}
        #: In-flight RPCs: wire msg id -> local Event | forwarded RemoteReply.
        self._pending: dict[str, "Event | RemoteReply"] = {}
        self._controller: asyncio.Queue[tuple[Any, asyncio.StreamWriter]] = (
            asyncio.Queue()
        )
        self._server: asyncio.base_events.Server | None = None
        #: Every task this network started (controller, inbound handlers,
        #: per-link connect/reader/writer loops, pending drains);
        #: :meth:`close` cancels and awaits them all.
        self._tasks: set[asyncio.Task] = set()
        self._drain_locks: dict[int, asyncio.Lock] = {}
        self._closed = False

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

    # -- server side -------------------------------------------------------

    async def start_server(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Listen for inbound peers; returns the bound (host, port)."""
        self._server = await asyncio.start_server(self._on_inbound, host, port)
        self._spawn(self._run_controller())
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def _on_inbound(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        try:
            await self._read_frames(reader, writer)
        except asyncio.CancelledError:
            pass  # close() cancelling us is a clean shutdown, not an error
        finally:
            writer.close()

    async def _read_frames(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Per-connection reader: frames -> controller queue.

        Returns when the stream ends — or carries something that is not a
        frame: the caller then closes the connection (an inbound peer is
        dropped, a dialed link fails its in-flight RPCs), so a malformed
        stream costs its sender the connection and this peer nothing.
        """
        decoder = FrameDecoder()
        while True:
            try:
                chunk = await reader.read(65536)
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            if not chunk:
                return
            try:
                frames = decoder.feed(chunk)
            except (FramingError, CodecError) as exc:
                log.warning(
                    "peer %s: closing connection to %s: %s",
                    self.peer_id,
                    writer.get_extra_info("peername"),
                    exc,
                )
                return
            for frame in frames:
                await self._controller.put((frame, writer))

    async def _run_controller(self) -> None:
        """Single dispatcher: every inbound frame, in arrival order."""
        while True:
            frame, writer = await self._controller.get()
            try:
                self._dispatch_frame(frame, writer)
            except Exception:  # noqa: BLE001 - a bad frame must not stop serving
                log.exception("failed to dispatch frame %r", frame)

    def _dispatch_frame(self, frame: dict, writer: asyncio.StreamWriter) -> None:
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
            reply_to: RemoteReply | None = None
            if frame.get("id") is not None:
                reply_to = RemoteReply(self, writer, frame["id"])
            message = Message(
                sender=frame["sender"],
                recipient=recipient,
                kind=frame["kind"],
                payload=frame["payload"],
                size=frame.get("size", 0),
                msg_id=frame.get("id") if frame.get("id") is not None else -1,
                reply_to=reply_to,  # type: ignore[arg-type]
                delivered_at=self.sim.now,
            )
            store.put(message)
            return
        if kind in ("reply", "err"):
            pending = self._pending.pop(frame["id"], None)
            if pending is None:
                # Late reply after a timeout/drop resolution: ignore, the
                # caller has already moved on (same as a late sim reply
                # racing a fired timeout).
                return
            for link in self._links.values():
                link.sent_ids.discard(frame["id"])
            if pending.triggered:
                return  # resolved by a racing drop/close
            # A forwarded RemoteReply relays the answer to the origin.
            if kind == "reply":
                pending.succeed(frame["value"])
            else:
                pending.fail(frame["exc"])
            return
        log.warning("unknown frame type %r", kind)

    # -- client side -------------------------------------------------------

    def _spawn(self, coro: Coroutine[Any, Any, Any]) -> asyncio.Task:
        """Start a task this network owns (see :meth:`close`)."""
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _link_for(self, peer_id: str) -> _PeerLink:
        link = self._links.get(peer_id)
        if link is not None and not link.dead:
            return link
        try:
            host, port = self._peers[peer_id]
        except KeyError:
            raise NetworkError(
                f"peer {self.peer_id} has no address for {peer_id!r}"
            ) from None
        link = _PeerLink(peer_id, host, port)
        self._spawn(self._run_link(link))
        self._links[peer_id] = link
        return link

    async def _run_link(self, link: _PeerLink) -> None:
        try:
            reader = writer = None
            for attempt in range(_CONNECT_ATTEMPTS):
                try:
                    reader, writer = await asyncio.open_connection(
                        link.host, link.port
                    )
                    break
                except ConnectionError:
                    if attempt + 1 == _CONNECT_ATTEMPTS:
                        raise
                    await asyncio.sleep(_CONNECT_RETRY_DELAY)
            assert reader is not None and writer is not None
            link.writer = writer
            # Replies to our outbound requests come back on this socket.
            # Reader EOF (the peer closed or died) must fail the link even
            # while the writer loop sits idle waiting for the next frame.
            link.reader_task = self._spawn(self._read_frames(reader, writer))

            async def _writer_loop() -> None:
                while True:
                    data = await link.outbox.get()
                    writer.write(data)
                    await writer.drain()

            write_task = self._spawn(_writer_loop())
            done, pending = await asyncio.wait(
                {link.reader_task, write_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            for task in pending:
                task.cancel()
            for task in done:
                exc = task.exception()
                if exc is not None and not isinstance(
                    exc, (ConnectionError, OSError, asyncio.CancelledError)
                ):
                    raise exc
        except (ConnectionError, OSError):
            pass
        finally:
            self._fail_link(link)

    def _fail_link(self, link: _PeerLink) -> None:
        """Connection gone: every RPC in flight on it becomes RPC_FAILED."""
        if link.dead:
            return
        link.dead = True
        if link.reader_task is not None:
            link.reader_task.cancel()
        if link.writer is not None:
            link.writer.close()
        if self._links.get(link.peer_id) is link:
            del self._links[link.peer_id]
        for msg_id in sorted(link.sent_ids):
            pending = self._pending.pop(msg_id, None)
            if pending is not None and not pending.triggered:
                # The sentinel, not an exception: exactly what the
                # retry/backoff machinery yields for a hopeless peer.
                pending.succeed(RPC_FAILED)

    def _write_frame(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        """Ordered sync write + lazily chained drain on one connection."""
        if writer.is_closing():
            return
        try:
            writer.write(encode_frame(frame))
        except (ConnectionError, OSError):  # pragma: no cover - race on close
            return
        lock = self._drain_locks.setdefault(id(writer), asyncio.Lock())

        async def _drain() -> None:
            async with lock:
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass

        self._spawn(_drain())

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
        wire_id: str | None = None
        if reply_to is not None:
            wire_id = f"{self.peer_id}/{message.msg_id}"
            self._pending[wire_id] = reply_to
        frame = {
            "t": "msg",
            "sender": message.sender,
            "recipient": message.recipient,
            "kind": message.kind,
            "payload": message.payload,
            "size": message.size,
            "id": wire_id,
        }
        try:
            link = self._link_for(self._fault_id(message.recipient))
        except NetworkError:
            # Unroutable peer: behave like a dropped message; the
            # caller's timeout/retry machinery takes it from here.
            if wire_id is not None:
                del self._pending[wire_id]
                if not reply_to.triggered:
                    reply_to.succeed(RPC_FAILED)
            self.messages_dropped += 1
            return
        if wire_id is not None:
            link.sent_ids.add(wire_id)
        link.outbox.put_nowait(encode_frame(frame))

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
        if self._closed:
            return
        self._closed = True
        for link in list(self._links.values()):
            self._fail_link(link)
        for wire_id, pending in sorted(self._pending.items()):
            if isinstance(pending, RemoteReply):
                continue
            if not pending.triggered:
                pending.succeed(RPC_FAILED)
        self._pending.clear()
        # Cancelling a link task lands on its ``asyncio.wait``, which
        # skips the clean-up of the nested writer loop — so every task is
        # tracked and cancelled here, not just the outermost ones.
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.gather(*tasks, return_exceptions=True)


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
        self._engine = AsyncioEngine(loop=loop, time_scale=time_scale)
        self._network = AsyncioNetwork(
            self._engine, peer_id, tracer=tracer, recorder=recorder
        )

    @property
    def engine(self) -> AsyncioEngine:
        return self._engine

    @property
    def network(self) -> AsyncioNetwork:
        return self._network

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        return await self._network.start_server(host, port)

    async def aclose(self) -> None:
        # Network first: failing in-flight RPCs to RPC_FAILED still needs
        # the engine to deliver the resolution callbacks.
        await self._network.close()
        self._engine.close()
