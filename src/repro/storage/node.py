"""Storage node server process.

Each node runs a bounded pool of worker processes draining its network
inbox; the inbox depth is the "pending requests" signal used for hotspot
detection (paper section VII-B-1).  The base node serves ``scan``
requests — read blocks from the simulated disk, aggregate, reply; the
STASH node subclasses this with cache-aware handlers.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sized

import numpy as np

from repro.config import StashConfig
from repro.core.keys import CellKey
from repro.data.block import Block, BlockId
from repro.data.statistics import SummaryVector
from repro.dht.partitioner import _stable_hash
from repro.errors import StorageError
from repro.faults.membership import RPC_FAILED, RPC_SHED, Membership
from repro.faults.overload import OverloadGuard
from repro.obs.recorder import QueryContext
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Span
from repro.query.model import AggregationQuery
from repro.sim.disk import Disk
from repro.sim.engine import Event, Simulator
from repro.sim.network import Message, Network
from repro.sim.resources import Store
from repro.storage.backend import StorageCatalog, scan_blocks

#: What a handler returns: ``(value, wire_size)`` for the node to send as
#: the reply, or ``None`` for a one-way or forwarded message (and for a
#: handler that already called ``network.respond`` itself).
Reply = tuple[Any, int] | None
#: Handler signature: generator process consuming a message.
Handler = Callable[[Message], Generator[Event, Any, Reply]]

#: Message kinds handled by the coordinator pool.  Everything else goes to
#: the service pool.  Keeping the pools separate prevents distributed
#: deadlock: a coordinator blocked on remote scans can never starve the
#: workers that serve those scans.
COORDINATOR_KINDS = frozenset({"evaluate", "evaluate_guest"})


class StorageNode:
    """One simulated storage server with coordinator + service worker pools."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        catalog: StorageCatalog,
        node_id: str,
        config: StashConfig,
        membership: Membership | None = None,
    ):
        self.sim = sim
        self.network = network
        self.catalog = catalog
        self.node_id = node_id
        self.config = config
        self.cost = config.cost
        #: The liveness view this node routes through; a node built on
        #: its own gets a private one over the catalog's partition map.
        self.membership = membership or Membership(catalog.partitioner)
        self.overload = (
            OverloadGuard(config.overload) if config.overload.enabled else None
        )
        #: Dedicated stream for retry-backoff jitter; consumed only when
        #: ``faults.backoff_jitter`` > 0, so jitter-free runs draw nothing.
        self._backoff_rng = np.random.default_rng(
            [config.cluster.seed, 65_537, _stable_hash(node_id) % 2**31]
        )
        self.inbox = network.register(node_id)
        self.tracer = network.tracer
        self.recorder = network.recorder
        self.disk = Disk(sim, self.cost, node_id, tracer=network.tracer)
        #: Everything this node counts or gauges; ``stats`` answers with
        #: its snapshot, the system mounts the gauges as ``node-N.<name>``.
        self.metrics = MetricsRegistry(sim)
        self.counters = self.metrics.counters
        self.metrics.gauge("queue_depth", lambda: float(self.pending_requests))
        self.metrics.gauge("disk_reads", lambda: float(self.disk.reads))
        self._coord_queue = Store(sim, name=f"coord:{node_id}")
        self._service_queue = Store(sim, name=f"service:{node_id}")
        self._handlers: dict[str, Handler] = {
            "scan": self._handle_scan,
            "ping": self._handle_ping,
            "stats": self._handle_stats,
        }
        self._started = False
        self._workers_stale = False
        #: Handlers currently executing (any kind).  Together with
        #: :attr:`pending_requests` this gives an external driver a
        #: complete idleness signal (the serve quiesce barrier).
        self._inflight = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the dispatcher and worker pools; idempotent."""
        if self._started:
            return
        self._started = True
        self.sim.process(self._dispatcher())
        for _ in range(self.config.cluster.workers_per_node):
            self.sim.process(self._worker(self._coord_queue))
            self.sim.process(self._worker(self._service_queue))

    def crash(self) -> None:
        """Lose all volatile state (fault injection).

        Queued messages are dropped and the worker queues are replaced;
        workers blocked on (or mid-dispatch against) the old queues are
        stranded on objects nothing will ever touch again — their pending
        external effects are suppressed by the network's down-set.  The
        dispatcher keeps running but receives nothing while the node is
        down.  Subclasses additionally wipe their in-memory caches.
        """
        self.inbox.clear()
        self._coord_queue = Store(self.sim, name=f"coord:{self.node_id}")
        self._service_queue = Store(self.sim, name=f"service:{self.node_id}")
        self._workers_stale = True
        self.counters.increment("crashes")

    def restart(self) -> None:
        """Come back up cold: fresh worker pools on the fresh queues."""
        if self._started and self._workers_stale:
            for _ in range(self.config.cluster.workers_per_node):
                self.sim.process(self._worker(self._coord_queue))
                self.sim.process(self._worker(self._service_queue))
        self._workers_stale = False
        self.counters.increment("restarts")

    def _dispatcher(self) -> Generator[Event, Any, None]:
        while True:
            message = yield self.inbox.get()
            if self.overload is not None and self.overload.shed_class(
                message.kind, self.pending_requests
            ):
                self._shed(message)
                continue
            self.on_message_arrival(message)
            if message.kind in COORDINATOR_KINDS:
                self._coord_queue.put(message)
            else:
                self._service_queue.put(message)

    def _shed(self, message: Message) -> None:
        """Reject a message at admission (overload protection).

        RPC callers get an immediate explicit :data:`RPC_SHED` reply —
        a fast rejection they must not confuse with a death; one-way
        messages (``populate``) are dropped silently.
        """
        assert self.overload is not None
        self.overload.record_shed(self.sim.now)
        self.counters.increment("requests_shed")
        self.counters.increment(f"shed:{message.kind}")
        if self.recorder.enabled and isinstance(message.payload, dict):
            self.recorder.record_event(
                f"shed:{message.kind}",
                message.payload.get("ctx"),
                node=self.node_id,
                detail={"from": message.sender},
            )
        if message.reply_to is not None:
            self.network.respond(message, RPC_SHED, size=16)

    def on_message_arrival(self, message: Message) -> None:
        """Hook invoked as each message is dequeued from the network inbox.

        The STASH node overrides this to run hotspot detection.
        """

    def _worker(self, queue: Store) -> Generator[Event, Any, None]:
        while True:
            message = yield queue.get()
            yield self.sim.process(self._dispatch(message))

    def _dispatch(self, message: Message) -> Generator[Event, Any, None]:
        handler = self._handlers.get(message.kind)
        if handler is None:
            error = StorageError(
                f"node {self.node_id} has no handler for {message.kind!r}"
            )
            self._fail(message, error)
            return
        self.counters.increment(f"handled:{message.kind}")
        hspan: Span | None = None
        if self.tracer.enabled:
            now = self.sim.now
            if 0.0 <= message.delivered_at < now:
                self.tracer.record(
                    f"queue:{message.kind}",
                    "queueing",
                    message.delivered_at,
                    now,
                    parent=message.span,
                    node=self.node_id,
                )
            hspan = self.tracer.begin(
                f"handle:{message.kind}",
                "compute",
                parent=message.span,
                node=self.node_id,
            )
            if hspan is not None:
                # Receiver-side work (disk reads, fan-out RPCs) parents
                # onto the handler span, not the caller's rpc span.
                message.span = hspan
        self._inflight += 1
        try:
            yield self.sim.process(self._answer(handler, message))
        except Exception as exc:
            self._fail(message, exc)
        finally:
            self._inflight -= 1
            self.tracer.end(hspan)

    def _fail(self, message: Message, exc: Exception) -> None:
        """Count a failed message and surface it without killing the worker.

        The caller gets the error when a reply is expected.  Otherwise it
        fails an event nobody waits on: the simulator raises it from
        ``step``, so a simulation still fails loudly, while a live engine
        records it in ``unhandled`` and the worker takes the next message.
        """
        self.counters.increment(f"errors:{message.kind}")
        if message.reply_to is not None and not message.reply_to.triggered:
            self.network.respond_error(message, exc)
        else:
            self.sim.event().fail(exc)

    def _answer(
        self, handler: Handler, message: Message
    ) -> Generator[Event, Any, None]:
        """Run a handler and send what it returns — the one reply site.

        The send happens inside the handler's own process, at the instant
        the handler returns: sending from ``_dispatch`` after the process
        event fired would put one more event between a handler's last
        yield and its reply, reordering same-timestamp events.
        """
        reply = yield from handler(message)
        if reply is not None:
            value, size = reply
            self.network.respond(message, value, size=size)

    def _cells_reply(self, value: Any, cells: Sized) -> tuple[Any, int]:
        """A reply whose wire size is that of the cells it carries."""
        return value, len(cells) * self.cost.cell_wire_size

    def register_handler(self, kind: str, handler: Handler) -> None:
        self._handlers[kind] = handler

    # -- fault-tolerant RPC ------------------------------------------------

    def request_resilient(
        self,
        recipient: str,
        kind: str,
        payload: Any,
        size: int = 0,
        parent: Span | None = None,
        ctx: QueryContext | None = None,
    ) -> Event:
        """An RPC that cannot hang the caller.

        With the fault layer inactive this *is* ``network.request`` —
        same events, same costs, bit-identical schedules.  Active, the
        request runs under a timeout/retry/backoff loop and the returned
        event resolves to :data:`RPC_FAILED` once the peer is hopeless,
        declaring it dead in this node's membership view (shared, or
        per-node under gossip) so the DHT ring repairs around it.  An
        overloaded peer may instead answer :data:`RPC_SHED` — alive but
        shedding; that reply passes through as-is and is never grounds
        for a death declaration.  Callers must compare with ``is``
        (the sentinels raise on truth-testing).
        """
        if not self.config.faults.active:
            return self.network.request(
                self.node_id, recipient, kind, payload, size=size, parent=parent
            )
        return self.sim.process(
            self._request_with_retry(recipient, kind, payload, size, parent, ctx)
        )

    def _request_with_retry(
        self,
        recipient: str,
        kind: str,
        payload: Any,
        size: int,
        parent: Span | None,
        ctx: QueryContext | None = None,
    ) -> Generator[Event, Any, Any]:
        faults = self.config.faults
        membership = self.membership
        attempts = faults.max_retries + 1
        for attempt in range(attempts):
            if not membership.is_live(recipient):
                # Someone already declared the peer dead: fail fast so
                # the caller reroutes instead of burning timeouts.
                self.counters.increment("rpc_failfast")
                self.recorder.record_event(
                    "rpc_failfast",
                    ctx,
                    node=self.node_id,
                    detail={"to": recipient, "kind": kind},
                )
                return RPC_FAILED
            started = self.sim.now
            reply = self.network.request(
                self.node_id, recipient, kind, payload, size=size, parent=parent
            )
            index, value = yield self.sim.any_of(
                [reply, self.sim.timeout(faults.rpc_timeout)]
            )
            if index == 0:
                return value
            self.counters.increment("rpc_timeouts")
            self.recorder.record_event(
                "rpc_timeout",
                ctx,
                node=self.node_id,
                detail={"to": recipient, "kind": kind, "attempt": attempt},
            )
            if self.tracer.enabled:
                self.tracer.record(
                    f"timeout:{kind}",
                    "network",
                    started,
                    self.sim.now,
                    parent=parent,
                    node=self.node_id,
                    attrs={"to": recipient, "attempt": attempt},
                )
            if attempt + 1 < attempts:
                backoff = faults.backoff_delay(attempt, self._backoff_rng)
                self.counters.increment("rpc_retries")
                self.recorder.record_event(
                    "rpc_retry",
                    ctx,
                    node=self.node_id,
                    detail={"to": recipient, "kind": kind, "attempt": attempt + 1},
                )
                if self.tracer.enabled:
                    self.tracer.record(
                        f"retry:{kind}",
                        "queueing",
                        self.sim.now,
                        self.sim.now + backoff,
                        parent=parent,
                        node=self.node_id,
                        attrs={"to": recipient, "attempt": attempt + 1},
                    )
                yield self.sim.timeout(backoff)
        if membership.is_live(recipient) and len(membership.live_nodes()) > 1:
            membership.declare_dead(recipient)
            self.counters.increment("peers_declared_dead")
            self.recorder.record_event(
                "peer_declared_dead",
                ctx,
                node=self.node_id,
                detail={"peer": recipient, "kind": kind},
            )
            if self.tracer.enabled:
                self.tracer.record(
                    f"failover:{recipient}",
                    "network",
                    self.sim.now,
                    self.sim.now,
                    parent=parent,
                    node=self.node_id,
                    attrs={"kind": kind},
                )
        self.recorder.record_event(
            "rpc_failed",
            ctx,
            node=self.node_id,
            detail={"to": recipient, "kind": kind},
        )
        return RPC_FAILED

    def _scatter(
        self,
        kind: str,
        legs: list[tuple[str, Any, int]],
        local: Callable[[Any], Generator[Event, Any, Any]],
        parent: Span | None = None,
        ctx: QueryContext | None = None,
    ) -> Generator[Event, Any, list[Any]]:
        """Fan ``kind`` out over ``(node, payload, size)`` legs; replies in leg order.

        A leg addressed to this node runs ``local(payload)`` as a process
        and never crosses the network; every other leg is a
        :meth:`request_resilient` under ``ctx`` with its ``leg`` set.  A
        leg that failed comes back as its RPC sentinel — what that costs
        the answer differs per engine and stays with the caller.
        """
        events = [
            self.sim.process(local(payload))
            if node_id == self.node_id
            else self.request_resilient(
                node_id,
                kind,
                payload,
                size=size,
                parent=parent,
                ctx=None if ctx is None else ctx.with_(leg=node_id),
            )
            for node_id, payload, size in legs
        ]
        if not events:
            return []
        replies = yield self.sim.all_of(events)
        return replies

    # -- introspection ---------------------------------------------------------

    @property
    def pending_requests(self) -> int:
        """Undispatched + queued coordinator requests — the hotspot signal."""
        return len(self.inbox) + len(self._coord_queue)

    # -- scan service ------------------------------------------------------

    def local_blocks(self, block_ids: list[BlockId]) -> list[Block]:
        """Resolve block ids against this node's local disk."""
        local = self.catalog.blocks_on(self.node_id)
        out = []
        for block_id in block_ids:
            block = local.get(block_id)
            if block is None:
                raise StorageError(
                    f"block {block_id} not on node {self.node_id}"
                )
            out.append(block)
        return out

    def scan_locally(
        self,
        query: AggregationQuery,
        block_ids: list[BlockId],
        parent: Span | None = None,
    ) -> Generator[Event, Any, dict[CellKey, SummaryVector]]:
        """Read + aggregate local blocks, charging disk and CPU time."""
        span = self.tracer.begin(
            "scan",
            "compute",
            parent=parent,
            node=self.node_id,
            attrs={"blocks": len(block_ids)},
        )
        blocks = self.local_blocks(block_ids)
        for block in blocks:
            yield self.disk.read(block.nbytes, parent=span if span else parent)
        cells, stats = scan_blocks(blocks, query)
        cpu = stats.records_scanned * self.cost.scan_cost_per_record
        if span is not None and cpu > 0:
            self.tracer.record(
                "scan:aggregate",
                "compute",
                self.sim.now,
                self.sim.now + cpu,
                parent=span,
                node=self.node_id,
                attrs={"records": stats.records_scanned},
            )
        yield self.sim.timeout(cpu)
        self.counters.increment("blocks_scanned", stats.blocks_read)
        self.counters.increment("records_scanned", stats.records_scanned)
        self.tracer.end(span)
        return cells

    # -- coordinator-side merge and response shaping -----------------------

    def _merge_partials(
        self,
        partials: list[dict[CellKey, SummaryVector]],
        parent: Span | None,
    ) -> Generator[Event, Any, dict[CellKey, SummaryVector]]:
        """Merge per-leg cell dicts in leg order, charging merge CPU.

        Callers pass only the legs that answered; how a failed leg is
        accounted differs per engine and stays with the caller.
        """
        merged: dict[CellKey, SummaryVector] = {}
        merges = 0
        for cells in partials:
            for key, vec in cells.items():
                existing = merged.get(key)
                if existing is None:
                    merged[key] = vec
                else:
                    merged[key] = existing.merge(vec)
                    merges += 1
        if merges:
            cpu = merges * self.cost.cell_merge_cost
            if self.tracer.enabled:
                self.tracer.record(
                    "merge:partials",
                    "compute",
                    self.sim.now,
                    self.sim.now + cpu,
                    parent=parent,
                    node=self.node_id,
                    attrs={"merges": merges},
                )
            yield self.sim.timeout(cpu)
        return merged

    @staticmethod
    def _shape_response_cells(
        query: AggregationQuery, cells: dict[CellKey, SummaryVector]
    ) -> dict[CellKey, SummaryVector]:
        """Attribute projection at the response boundary.

        Scans aggregate every attribute (cached cells must serve any later
        query), so the selection is applied to the answer, never to what
        is stored.
        """
        if query.attributes is not None:
            selection = list(query.attributes)
            cells = {k: v.project(selection) for k, v in cells.items()}
        return cells

    # -- liveness / introspection RPCs (serve quiesce barrier) -------------

    def _handle_ping(self, message: Message) -> Generator[Event, Any, Reply]:
        """Liveness probe: answers as soon as a service worker is free."""
        yield self.sim.timeout(0.0)
        return {"node": self.node_id, "ok": True}, 16

    def _handle_stats(self, message: Message) -> Generator[Event, Any, Reply]:
        """Idleness keys for an external driver, then the registry snapshot.

        ``inflight`` excludes this stats request itself, so a fully idle
        node reports ``pending == 0 and inflight == 0`` — the serve
        driver's quiesce barrier between replayed queries.  ``counters``
        / ``gauges`` / ``histograms`` are :meth:`MetricsRegistry.snapshot`.
        """
        yield self.sim.timeout(0.0)
        return {
            "node": self.node_id,
            "pending": self.pending_requests,
            "service_queue": len(self._service_queue),
            "inflight": self._inflight - 1,
            "handled": self.counters.get("handled:evaluate"),
            "transport": self.network.transport_stats(),
            **self.metrics.snapshot(),
        }, 64

    def _handle_scan(self, message: Message) -> Generator[Event, Any, Reply]:
        yield self.sim.timeout(self.cost.request_overhead)
        query: AggregationQuery = message.payload["query"]
        block_ids: list[BlockId] = message.payload["block_ids"]
        cells = yield self.sim.process(
            self.scan_locally(query, block_ids, parent=message.span)
        )
        return self._cells_reply(cells, cells)
