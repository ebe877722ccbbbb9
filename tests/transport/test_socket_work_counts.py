"""Work counts on the socket path: what one warm ``evaluate`` costs the loop.

Counts, not timings (those live in ``benchmarks/e2e``, workload
``socket_rpc``).  A two-node in-process cluster on real loopback sockets
plus a client peer, all on one loop; after a warm-up pass every op is an
``evaluate`` RPC answered from cache, with the occasional ``fetch_cells``
between the nodes.  A sim event that is due now joins the engine's FIFO
and a frame is dispatched inside its own ``data_received``, so an op
arms no loop timer (``time_scale`` shrinks every cost-model sleep below
the clock's tick), creates no task, touches no queue object, writes each
frame with one ``transport.write`` and takes a handful of loop turns.

The loop is observed through public seams only — a counting selector
(one ``select`` per loop turn) and a task factory — and the transport
through the integer counters it exports to the node ``stats`` RPC.
"""

import asyncio
import itertools
import selectors

import pytest

from repro.config import ClusterConfig, ServeConfig, StashConfig
from repro.data.generator import DatasetSpec
from repro.dht.partitioner import PrefixPartitioner
from repro.faults.membership import rpc_ok
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query import model
from repro.query.model import AggregationQuery
from repro.serve.server import NodeSpec, build_node
from repro.system import CLIENT_ID, coordinator_for
from repro.transport.asyncio_net import AsyncioTransport

SPEC = DatasetSpec(num_records=6_000, start_day=(2013, 2, 1), num_days=2, seed=11)
CONFIG = StashConfig(
    cluster=ClusterConfig(num_nodes=2), serve=ServeConfig(time_scale=1e-6)
)
NODE_IDS = ("node-0", "node-1")
WARM_OPS = 40

#: Bytes the nodes write per warm ``evaluate`` (replies and node-to-node
#: traffic), measured with cells maps crossing as ``cells`` column nodes
#: and query ids counted from 0.  The per-cell tagged tree writes
#: 21 729.65 on the same ops.
NODE_BYTES_PER_EVALUATE = 16_300.9


class CountingSelector(selectors.DefaultSelector):
    """``select`` is called exactly once per loop turn."""

    selects = 0

    def select(self, timeout=None):
        self.selects += 1
        return super().select(timeout)


def _queries() -> list[AggregationQuery]:
    """Pans over one day: neighbouring footprints owned by both nodes."""
    box = BoundingBox(35.0, 42.0, -105.0, -95.0)
    day = TimeKey.of(2013, 2, 1).epoch_range()
    fine = Resolution(3, TemporalResolution.DAY)
    return [
        AggregationQuery(
            bbox=box.translated(0.0, 2.0 * step), time_range=day, resolution=fine
        )
        for step in range(4)
    ]


class _WriteCounter:
    """Stands in front of a connection's transport; counts ``write``s."""

    def __init__(self, transport, writes):
        self._transport = transport
        self._writes = writes

    def write(self, data):
        self._writes.append(len(data))
        self._transport.write(data)

    def __getattr__(self, name):
        return getattr(self._transport, name)


async def _measure(selector: CountingSelector) -> dict:
    loop = asyncio.get_running_loop()
    transports, addresses = [], {}
    for index, node_id in enumerate(NODE_IDS):
        transport = AsyncioTransport(node_id, time_scale=CONFIG.serve.time_scale)
        addresses[node_id] = await transport.start()
        build_node(
            NodeSpec(node_index=index, node_ids=NODE_IDS, dataset=SPEC, config=CONFIG),
            transport,
        ).start()
        transports.append(transport)
    client = AsyncioTransport(CLIENT_ID, time_scale=CONFIG.serve.time_scale)
    addresses[CLIENT_ID] = await client.start()
    client.network.register(CLIENT_ID)
    transports.append(client)
    for transport in transports:
        transport.network.set_peers(addresses)
    partitioner = PrefixPartitioner(
        list(NODE_IDS), CONFIG.cluster.partition_precision
    )

    async def rpc(recipient, kind, payload):
        reply = client.network.request(CLIENT_ID, recipient, kind, payload, size=512)
        value = await client.engine.as_future(reply)
        assert rpc_ok(value), value
        return value

    async def evaluate(query):
        return await rpc(
            coordinator_for(partitioner, query),
            "evaluate",
            {"query": query, "ctx": None},
        )

    try:
        for query in _queries():  # warm-up: caches fill, every link dials
            await evaluate(query.clone())
        await asyncio.sleep(0.05)  # one-way populate frames land

        writes: list[int] = []
        for transport in transports:
            for connection in transport.network._connections:
                connection.transport = _WriteCounter(connection.transport, writes)
        tasks: list = []
        queues: list = []
        real_queue_init = asyncio.Queue.__init__

        def counting_task_factory(loop, coro, **kwargs):
            tasks.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        def counting_queue_init(self, *args, **kwargs):
            queues.append(self)
            real_queue_init(self, *args, **kwargs)

        before = [transport.network.transport_stats() for transport in transports]
        turns_before = selector.selects
        loop.set_task_factory(counting_task_factory)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(asyncio.Queue, "__init__", counting_queue_init)
                cells = 0
                for index in range(WARM_OPS):
                    reply = await evaluate(_queries()[index % 4].clone())
                    assert float(reply["completeness"]) == 1.0
                    cells += len(reply["cells"])
        finally:
            loop.set_task_factory(None)
        turns = selector.selects - turns_before
        writes = list(writes)
        after = [transport.network.transport_stats() for transport in transports]
        node_stats = await rpc("node-0", "stats", {})
    finally:
        for transport in reversed(transports):
            await transport.aclose()
    delta = {
        key: sum(b[key] - a[key] for a, b in zip(before, after)) for key in after[0]
    }
    # The nodes' transports are every one but the client's (the last).
    node_bytes_out = sum(
        b["wire_bytes_out"] - a["wire_bytes_out"] for a, b in zip(before[:-1], after[:-1])
    )
    return {
        "delta": delta,
        "node_bytes_out": node_bytes_out,
        "turns": turns,
        "tasks": len(tasks),
        "queues": len(queues),
        "writes": writes,
        "cells": cells,
        "node_stats": node_stats,
    }


@pytest.fixture(scope="module")
def measured():
    selector = CountingSelector()
    # Query ids cross the wire as decimal text; a counter of its own makes
    # the byte counts independent of how many queries ran before.
    with pytest.MonkeyPatch.context() as patch, asyncio.Runner(
        loop_factory=lambda: asyncio.SelectorEventLoop(selector)
    ) as runner:
        patch.setattr(model, "_query_ids", itertools.count())
        return runner.run(_measure(selector))


class TestWarmEvaluateOverSockets:
    def test_ops_really_crossed_the_wire(self, measured):
        assert measured["cells"] > 0
        # A request and a reply per RPC, at least one RPC per op.
        assert measured["delta"]["frames_out"] >= 2 * WARM_OPS

    def test_no_loop_timer_per_op(self, measured):
        """Every ``timeout`` of a warm op is below the clock's resolution
        at ``time_scale`` 1e-6; none of them is a real wall delay."""
        assert measured["delta"]["timers_armed"] == 0
        assert measured["delta"]["events_fired"] > WARM_OPS  # they did fire

    def test_no_task_per_op(self, measured):
        assert measured["tasks"] == 0

    def test_no_queue_object_on_the_frame_path(self, measured):
        assert measured["queues"] == 0

    def test_one_write_per_frame(self, measured):
        delta = measured["delta"]
        assert len(measured["writes"]) == delta["frames_out"]
        assert sum(measured["writes"]) == delta["wire_bytes_out"]
        # Everything written was read: one loop, loopback, all links up.
        assert delta["frames_in"] == delta["frames_out"]
        assert delta["wire_bytes_in"] == delta["wire_bytes_out"]

    def test_wire_bytes_per_op(self, measured):
        """A count, not a time: a cells reply falling back to the
        per-cell tree fails here on any machine."""
        assert measured["node_bytes_out"] / WARM_OPS <= NODE_BYTES_PER_EVALUATE

    def test_loop_turns_per_op(self, measured):
        assert measured["turns"] / WARM_OPS <= 10

    def test_stats_rpc_reports_the_transport_counters(self, measured):
        stats = measured["node_stats"]
        # The idleness keys the quiesce barrier reads, then the node's
        # registry snapshot.
        assert set(stats) == {
            "node", "pending", "service_queue", "inflight", "handled", "transport",
            "counters", "gauges", "histograms",
        }
        assert stats["handled"] == stats["counters"]["handled:evaluate"] > 0
        assert set(stats["gauges"]) == {
            "queue_depth", "disk_reads", "cache_cells", "freshness_pressure",
            "guest_cells",
        }
        assert stats["histograms"] == {}
        transport = stats["transport"]
        assert set(transport) == {
            "messages_sent",
            "bytes_sent",
            "messages_dropped",
            "events_fired",
            "timers_armed",
            "frames_in",
            "frames_out",
            "wire_bytes_in",
            "wire_bytes_out",
        }
        assert all(type(value) is int for value in transport.values())
        assert transport["frames_in"] > 0 and transport["events_fired"] > 0
