"""The asyncio transport: engine timers, socket RPC, failure mapping.

No pytest-asyncio in the container: every test drives its own loop with
``asyncio.run``.  Ports are always OS-assigned (bind 0), so tests can
run in parallel.
"""

import asyncio
import itertools
import logging
import struct
import time

import pytest
from hypothesis import given, settings

from repro.config import ClusterConfig, ServeConfig, StashConfig
from repro.data.generator import DatasetSpec
from repro.errors import StorageError
from repro.faults.membership import RPC_FAILED
from repro.sim.engine import Simulator
from repro.serve.server import NodeSpec, build_node
from repro.sim.resources import Store
from repro.storage.node import WORKERS_PER_NODE
from repro.system import CLIENT_ID
from repro.transport.asyncio_net import (
    _DRAIN_BATCH,
    AsyncioEngine,
    AsyncioTransport,
    _Connection,
)
from repro.transport.framing import encode_frame

from tests import strategies

SCALE = 0.02  # 50x compression: 1 simulated second = 20 ms wall


async def _make_peers(*names, time_scale=SCALE):
    """Bound transports with full address maps and self-named endpoints."""
    transports = {}
    addresses = {}
    for name in names:
        transport = AsyncioTransport(name, time_scale=time_scale)
        host, port = await transport.start()
        transports[name] = transport
        addresses[name] = (host, port)
    for transport in transports.values():
        transport.network.set_peers(addresses)
        transport.network.register(transport.network.peer_id)
    return transports


async def _close_all(transports):
    for transport in transports.values():
        await transport.aclose()


def _echo_service(transport):
    """Generator process answering echo / slow / boom on its own endpoint."""
    inbox = transport.network.inbox(transport.network.peer_id)
    network = transport.network

    def service():
        while True:
            message = yield inbox.get()
            if message.kind == "echo":
                network.respond(message, {"echo": message.payload}, size=8)
            elif message.kind == "slow":
                yield transport.engine.timeout(0.5)  # simulated seconds
                network.respond(message, "slow-done", size=8)
            elif message.kind == "boom":
                network.respond_error(message, StorageError("service failed"))
            # "hang": never respond — the caller only sees link death.

    transport.engine.process(service())


def _start_program(engine, program):
    """Interpret a ``strategies.engine_programs`` program on ``engine``;
    returns the log its processes append to as their events fire."""
    events = [engine.event() for _ in range(strategies.ENGINE_PROGRAM_EVENTS)]
    stores = [Store(engine) for _ in range(strategies.ENGINE_PROGRAM_STORES)]
    log = []
    pids = itertools.count()

    def process(body):
        pid = next(pids)  # numbered in the order the processes first run
        for index, step in enumerate(body):
            op, value = step[0], None
            if op == "succeed":
                if not events[step[1]].triggered:
                    events[step[1]].succeed(("event", step[1]))
            elif op == "wait":
                value = yield events[step[1]]
            elif op == "put":
                stores[step[1]].put(step[2])
            elif op == "get":
                value = yield stores[step[1]].get()
            elif op == "sleep":
                value = yield engine.timeout(0, value="slept")
            elif op == "all_of":
                value = yield engine.all_of([events[e] for e in step[1]])
            elif op == "any_of":
                value = yield engine.any_of([events[e] for e in step[1]])
            elif op == "spawn":
                child = engine.process(process(step[1]))
                if step[2]:
                    value = yield child
            log.append((pid, index, op, value))
        return ("done", pid)

    for body in program:
        engine.process(process(body))
    return log


async def _until_quiet(engine):
    """Let the loop turn until the engine stops firing events."""
    fired = -1
    while fired != engine.events_fired:
        fired = engine.events_fired
        await asyncio.sleep(0)
        await asyncio.sleep(0)


class TestEngine:
    def test_timeout_fires_in_scaled_wall_time(self):
        async def main():
            engine = AsyncioEngine(time_scale=0.01)
            started = time.monotonic()
            await engine.as_future(engine.timeout(1.0, value="done"))
            wall = time.monotonic() - started
            engine.close()
            return wall

        wall = asyncio.run(main())
        # 1 simulated second at scale 0.01 = 10 ms wall (plus loop slop).
        assert 0.005 < wall < 0.5

    def test_now_advances_in_simulated_seconds(self):
        async def main():
            engine = AsyncioEngine(time_scale=0.01)
            before = engine.now
            await engine.as_future(engine.timeout(2.0))
            after = engine.now
            engine.close()
            return after - before

        elapsed = asyncio.run(main())
        assert elapsed == pytest.approx(2.0, rel=0.5)

    def test_process_generator_runs(self):
        async def main():
            engine = AsyncioEngine(time_scale=0.001)
            log = []

            def worker():
                log.append("start")
                value = yield engine.timeout(0.5, value=41)
                log.append(value + 1)
                return "finished"

            result = await engine.as_future(engine.process(worker()))
            engine.close()
            return log, result

        log, result = asyncio.run(main())
        assert log == ["start", 42]
        assert result == "finished"

    def test_any_of_and_all_of(self):
        async def main():
            engine = AsyncioEngine(time_scale=0.001)
            index, value = await engine.as_future(
                engine.any_of([engine.timeout(5.0, "slow"), engine.timeout(0.1, "fast")])
            )
            values = await engine.as_future(
                engine.all_of([engine.timeout(0.2, "a"), engine.timeout(0.1, "b")])
            )
            engine.close()
            return index, value, values

        index, value, values = asyncio.run(main())
        assert (index, value) == (1, "fast")
        assert values == ["a", "b"]

    def test_close_cancels_pending_timers(self):
        async def main():
            engine = AsyncioEngine(time_scale=0.001)
            fired = []
            event = engine.timeout(5.0)
            event.add_callback(lambda _ev: fired.append(True))
            engine.close()
            await asyncio.sleep(0.05)
            return fired

        assert asyncio.run(main()) == []

    @settings(max_examples=60, deadline=None)
    @given(strategies.engine_programs())
    def test_zero_delay_program_fires_in_simulator_order(self, program):
        """The due queue is the simulator's ``(time, seq)`` tie-break:
        same-instant events fire in the order they were scheduled."""
        sim = Simulator()
        expected = _start_program(sim, program)
        sim.run()

        async def main():
            engine = AsyncioEngine()
            log = _start_program(engine, program)
            await _until_quiet(engine)
            engine.close()
            return log, engine.timers_armed

        log, timers = asyncio.run(main())
        assert log == expected
        assert timers == 0  # a zero delay never costs a loop timer

    def test_real_delay_fires_after_later_zero_delay_events(self):
        async def main():
            engine = AsyncioEngine(time_scale=0.01)
            order = []
            started = time.monotonic()
            slow = engine.timeout(2.0, value="slow")  # 20 ms wall
            slow.add_callback(lambda _ev: order.append("slow"))
            tiny = engine.timeout(1e-9)  # 1e-11 s wall: below the clock's tick
            tiny.add_callback(lambda _ev: order.append("tiny"))
            engine.event().succeed().add_callback(lambda _ev: order.append("now"))
            await engine.as_future(slow)
            wall = time.monotonic() - started
            armed = engine.timers_armed
            engine.close()
            return order, wall, armed

        order, wall, armed = asyncio.run(main())
        assert order == ["tiny", "now", "slow"]
        assert 0.015 < wall < 0.5
        assert armed == 1  # only the real delay is a loop timer

    def test_self_rescheduling_process_does_not_starve_the_socket(self):
        """The drain is bounded: a process that is always due shares the
        loop with I/O, so an RPC to the same peer is still answered."""

        async def main():
            peers = await _make_peers("peer-a", "peer-b")
            server = peers["peer-b"]
            _echo_service(server)

            def spinner():
                while True:
                    yield server.engine.timeout(0)

            server.engine.process(spinner())
            reply = peers["peer-a"].network.request(
                "peer-a", "peer-b", "echo", "ping", size=8
            )
            value = await asyncio.wait_for(
                peers["peer-a"].engine.as_future(reply), timeout=10
            )
            spun = server.engine.events_fired
            await _close_all(peers)
            return value, spun

        value, spun = asyncio.run(main())
        assert value == {"echo": "ping"}
        assert spun > _DRAIN_BATCH  # it really kept the queue non-empty

    def test_close_drops_queued_events(self):
        async def main():
            engine = AsyncioEngine()
            fired = []
            for _ in range(3):
                engine.event().succeed().add_callback(fired.append)
            engine.timeout(0).add_callback(fired.append)
            engine.close()
            engine.event().succeed().add_callback(fired.append)  # after close
            engine.run_due()
            await asyncio.sleep(0.01)
            return fired, engine.events_fired

        assert asyncio.run(main()) == ([], 0)

    def test_raising_callback_is_recorded_and_the_queue_still_runs(self, caplog):
        async def main():
            engine = AsyncioEngine()
            fired = []
            ticks = []
            engine.tick_hooks.append(ticks.append)

            def boom(_event):
                raise StorageError("callback failed")

            engine.event().succeed("a").add_callback(lambda ev: fired.append(ev.value))
            engine.event().succeed("b").add_callback(boom)
            engine.event().succeed("c").add_callback(lambda ev: fired.append(ev.value))
            await _until_quiet(engine)
            unhandled, engine.unhandled[:] = list(engine.unhandled), []
            engine.close()
            return fired, unhandled, len(ticks), engine.events_fired

        with caplog.at_level(logging.CRITICAL, logger="repro.transport.asyncio_net"):
            fired, unhandled, ticks, events_fired = asyncio.run(main())
        assert fired == ["a", "c"]
        assert [type(exc) for exc in unhandled] == [StorageError]
        assert ticks == events_fired == 3  # one tick per fired event

    def test_rejects_nonpositive_time_scale(self):
        from repro.errors import NetworkError

        async def main():
            # NaN and inf pass a bare ``<= 0`` test and then wedge every timer.
            for scale in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(NetworkError):
                    AsyncioEngine(time_scale=scale)

        asyncio.run(main())


class TestSocketRpc:
    def test_round_trip(self):
        async def main():
            peers = await _make_peers("peer-a", "peer-b")
            _echo_service(peers["peer-b"])
            client = peers["peer-a"]
            reply = client.network.request(
                "peer-a", "peer-b", "echo", {"x": (1, 2.5)}, size=16
            )
            value = await asyncio.wait_for(
                client.engine.as_future(reply), timeout=10
            )
            await _close_all(peers)
            return value

        assert asyncio.run(main()) == {"echo": {"x": (1, 2.5)}}

    def test_many_concurrent_rpcs_keep_order(self):
        async def main():
            peers = await _make_peers("peer-a", "peer-b")
            _echo_service(peers["peer-b"])
            client = peers["peer-a"]
            replies = [
                client.network.request("peer-a", "peer-b", "echo", {"i": i}, size=8)
                for i in range(40)
            ]
            values = await asyncio.gather(
                *(
                    asyncio.wait_for(client.engine.as_future(r), timeout=10)
                    for r in replies
                )
            )
            await _close_all(peers)
            return [v["echo"]["i"] for v in values]

        assert asyncio.run(main()) == list(range(40))

    def test_local_endpoint_short_circuits(self):
        async def main():
            peers = await _make_peers("peer-a")
            transport = peers["peer-a"]
            _echo_service(transport)
            reply = transport.network.request(
                "peer-a", "peer-a", "echo", "loopback", size=8
            )
            value = await asyncio.wait_for(
                transport.engine.as_future(reply), timeout=10
            )
            await _close_all(peers)
            return value

        assert asyncio.run(main()) == {"echo": "loopback"}

    def test_remote_error_reaches_caller_as_exception(self):
        async def main():
            peers = await _make_peers("peer-a", "peer-b")
            _echo_service(peers["peer-b"])
            client = peers["peer-a"]
            reply = client.network.request("peer-a", "peer-b", "boom", None, size=8)
            try:
                with pytest.raises(StorageError, match="service failed"):
                    await asyncio.wait_for(
                        client.engine.as_future(reply), timeout=10
                    )
            finally:
                await _close_all(peers)

        asyncio.run(main())

    def test_engine_timeout_races_slow_rpc(self):
        async def main():
            peers = await _make_peers("peer-a", "peer-b")
            _echo_service(peers["peer-b"])
            client = peers["peer-a"]
            slow = client.network.request("peer-a", "peer-b", "slow", None, size=8)
            race = client.engine.any_of([slow, client.engine.timeout(0.1)])
            index, _ = await asyncio.wait_for(
                client.engine.as_future(race), timeout=10
            )
            # The late real reply must still resolve the original event.
            value = await asyncio.wait_for(
                client.engine.as_future(slow), timeout=10
            )
            await _close_all(peers)
            return index, value

        index, value = asyncio.run(main())
        assert index == 1  # 0.1 simulated s beats the 0.5 s service delay
        assert value == "slow-done"

    def test_connection_drop_resolves_rpc_failed(self):
        async def main():
            peers = await _make_peers("peer-a", "peer-b")
            _echo_service(peers["peer-b"])
            client = peers["peer-a"]
            pending = client.network.request(
                "peer-a", "peer-b", "hang", None, size=8
            )
            await asyncio.sleep(0.02)  # let the request reach the peer
            await peers["peer-b"].aclose()  # die mid-request
            value = await asyncio.wait_for(
                client.engine.as_future(pending), timeout=10
            )
            await client.aclose()
            return value

        assert asyncio.run(main()) is RPC_FAILED

    def test_unroutable_peer_resolves_rpc_failed(self):
        async def main():
            peers = await _make_peers("peer-a")
            client = peers["peer-a"]
            reply = client.network.request(
                "peer-a", "peer-nowhere", "echo", None, size=8
            )
            value = await asyncio.wait_for(
                client.engine.as_future(reply), timeout=10
            )
            dropped = client.network.messages_dropped
            await _close_all(peers)
            return value, dropped

        value, dropped = asyncio.run(main())
        assert value is RPC_FAILED
        assert dropped == 1

    def test_forwarded_reply_obligation_relays(self):
        """B forwards A's request to C; C's answer must reach A (the
        coordinator evaluate -> evaluate_guest reroute shape)."""

        async def main():
            peers = await _make_peers("peer-a", "peer-b", "peer-c")
            b, c = peers["peer-b"], peers["peer-c"]
            _echo_service(c)

            def forwarder():
                inbox = b.network.inbox("peer-b")
                while True:
                    message = yield inbox.get()
                    b.network.send(
                        "peer-b",
                        "peer-c",
                        "echo",
                        message.payload,
                        size=8,
                        reply_to=message.reply_to,
                    )

            b.engine.process(forwarder())
            client = peers["peer-a"]
            reply = client.network.request(
                "peer-a", "peer-b", "job", {"v": 9}, size=8
            )
            value = await asyncio.wait_for(
                client.engine.as_future(reply), timeout=10
            )
            await _close_all(peers)
            return value

        assert asyncio.run(main()) == {"echo": {"v": 9}}

    def test_gossip_endpoint_routes_to_owning_peer(self):
        async def main():
            peers = await _make_peers("peer-a", "peer-b")
            b = peers["peer-b"]
            received = []
            gossip_inbox = b.network.register("gossip:peer-b")

            def gossip_agent():
                while True:
                    message = yield gossip_inbox.get()
                    received.append(message.payload)

            b.engine.process(gossip_agent())
            peers["peer-a"].network.send(
                "gossip:peer-a", "gossip:peer-b", "gossip", {"view": 1}, size=8
            )
            for _ in range(100):
                if received:
                    break
                await asyncio.sleep(0.01)
            await _close_all(peers)
            return received

        assert asyncio.run(main()) == [{"view": 1}]


class TestTaskLifetime:
    def test_aclose_leaves_no_tasks_behind(self):
        """Once ``aclose`` returns nothing of the transport is left: no
        pending task, no open connection, no listening or connected
        socket (every ``connection_lost`` has already run); callers need
        no ``all_tasks()`` reaping of their own, and warnings-as-errors
        never sees a ``ResourceWarning``."""

        async def main():
            peers = await _make_peers("peer-a", "peer-b")
            _echo_service(peers["peer-b"])
            client, server = peers["peer-a"].network, peers["peer-b"].network
            reply = client.request("peer-a", "peer-b", "echo", {"x": 1}, size=16)
            value = await asyncio.wait_for(
                peers["peer-a"].engine.as_future(reply), timeout=10
            )
            established = [len(client._connections), len(server._connections)]
            sockets = [
                connection.transport.get_extra_info("socket")
                for network in (client, server)
                for connection in network._connections
            ] + [sock for network in (client, server) for sock in network._server.sockets]
            await _close_all(peers)
            return (
                value,
                established,
                asyncio.all_tasks() - {asyncio.current_task()},
                [len(client._connections), len(server._connections)],
                [sock.fileno() for sock in sockets],
            )

        value, established, leftover, connections, filenos = asyncio.run(main())
        # A connection was really dialed and accepted, and an RPC answered.
        assert value == {"echo": {"x": 1}}
        assert established == [1, 1]
        assert leftover == set()
        assert connections == [0, 0]
        assert filenos == [-1] * 4  # two connected ends, two listeners

    def test_aclose_while_still_dialing_fails_the_rpc_and_leaves_nothing(self):
        """A link that never connected: its backlog is dropped, its RPC
        resolves to ``RPC_FAILED`` and the dial task is gone."""

        async def main():
            peers = await _make_peers("peer-a")
            client = peers["peer-a"]
            # A bound-then-closed port: every dial attempt is refused.
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            address = probe.sockets[0].getsockname()[:2]
            probe.close()
            await probe.wait_closed()
            client.network.set_peers({"peer-gone": address})
            reply = client.network.request(
                "peer-a", "peer-gone", "echo", None, size=8
            )
            future = client.engine.as_future(reply)
            await asyncio.sleep(0.01)  # the dial is now between two attempts
            dialing = not client.network._links["peer-gone"].dial.done()
            await client.aclose()
            return (
                dialing,
                await asyncio.wait_for(future, timeout=10),
                asyncio.all_tasks() - {asyncio.current_task()},
            )

        dialing, value, leftover = asyncio.run(main())
        assert dialing
        assert value is RPC_FAILED
        assert leftover == set()


class TestHostileFrames:
    """Bytes a peer controls: a stream that is not frames costs its sender
    the connection — one warning, no exception on the loop — and the node
    keeps answering everyone else."""

    HOSTILE = {
        "non-utf8 body": struct.pack(">I", 5) + b"\xff\xfe\x00ab",
        "oversized header": struct.pack(">I", 2**31),
        "json that is no codec tree": struct.pack(">I", 18) + b'{"__t": "cellkey"}',
    }

    def test_malformed_inbound_stream_is_closed_not_raised(self, caplog):
        async def main():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: loop_errors.append(context)
            )
            peers = await _make_peers("peer-a", "peer-b")
            _echo_service(peers["peer-b"])
            host, port = peers["peer-a"].network._peers["peer-b"]
            closed = {}
            for name, data in self.HOSTILE.items():
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(data)
                await writer.drain()
                # EOF: the node hung up on us.
                closed[name] = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                await writer.wait_closed()
            reply = peers["peer-a"].network.request(
                "peer-a", "peer-b", "echo", "still serving", size=8
            )
            value = await asyncio.wait_for(
                peers["peer-a"].engine.as_future(reply), timeout=10
            )
            await _close_all(peers)
            return closed, value, loop_errors

        with caplog.at_level(logging.WARNING, logger="repro.transport.asyncio_net"):
            closed, value, loop_errors = asyncio.run(main())
        assert closed == dict.fromkeys(self.HOSTILE, b"")
        assert value == {"echo": "still serving"}
        assert loop_errors == []
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == len(self.HOSTILE)
        assert all("peer-b" in w and "127.0.0.1" in w for w in warnings)


class TestHostileOneWayMessages:
    """A one-way message its handler cannot serve costs only itself: the
    node counts it, the engine records it, and the worker that ran it
    takes the next message — more such frames than the node has workers
    still leave it answering ``ping``."""

    CONFIG = StashConfig(
        cluster=ClusterConfig(num_nodes=1), serve=ServeConfig(time_scale=1e-6)
    )

    @pytest.mark.parametrize(
        "kind", ["bogus", "populate"], ids=["unknown kind", "populate without cells"]
    )
    def test_node_outlives_more_failures_than_workers(self, kind, caplog):
        frames = WORKERS_PER_NODE + 1
        scale = self.CONFIG.serve.time_scale

        async def main():
            node_transport = AsyncioTransport("node-0", time_scale=scale)
            client = AsyncioTransport(CLIENT_ID, time_scale=scale)
            addresses = {
                "node-0": await node_transport.start(),
                CLIENT_ID: await client.start(),
            }
            spec = DatasetSpec(num_records=1_000, num_days=1, seed=3)
            node = build_node(
                NodeSpec(
                    node_index=0, node_ids=("node-0",), dataset=spec, config=self.CONFIG
                ),
                node_transport,
            )
            node.start()
            client.network.register(CLIENT_ID)
            for transport in (node_transport, client):
                transport.network.set_peers(addresses)
            for _ in range(frames):
                client.network.send(CLIENT_ID, "node-0", kind, {}, size=16)
            reply = client.network.request(CLIENT_ID, "node-0", "ping", {}, size=16)
            value = await asyncio.wait_for(client.engine.as_future(reply), timeout=10)
            engine = node_transport.engine
            unhandled, engine.unhandled[:] = list(engine.unhandled), []
            await _close_all({"node": node_transport, "client": client})
            return value, node.counters.get(f"errors:{kind}"), unhandled

        with caplog.at_level(logging.CRITICAL, logger="repro.transport.asyncio_net"):
            value, errors, unhandled = asyncio.run(main())
        assert value == {"node": "node-0", "ok": True}
        assert errors == frames
        assert len(unhandled) == frames


def _msg_frame(index):
    """A one-way message frame as a peer would send it."""
    return encode_frame(
        {
            "t": "msg",
            "sender": "peer-x",
            "recipient": "peer-b",
            "kind": "note",
            "payload": {"i": index},
            "size": 8,
            "id": None,
        }
    )


class _FakeTransport:
    """The slice of ``asyncio.Transport`` a connection touches."""

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed

    def get_extra_info(self, name):
        return ("fake", 0)


#: Two frames of equal length whose halves, swapped between two
#: connections, line up as frames again — with bodies that are not JSON.
_LEFT, _RIGHT = encode_frame(["xxxxxxxxx"]), encode_frame("yyyyyyyyyyy")
assert len(_LEFT) == len(_RIGHT)

#: A frame every peer dispatches and ignores: the reply to an RPC nobody
#: is waiting for any more.
_LATE_REPLY = encode_frame({"t": "reply", "id": "peer-x/0", "value": None})

#: name -> byte streams, one per connection, each of which must cost its
#: sender that connection.  ``None`` ends a stream with EOF.
HOSTILE_STREAMS = {
    "valid frames then garbage": [[_LATE_REPLY, _LATE_REPLY + b"\x00\x00\x00\x03\xff\xfe\xfd"]],
    "truncated frame then EOF": [[_LATE_REPLY + _LATE_REPLY[:-5], None]],
    "zero-length frame": [[struct.pack(">I", 0)]],
    "oversized header": [[_LATE_REPLY, struct.pack(">I", 2**31)]],
    "body that is no codec tree": [[struct.pack(">I", 18) + b'{"__t": "cellkey"}']],
    "frames interleaved across two connections": [
        [_LEFT[:10], _RIGHT[10:]],
        [_RIGHT[:10], _LEFT[10:]],
    ],
}


def _warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]


class TestHostileStreams:
    """The read path is ``data_received`` -> ``FrameDecoder.feed`` ->
    dispatch: however the bytes are cut it dispatches the same frames,
    and whatever is not a frame costs exactly its own connection."""

    @settings(max_examples=60, deadline=None)
    @given(strategies.chunkings(b"".join(_msg_frame(i) for i in range(6))))
    def test_any_chunking_dispatches_the_same_frames_in_order(self, chunks):
        loop = asyncio.new_event_loop()
        try:
            transport = AsyncioTransport("peer-b", loop=loop)
            inbox = transport.network.register("peer-b")
            connection = _Connection(transport.network)
            connection.connection_made(_FakeTransport())
            for chunk in chunks:
                connection.data_received(chunk)
            assert [message.payload["i"] for message in inbox.items] == list(range(6))
            assert transport.network.frames_in == 6
            assert transport.network.wire_bytes_in == sum(map(len, chunks))
            assert not connection.transport.closed
        finally:
            loop.close()

    @pytest.mark.parametrize("name", HOSTILE_STREAMS)
    def test_hostile_inbound_stream_costs_only_its_connection(self, name, caplog):
        async def main():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: loop_errors.append(context)
            )
            peers = await _make_peers("peer-a", "peer-b")
            _echo_service(peers["peer-b"])
            host, port = peers["peer-a"].network._peers["peer-b"]
            streams = [
                (*(await asyncio.open_connection(host, port)), chunks)
                for chunks in HOSTILE_STREAMS[name]
            ]
            for step in range(max(len(chunks) for _, _, chunks in streams)):
                for _reader, writer, chunks in streams:
                    if step >= len(chunks):
                        continue
                    if chunks[step] is None:
                        writer.write_eof()
                    else:
                        writer.write(chunks[step])
                        await writer.drain()
                await asyncio.sleep(0.01)  # each step lands as its own chunk
            closed = []
            for reader, writer, _ in streams:
                # EOF: the node hung up on us.
                closed.append(await asyncio.wait_for(reader.read(), timeout=10))
                writer.close()
                await writer.wait_closed()
            reply = peers["peer-a"].network.request(
                "peer-a", "peer-b", "echo", "ping", size=8
            )
            value = await asyncio.wait_for(
                peers["peer-a"].engine.as_future(reply), timeout=10
            )
            await _close_all(peers)
            return closed, value, loop_errors

        with caplog.at_level(logging.WARNING, logger="repro.transport.asyncio_net"):
            closed, value, loop_errors = asyncio.run(main())
        assert closed == [b""] * len(HOSTILE_STREAMS[name])
        assert value == {"echo": "ping"}  # on a fresh connection
        assert loop_errors == []
        warnings = _warnings(caplog)
        assert len(warnings) == len(HOSTILE_STREAMS[name])  # one per connection
        assert all("peer-b" in w and "127.0.0.1" in w for w in warnings)

    @pytest.mark.parametrize("name", HOSTILE_STREAMS)
    def test_hostile_reply_stream_fails_the_dialed_link(self, name, caplog):
        """The same bytes coming back on a link this peer dialed: the
        RPC in flight on it resolves to ``RPC_FAILED``."""
        chunks = HOSTILE_STREAMS[name][0]
        hung_up = None

        async def hostile_server(reader, writer):
            await reader.read(4)  # the request has arrived
            for chunk in chunks:
                if chunk is None:
                    writer.write_eof()
                else:
                    writer.write(chunk)
                    await writer.drain()
                await asyncio.sleep(0.01)
            await reader.read()  # until the peer hangs up
            writer.close()
            await writer.wait_closed()
            hung_up.set()

        async def main():
            nonlocal hung_up
            hung_up = asyncio.Event()
            peers = await _make_peers("peer-a", "peer-b")
            _echo_service(peers["peer-b"])
            client = peers["peer-a"]
            server = await asyncio.start_server(hostile_server, "127.0.0.1", 0)
            client.network.set_peers(
                {"peer-x": server.sockets[0].getsockname()[:2]}
            )
            doomed = client.network.request("peer-a", "peer-x", "echo", 1, size=8)
            value = await asyncio.wait_for(
                client.engine.as_future(doomed), timeout=10
            )
            healthy = client.network.request("peer-a", "peer-b", "echo", 2, size=8)
            echoed = await asyncio.wait_for(
                client.engine.as_future(healthy), timeout=10
            )
            links = sorted(client.network._links)
            await asyncio.wait_for(hung_up.wait(), timeout=10)
            await _close_all(peers)
            server.close()
            await server.wait_closed()
            return value, echoed, links

        with caplog.at_level(logging.WARNING, logger="repro.transport.asyncio_net"):
            value, echoed, links = asyncio.run(main())
        assert value is RPC_FAILED
        assert echoed == {"echo": 2}
        assert links == ["peer-b"]  # the failed link is gone, not retried
        warnings = _warnings(caplog)
        assert len(warnings) == 1 and "peer-a" in warnings[0]
