"""The asyncio transport: engine timers, socket RPC, failure mapping.

No pytest-asyncio in the container: every test drives its own loop with
``asyncio.run``.  Ports are always OS-assigned (bind 0), so tests can
run in parallel.
"""

import asyncio
import logging
import struct
import time

import pytest

from repro.errors import StorageError
from repro.faults.membership import RPC_FAILED
from repro.transport.asyncio_net import AsyncioEngine, AsyncioTransport

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

    def test_rejects_nonpositive_time_scale(self):
        from repro.errors import NetworkError

        async def main():
            with pytest.raises(NetworkError):
                AsyncioEngine(time_scale=0.0)

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
        """Every task a transport started — the per-link connect task,
        the reader, the writer loop nested in it, pending drains, the
        controller and inbound handlers — is gone once ``aclose``
        returns; callers need no ``all_tasks()`` reaping of their own."""

        async def main():
            peers = await _make_peers("peer-a", "peer-b")
            _echo_service(peers["peer-b"])
            client = peers["peer-a"]
            reply = client.network.request(
                "peer-a", "peer-b", "echo", {"x": 1}, size=16
            )
            await asyncio.wait_for(client.engine.as_future(reply), timeout=10)
            busy = len(asyncio.all_tasks())
            await _close_all(peers)
            return busy, asyncio.all_tasks() - {asyncio.current_task()}

        busy, leftover = asyncio.run(main())
        assert busy > 1  # the RPC really did start link tasks
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
