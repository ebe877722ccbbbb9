"""Tests for the network and disk models."""

import pytest

from repro.config import ClusterConfig, CostModel, ObservabilityConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.errors import NetworkError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.sim.disk import Disk
from repro.sim.engine import Simulator
from repro.sim.network import Network


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def cost():
    return CostModel()


@pytest.fixture()
def net(sim, cost):
    network = Network(sim, cost)
    network.register("a")
    network.register("b")
    return network


class TestNetwork:
    def test_send_pays_latency_and_bandwidth(self, sim, net, cost):
        net.send("a", "b", "ping", None, size=10_000)
        received = []

        def server():
            msg = yield net.inbox("b").get()
            received.append((sim.now, msg.kind))

        sim.process(server())
        sim.run()
        expected = cost.network_latency + 10_000 / cost.network_bandwidth
        assert received == [(pytest.approx(expected), "ping")]

    def test_local_send_free(self, sim, net):
        net.send("a", "a", "self", None, size=1_000_000)
        received = []

        def server():
            msg = yield net.inbox("a").get()
            received.append(sim.now)

        sim.process(server())
        sim.run()
        assert received == [0.0]

    def test_unknown_node(self, net):
        with pytest.raises(NetworkError):
            net.send("a", "nope", "x", None)
        with pytest.raises(NetworkError):
            net.inbox("ghost")

    def test_rpc_round_trip(self, sim, net, cost):
        def server():
            msg = yield net.inbox("b").get()
            net.respond(msg, msg.payload * 2, size=100)

        def client():
            reply = net.request("a", "b", "double", 21, size=100)
            value = yield reply
            return (sim.now, value)

        sim.process(server())
        at, value = sim.run(until=sim.process(client()))
        assert value == 42
        one_way = cost.network_time(100)
        assert at == pytest.approx(2 * one_way)

    def test_respond_without_reply_slot(self, sim, net):
        net.send("a", "b", "oneway", None)

        def server():
            msg = yield net.inbox("b").get()
            with pytest.raises(NetworkError):
                net.respond(msg, None)

        sim.process(server())
        sim.run()

    def test_respond_error_fails_caller(self, sim, net):
        def server():
            msg = yield net.inbox("b").get()
            net.respond_error(msg, ValueError("server-side"))

        def client():
            try:
                yield net.request("a", "b", "x", None)
            except ValueError as exc:
                return str(exc)

        sim.process(server())
        assert sim.run(until=sim.process(client())) == "server-side"

    def test_counters(self, sim, net):
        net.send("a", "b", "x", None, size=500)
        net.send("a", "b", "y", None, size=700)
        drain = []

        def server():
            for _ in range(2):
                msg = yield net.inbox("b").get()
                drain.append(msg.kind)

        sim.process(server())
        sim.run()
        assert net.messages_sent == 2
        assert net.bytes_sent == 1200

    def test_queue_depth(self, sim, net):
        for _ in range(5):
            net.send("a", "b", "x", None)
        sim.run()
        assert net.queue_depth("b") == 5
        assert net.queue_depth("a") == 0


class TestDisk:
    def test_read_time(self, sim, cost):
        disk = Disk(sim, cost, "n0", channels=1)
        done = sim.process(disk.read(1_000_000))
        sim.run(until=done)
        assert sim.now == pytest.approx(cost.disk_read_time(1_000_000))
        assert disk.reads == 1
        assert disk.bytes_read == 1_000_000

    def test_channel_contention_serializes(self, sim, cost):
        disk = Disk(sim, cost, "n0", channels=1)
        done = sim.all_of([sim.process(disk.read(0)) for _ in range(3)])
        sim.run(until=done)
        # Three seeks back-to-back on one channel.
        assert sim.now == pytest.approx(3 * cost.disk_seek)

    def test_two_channels_parallel(self, sim, cost):
        disk = Disk(sim, cost, "n0", channels=2)
        done = sim.all_of([sim.process(disk.read(0)) for _ in range(2)])
        sim.run(until=done)
        assert sim.now == pytest.approx(cost.disk_seek)

    def test_data_scale_multiplier(self, sim):
        fast = CostModel(data_scale=1.0)
        slow = CostModel(data_scale=100.0)
        assert slow.disk_read_time(10_000) > fast.disk_read_time(10_000)


class TestColdScanContention:
    """Four cold queries fired at once on two nodes: three of their scans
    reach node-1 at one instant and queue for its two disk channels.  The
    latencies and ``disk:wait`` spans are pinned to the values of the
    build where every disk read was a process of its own, so running a
    read inside its scan (``yield from``) is seen not to reorder them."""

    LATENCIES = ["0.0138792", "0.013885296", "0.017903093333333335", "0.009860946666666667"]
    WAITS = [
        ("node-1", "0.0016127040000000002", "0.005630501333333334"),
        ("node-1", "0.0016127040000000002", "0.005636597333333334"),
        ("node-1", "0.005630501333333334", "0.009654394666666666"),
        ("node-1", "0.005636597333333334", "0.009660490666666667"),
        ("node-1", "0.009654394666666666", "0.013678288"),
    ]

    @staticmethod
    def query(i: int) -> AggregationQuery:
        return AggregationQuery(
            bbox=BoundingBox(33, 37, -108 + 0.5 * i, -100 + 0.5 * i),
            time_range=TimeKey.of(2013, 2, 2).epoch_range(),
            resolution=Resolution(3, TemporalResolution.DAY),
        )

    def test_queued_reads_keep_their_order(self):
        config = StashConfig(
            cluster=ClusterConfig(num_nodes=2),
            observability=ObservabilityConfig(trace=True),
        )
        cluster = StashCluster(small_test_dataset(num_records=6_000), config)
        results = cluster.run_concurrent([self.query(i) for i in range(4)])
        cluster.drain()
        assert all(result.completeness == 1.0 for result in results)
        assert [repr(result.latency) for result in results] == self.LATENCIES
        spans = cluster.tracer.spans
        waits = [(s.node, repr(s.start), repr(s.end)) for s in spans if s.name == "disk:wait"]
        assert waits == self.WAITS
        # Three reads meet at one instant, one channel already busy: one
        # takes the free channel and two queue behind it.
        instant = self.WAITS[0][1]
        reads = [s for s in spans if s.name == "disk:read"]
        assert [repr(s.start) for s in reads].count(instant) == 1
        assert [w[1] for w in waits].count(instant) == 2
        assert {s.node for s in reads} == {"node-1"}
