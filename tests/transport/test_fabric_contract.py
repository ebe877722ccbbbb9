"""The fabric contract: one suite, run unchanged on both fabrics.

``repro.sim.network.Network`` owns endpoints, message identity,
accounting, fault rules, tracing and the RPC envelope; a fabric only
implements the two delivery hooks.  Every case below therefore runs
against the simulator fabric *and* a two-peer in-process
``AsyncioNetwork`` pair, through a harness that hides only how each is
driven (``sim.run`` vs. stepping a private asyncio loop) and that a
socket cluster has one ``Network`` object per peer — rules are installed
on each, counters are summed.
"""

import asyncio
import time
import types

import pytest

from repro.config import CostModel
from repro.errors import NetworkError, StorageError
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.sim.engine import Simulator
from repro.obs.registry import Counters
from repro.sim.network import Network
from tests.transport.test_asyncio_net import _close_all, _make_peers

#: Wall-clock guard on any single harness step of the socket fabric.
WALL_GUARD_S = 10.0


class _SimFabric:
    """Peers ``a`` and ``b`` on one simulated network."""

    exact_time = True

    def __init__(self):
        self.sim = Simulator()
        self.net = Network(self.sim, CostModel())
        self.networks = [self.net]
        for endpoint in ("a", "b"):
            self.net.register(endpoint)

    def network(self, peer):
        return self.net

    def engine(self, peer):
        return self.sim

    def spawn(self, peer, generator):
        self.sim.process(generator)

    def run(self, peer, generator):
        return self.sim.run(until=self.sim.process(generator))

    def wait_until(self, predicate):
        self.sim.run()
        assert predicate()

    def close(self):
        pass


class _SocketFabric:
    """Peers ``a`` and ``b`` as two AsyncioTransports on a private loop."""

    exact_time = False

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.transports = self.loop.run_until_complete(_make_peers("a", "b"))
        self.networks = [t.network for t in self.transports.values()]

    def network(self, peer):
        return self.transports[peer].network

    def engine(self, peer):
        return self.transports[peer].engine

    def spawn(self, peer, generator):
        self.engine(peer).process(generator)

    def run(self, peer, generator):
        engine = self.engine(peer)
        future = engine.as_future(engine.process(generator))
        return self.loop.run_until_complete(
            asyncio.wait_for(future, WALL_GUARD_S)
        )

    def wait_until(self, predicate):
        deadline = time.monotonic() + WALL_GUARD_S
        while not predicate() and time.monotonic() < deadline:
            self.loop.run_until_complete(asyncio.sleep(0.002))
        assert predicate()

    def close(self):
        self.loop.run_until_complete(_close_all(self.transports))
        self.loop.close()


@pytest.fixture(params=[_SimFabric, _SocketFabric], ids=["sim", "socket"])
def fabric(request):
    instance = request.param()
    yield instance
    instance.close()


# -- shared helpers (plain generator processes, as node code is) ----------


def _total(fabric, counter):
    return sum(getattr(net, counter) for net in fabric.networks)


def _everywhere(fabric, action):
    """What an injector in every process would do: act on each network."""
    for net in fabric.networks:
        action(net)


def _collector(fabric, peer, endpoint=None):
    """Serve ``endpoint`` forever: record every message, echo every RPC."""
    net = fabric.network(peer)
    inbox = net.inbox(endpoint or peer)
    received = []

    def serve():
        while True:
            message = yield inbox.get()
            received.append(message)
            if message.reply_to is not None:
                if message.kind == "boom":
                    net.respond_error(message, StorageError("service failed"))
                else:
                    net.respond(message, {"echo": message.payload}, size=40)

    fabric.spawn(peer, serve())
    return received


def _call(fabric, sender, recipient, kind="echo", payload=None, size=100):
    """Run one RPC to completion; returns (value, elapsed simulated s)."""
    net = fabric.network(sender)
    engine = fabric.engine(sender)

    def client():
        started = engine.now
        value = yield net.request(sender, recipient, kind, payload, size=size)
        return value, engine.now - started

    return fabric.run(sender, client())


def _sleep(fabric, peer, seconds):
    engine = fabric.engine(peer)

    def nap():
        yield engine.timeout(seconds)

    fabric.run(peer, nap())


# -- the contract -----------------------------------------------------------


def test_request_respond_round_trip(fabric):
    received = _collector(fabric, "b")
    value, _elapsed = _call(fabric, "a", "b", payload=21)
    assert value == {"echo": 21}
    assert [(m.sender, m.recipient, m.kind) for m in received] == [
        ("a", "b", "echo")
    ]


def test_respond_error_reaches_the_caller_as_the_exception(fabric):
    _collector(fabric, "b")
    with pytest.raises(StorageError, match="service failed"):
        _call(fabric, "a", "b", kind="boom")


def test_respond_without_reply_slot_raises(fabric):
    net_b = fabric.network("b")

    def server():
        message = yield net_b.inbox("b").get()
        with pytest.raises(NetworkError, match="expects no reply"):
            net_b.respond(message, None)
        with pytest.raises(NetworkError, match="expects no reply"):
            net_b.respond_error(message, StorageError("nope"))
        return message.kind

    fabric.network("a").send("a", "b", "oneway", None)
    assert fabric.run("b", server()) == "oneway"


def test_counters_count_request_and_reply(fabric):
    _collector(fabric, "b")
    _call(fabric, "a", "b", size=100)  # the collector replies with size=40
    assert _total(fabric, "messages_sent") == 2
    assert _total(fabric, "bytes_sent") == 140
    assert _total(fabric, "messages_dropped") == 0


def test_down_node_traffic_is_dropped_both_directions(fabric):
    at_a, at_b = _collector(fabric, "a"), _collector(fabric, "b")
    _everywhere(fabric, lambda net: net.set_down("b"))
    assert all(net.is_down("b") for net in fabric.networks)
    fabric.network("a").send("a", "b", "to-down", None)
    fabric.network("b").send("b", "a", "from-down", None)
    assert _total(fabric, "messages_dropped") == 2
    _sleep(fabric, "a", 1.0)
    assert at_a == [] and at_b == []
    _everywhere(fabric, lambda net: net.set_down("b", False))
    fabric.network("a").send("a", "b", "to-up", None)
    fabric.wait_until(lambda: [m.kind for m in at_b] == ["to-up"])
    assert _total(fabric, "messages_dropped") == 2


def test_reply_from_a_node_that_went_down_is_dropped(fabric):
    net_a, net_b = fabric.network("a"), fabric.network("b")

    def server():
        message = yield net_b.inbox("b").get()
        _everywhere(fabric, lambda net: net.set_down("b"))
        net_b.respond(message, "too late", size=8)

    reply = net_a.request("a", "b", "echo", None)
    fabric.run("b", server())
    _sleep(fabric, "a", 1.0)
    assert not reply.triggered
    assert _total(fabric, "messages_dropped") == 1
    assert _total(fabric, "messages_sent") == 2


def test_set_down_rejects_an_endpoint_the_fabric_does_not_know(fabric):
    for net in fabric.networks:
        with pytest.raises(NetworkError, match="unknown node"):
            net.set_down("ghost")
        net.set_down("a")  # local endpoint or a peer in the address map
        net.set_down("b")


def test_drop_rule_bites_only_inside_its_window_and_direction(fabric):
    at_a, at_b = _collector(fabric, "a"), _collector(fabric, "b")
    net_a, net_b = fabric.network("a"), fabric.network("b")
    engine = fabric.engine("a")
    # [t0+10, t0+20) simulated s; sends at +5, +15, +25 leave 5 s (100 ms
    # wall on sockets) of slack either side of each boundary.
    start, until = engine.now + 10.0, engine.now + 20.0
    _everywhere(
        fabric, lambda net: net.add_drop_rule(start, until, src="a", dst="b")
    )
    sent_at = {}

    def sender():
        for label, wait in (("before", 5.0), ("inside", 10.0), ("after", 10.0)):
            yield engine.timeout(wait)
            sent_at[label] = engine.now
            net_a.send("a", "b", label, None)
            if label == "inside":
                net_b.send("b", "a", "reverse", None)  # other direction

    fabric.run("a", sender())
    assert start <= sent_at["inside"] < until
    assert sent_at["before"] < start and sent_at["after"] >= until
    fabric.wait_until(
        lambda: [m.kind for m in at_b] == ["before", "after"]
        and [m.kind for m in at_a] == ["reverse"]
    )
    assert _total(fabric, "messages_dropped") == 1


def test_delay_rule_adds_its_extra(fabric):
    """Installed through the injector: ``delay_link`` works on any fabric."""
    _collector(fabric, "b")
    _value, baseline = _call(fabric, "a", "b")
    extra = 5.0
    assert baseline < extra
    schedule = FaultSchedule(
        [FaultEvent("delay_link", at=0.0, until=1e9, src="a", dst="b", extra=extra)]
    )
    for net in fabric.networks:
        system = types.SimpleNamespace(
            network=net,
            sim=net.sim,
            nodes={"a": None, "b": None},
            fault_counters=Counters(),
        )
        FaultInjector(system, schedule).install()
    value, delayed = _call(fabric, "a", "b", payload="late")
    assert value == {"echo": "late"}
    if fabric.exact_time:
        # One direction matches the rule; the reply leg is untouched.
        assert delayed == pytest.approx(baseline + extra, abs=1e-12)
    else:
        assert delayed >= extra  # scaled wall time: a lower bound


def test_gossip_endpoint_shares_its_owners_fate(fabric):
    fabric.network("b").register("gossip:b")
    at_gossip = _collector(fabric, "b", endpoint="gossip:b")
    net_a = fabric.network("a")
    _everywhere(fabric, lambda net: net.set_down("b"))
    net_a.send("a", "gossip:b", "gossip", {"round": 1})
    assert _total(fabric, "messages_dropped") == 1
    _everywhere(fabric, lambda net: net.set_down("b", False))
    net_a.send("a", "gossip:b", "gossip", {"round": 2})
    fabric.wait_until(lambda: [m.payload for m in at_gossip] == [{"round": 2}])


def test_local_request_carries_its_rpc_span(fabric):
    net = fabric.network("a")
    net.tracer.enabled = True
    net.register("a2")  # a second endpoint on the same peer: local delivery
    received = _collector(fabric, "a", endpoint="a2")
    root = net.tracer.begin("root", "client", node="a")
    engine = fabric.engine("a")

    def client():
        value = yield net.request("a", "a2", "echo", 1, parent=root)
        return value

    assert fabric.run("a", client()) == {"echo": 1}
    (rpc,) = [span for span in net.tracer.spans if span.name == "rpc:echo"]
    assert rpc.parent is root
    assert received[0].span is rpc
    assert rpc.end is not None and rpc.end <= engine.now
