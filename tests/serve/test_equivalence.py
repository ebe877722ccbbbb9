"""Sim-vs-socket equivalence: the acceptance gate of the serve backend.

Same seed, same workload, serial replay with quiesce barriers, no
faults, no eviction pressure: every answer must be **byte-identical**
(exact float equality on each SummaryVector, identical key sets,
identical completeness) across the discrete-event and asyncio-socket
transports.  See docs/serving.md for why those preconditions matter.
"""

import asyncio
import threading

import pytest

from repro.config import (
    ClusterConfig,
    FaultConfig,
    ObservabilityConfig,
    ServeConfig,
    StashConfig,
)
from repro.core.cluster import StashCluster
from repro.data.generator import DatasetSpec, SyntheticNAMGenerator
from repro.faults.schedule import FaultEvent
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.obs.registry import MetricsRegistry
from repro.query.model import AggregationQuery
from repro.serve.driver import connect_client, evaluate_serial
from repro.serve.http import (
    SimBackend,
    SocketBackend,
    StashHttpServer,
    aggregate_body,
    canonical_json,
    query_fingerprint,
)
from repro.serve.server import NodeSpec, build_node
from repro.system import CLIENT_ID, QueryClient
from repro.transport.asyncio_net import AsyncioTransport
from repro.workload.trace import query_to_dict

from tests.serve._http import http_get, http_post_bytes

SPEC = DatasetSpec(
    num_records=6_000, start_day=(2013, 2, 1), num_days=2, seed=11
)
CONFIG = StashConfig(
    cluster=ClusterConfig(num_nodes=2), serve=ServeConfig(time_scale=0.02)
)
NODE_IDS = ("node-0", "node-1")


def _workload() -> list[AggregationQuery]:
    """A small session exercising cache, pan, and roll-up paths."""
    box = BoundingBox(35.0, 42.0, -105.0, -95.0)
    day = TimeKey.of(2013, 2, 1).epoch_range()
    fine = Resolution(3, TemporalResolution.DAY)
    return [
        AggregationQuery(bbox=box, time_range=day, resolution=fine),
        # Identical repeat: must be served from cache on both backends.
        AggregationQuery(bbox=box, time_range=day, resolution=fine),
        # A pan: partial overlap with the cached footprint.
        AggregationQuery(
            bbox=box.translated(0.0, 3.0), time_range=day, resolution=fine
        ),
        # Coarser resolution over the same extent: the roll-up path.
        AggregationQuery(
            bbox=box,
            time_range=day,
            resolution=Resolution(2, TemporalResolution.DAY),
        ),
    ]


def _socket_answers(queries):
    """Replay on real sockets: every node in-process, each on its own
    transport, wired through 127.0.0.1 — the full wire path (framing,
    codec, controller) without multiprocessing overhead."""

    async def main(addresses):
        transport, client = await connect_client(NODE_IDS, addresses, CONFIG)
        assert type(client) is QueryClient
        try:
            return [
                (await evaluate_serial(transport, client, query))[0]
                for query in queries
            ]
        finally:
            await transport.aclose()

    cluster = _InProcessSocketCluster()
    try:
        return asyncio.run(main(cluster.addresses))
    finally:
        cluster.close()


def _sim_answers(queries):
    dataset = SyntheticNAMGenerator(SPEC).generate()
    cluster = StashCluster(dataset, CONFIG)
    assert type(cluster.client) is QueryClient  # the same client, on the sim
    results = []
    for query in queries:
        results.append(cluster.run_query(query))
        cluster.drain()
    return results


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def answers(self):
        queries = _workload()
        return _socket_answers(queries), _sim_answers(queries)

    def test_nonempty_workload(self, answers):
        socket_results, _ = answers
        assert any(len(r.cells) > 0 for r in socket_results)

    def test_identical_key_sets(self, answers):
        socket_results, sim_results = answers
        for socket_result, sim_result in zip(socket_results, sim_results):
            assert set(socket_result.cells) == set(sim_result.cells)

    def test_byte_identical_summaries(self, answers):
        socket_results, sim_results = answers
        for socket_result, sim_result in zip(socket_results, sim_results):
            for key, summary in sim_result.cells.items():
                # SummaryVector.__eq__ is exact float equality.
                assert socket_result.cells[key] == summary, key

    def test_identical_completeness(self, answers):
        socket_results, sim_results = answers
        for socket_result, sim_result in zip(socket_results, sim_results):
            assert socket_result.completeness == sim_result.completeness == 1.0

    def test_identical_provenance(self, answers):
        socket_results, sim_results = answers
        for socket_result, sim_result in zip(socket_results, sim_results):
            assert socket_result.provenance == sim_result.provenance

    def test_repeat_query_served_from_cache(self, answers):
        socket_results, _ = answers
        first, repeat = socket_results[0], socket_results[1]
        assert repeat.cells == first.cells
        assert repeat.provenance.get("cells_from_cache", 0) > 0
        assert repeat.provenance.get("cells_from_disk", 0) == 0


class TestMultiprocessServe:
    """One small end-to-end pass through ``run_serve``: real processes,
    real sockets, sim twin cross-check — the ``repro serve`` path."""

    def test_run_serve_two_nodes_byte_identical(self):
        from repro.serve import run_serve

        queries = _workload()[:2]
        report = run_serve(queries, SPEC, CONFIG)
        assert report["nodes"] == 2
        assert report["queries"] == 2
        assert report["sim_checked"] is True
        assert report["divergences"] == []
        assert report["ok"] is True
        assert all(a["cells"] > 0 for a in report["answers"])


class TestQuiesceHandlers:
    """The ping/stats introspection RPCs, exercised on the sim backend."""

    def test_ping_and_idle_stats(self):
        dataset = SyntheticNAMGenerator(SPEC).generate()
        cluster = StashCluster(dataset, CONFIG)
        cluster.run_query(_workload()[0])
        cluster.drain()
        reply = cluster.sim.run(
            until=cluster.network.request(
                CLIENT_ID, "node-0", "ping", {}, size=16
            )
        )
        assert reply == {"node": "node-0", "ok": True}
        stats = cluster.sim.run(
            until=cluster.network.request(
                CLIENT_ID, "node-0", "stats", {}, size=16
            )
        )
        assert stats["node"] == "node-0"
        assert stats["pending"] == 0
        assert stats["service_queue"] == 0
        assert stats["inflight"] == 0  # excludes the stats request itself


# ---------------------------------------------------------------------------
# the HTTP facade: every answer byte-identical to the sim-twin oracle


def _twin_http_bodies(queries, config=CONFIG, spec=SPEC):
    """The oracle: serial sim replay, serialized exactly as the facade
    serializes — same body builders, same canonical JSON, same caching
    discipline (complete answers replayed from cache, degraded answers
    re-evaluated every time)."""
    dataset = SyntheticNAMGenerator(spec).generate()
    cluster = StashCluster(dataset, config)
    cached = {}
    bodies = []
    for query in queries:
        fingerprint = query_fingerprint(query)
        answer = cached.get(fingerprint)
        if answer is None:
            answer = cluster.run_query(query)
            cluster.drain()
            if answer.completeness >= 1.0:
                cached[fingerprint] = answer
        bodies.append(canonical_json(aggregate_body(query, answer)))
    return bodies


def _replay_over_http(server):
    """POST the workload through the facade; return (raw_bodies, dispositions)."""
    raw, dispositions = [], []
    for query in _workload():
        status, body, headers = http_post_bytes(
            server.url, "/aggregate", query_to_dict(query)
        )
        assert status == 200
        raw.append(body)
        dispositions.append(headers["X-Cache"])
    return raw, dispositions


class TestHttpByteIdentity:
    """ISSUE 9 acceptance: HTTP replay has zero divergences from the twin."""

    @pytest.fixture(scope="class")
    def replay(self):
        dataset = SyntheticNAMGenerator(SPEC).generate()
        backend = SimBackend(StashCluster(dataset, CONFIG))
        with StashHttpServer(backend, CONFIG) as server:
            raw, dispositions = _replay_over_http(server)
        backend.close()
        return raw, dispositions, _twin_http_bodies(_workload())

    def test_every_answer_byte_identical(self, replay):
        raw, _, twin = replay
        assert len(raw) == len(twin) == 4
        for index, (got, expected) in enumerate(zip(raw, twin)):
            assert got == expected, f"query {index} diverged"

    def test_repeat_served_from_facade_cache(self, replay):
        _, dispositions, _ = replay
        assert dispositions == ["miss", "hit", "miss", "miss"]


class _InProcessSocketCluster:
    """Every node in-process on its own transport, kept alive on a
    background loop so a client on another loop (``_socket_answers``, or
    a SocketBackend with its own loop and client transport) can dial
    the nodes."""

    def __init__(self, config=CONFIG):
        self.config = config
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        self.addresses = asyncio.run_coroutine_threadsafe(
            self._start(), self._loop
        ).result(timeout=120)

    async def _start(self):
        self.transports = {}
        self.nodes = {}
        addresses = {}
        for index, node_id in enumerate(NODE_IDS):
            transport = AsyncioTransport(
                node_id, time_scale=self.config.serve.time_scale
            )
            addresses[node_id] = await transport.start()
            node = build_node(
                NodeSpec(
                    node_index=index,
                    node_ids=NODE_IDS,
                    dataset=SPEC,
                    config=self.config,
                ),
                transport,
            )
            node.start()
            self.nodes[node_id] = node
            self.transports[node_id] = transport
        for transport in self.transports.values():
            transport.network.set_peers(addresses)
        return addresses

    def close(self):
        async def stop():
            for transport in self.transports.values():
                await transport.aclose()

        asyncio.run_coroutine_threadsafe(stop(), self._loop).result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()


class TestHttpSocketByteIdentity:
    """The facade over real TCP nodes still matches the sim twin byte for
    byte — the full wire path behind the HTTP surface."""

    def test_socket_backend_replay_matches_twin(self):
        cluster = _InProcessSocketCluster()
        backend = None
        try:
            backend = SocketBackend(NODE_IDS, cluster.addresses, CONFIG)
            with StashHttpServer(backend, CONFIG) as server:
                assert http_get(server.url, "/healthz")[1]["backend"] == "socket"
                raw, dispositions = _replay_over_http(server)
        finally:
            if backend is not None:
                backend.close()
            cluster.close()
        twin = _twin_http_bodies(_workload())
        for index, (got, expected) in enumerate(zip(raw, twin)):
            assert got == expected, f"query {index} diverged"
        assert dispositions == ["miss", "hit", "miss", "miss"]


class TestSocketStatsCarryTheRecorder:
    """The socket client is the sim's client, so its flight recorder
    comes with it: ``GET /stats`` accounts for every evaluated query."""

    def test_outcomes_sum_to_queries_and_equal_cache_misses(self):
        config = StashConfig(
            cluster=ClusterConfig(num_nodes=2),
            serve=ServeConfig(time_scale=0.02),
            observability=ObservabilityConfig(flight_recorder=True),
        )
        cluster = _InProcessSocketCluster(config)
        backend = None
        try:
            backend = SocketBackend(NODE_IDS, cluster.addresses, config)
            with StashHttpServer(backend, config) as server:
                raw, dispositions = _replay_over_http(server)
                stats = http_get(server.url, "/stats")[1]
        finally:
            if backend is not None:
                backend.close()
            cluster.close()
        recorder = stats["recorder"]
        assert recorder is not None
        assert recorder["queries"] == stats["cache"]["misses"] == 3
        assert sum(recorder["outcomes"].values()) == recorder["queries"]
        assert recorder["outcomes"]["ok"] == 3
        # The recorder is passive: bodies still match the twin's.
        twin = _twin_http_bodies(_workload(), config=config)
        assert raw == twin
        assert dispositions == ["miss", "hit", "miss", "miss"]


class TestClusterMetricsAcrossBackends:
    """``/stats["cluster"]`` is the exact merge of the nodes' registries:
    in-process for the sim backend, one ``stats`` RPC per node over TCP
    for the socket backend.  After the same replay the two agree with a
    plain sim twin's ``counters_total()`` and per-node gauge sums; the
    socket nodes additionally count the introspection RPCs themselves
    (the quiesce barrier's ``stats`` polls, the dial-time ``ping``)."""

    INTROSPECTION = {"handled:stats", "handled:ping"}

    @pytest.fixture(scope="class")
    def views(self):
        dataset = SyntheticNAMGenerator(SPEC).generate()
        sim_backend = SimBackend(StashCluster(dataset, CONFIG))
        with StashHttpServer(sim_backend, CONFIG) as server:
            _replay_over_http(server)
            sim_view = http_get(server.url, "/stats")[1]["cluster"]
        sim_backend.close()
        cluster = _InProcessSocketCluster()
        backend = None
        try:
            backend = SocketBackend(NODE_IDS, cluster.addresses, CONFIG)
            with StashHttpServer(backend, CONFIG) as server:
                _replay_over_http(server)
                socket_view = http_get(server.url, "/stats")[1]["cluster"]
        finally:
            if backend is not None:
                backend.close()
            cluster.close()
        # The twin: the three queries the facade evaluated (the repeat is
        # a response-cache hit), straight into a simulated cluster.
        twin = StashCluster(dataset, CONFIG)
        evaluated = _workload()
        del evaluated[1]
        for query in evaluated:
            twin.run_query(query)
            twin.drain()
        return sim_view, socket_view, twin

    def test_sim_backend_counters_are_the_twins(self, views):
        sim_view, _, twin = views
        assert sim_view["counters"] == twin.counters_total()
        assert sim_view["counters"]["handled:evaluate"] == 3
        assert sim_view["histograms"] == {}

    def test_socket_counters_differ_only_by_the_introspection_rpcs(self, views):
        _, socket_view, twin = views
        counters = socket_view["counters"]
        assert set(counters) - set(twin.counters_total()) == self.INTROSPECTION
        assert {
            name: count
            for name, count in counters.items()
            if name not in self.INTROSPECTION
        } == twin.counters_total()
        assert counters["handled:ping"] == len(NODE_IDS)
        assert counters["handled:stats"] >= 2 * 2 * 3  # 2 rounds x 2 nodes x 3 queries

    def test_merged_gauges_are_the_twins_per_node_sums(self, views):
        sim_view, socket_view, twin = views
        expected = MetricsRegistry.merge(
            node.metrics.snapshot() for node in twin.nodes.values()
        )["gauges"]
        assert set(expected) == {
            "queue_depth", "disk_reads", "cache_cells", "freshness_pressure",
            "guest_cells",
        }
        assert expected["cache_cells"] == twin.total_cached_cells() > 0
        assert expected["disk_reads"] == sum(
            node.disk.reads for node in twin.nodes.values()
        ) > 0
        assert sim_view["gauges"] == expected
        assert socket_view["gauges"] == expected


class TestHostileNodeSnapshot:
    """A node answering ``stats`` with a histogram no ``to_dict`` could
    have produced is the gateway's problem, not a merged lie: the
    ``ValueError`` from ``LatencyHistogram.from_dict`` becomes ``502
    bad_gateway``, and the facade keeps serving."""

    def test_malformed_histogram_over_the_wire_is_a_502(self):
        cluster = _InProcessSocketCluster()
        backend = None
        try:
            backend = SocketBackend(NODE_IDS, cluster.addresses, CONFIG)
            with StashHttpServer(backend, CONFIG) as server:
                assert http_get(server.url, "/stats")[0] == 200
                node = cluster.nodes["node-1"]
                honest = node.metrics.snapshot
                node.metrics.snapshot = lambda: {
                    **honest(),
                    "histograms": {
                        "cluster": {"min_exp": -20, "max_exp": 12, "buckets": {"-1": 3}}
                    },
                }
                status, body, _ = http_get(server.url, "/stats")
                assert (status, body["code"]) == (502, "bad_gateway")
                assert "out of range" in body["error"]
                node.metrics.snapshot = honest
                assert http_get(server.url, "/stats")[0] == 200
        finally:
            if backend is not None:
                backend.close()
            cluster.close()


class TestDegradedThroughHttp:
    """Partial answers (completeness < 1) flow through the facade
    unmangled — byte-identical to a twin running the same fault schedule
    — and are never served from the response cache."""

    @pytest.fixture(scope="class")
    def faulted_config(self):
        probe = StashCluster(SyntheticNAMGenerator(SPEC).generate(), CONFIG)
        target = probe.coordinator_for(_workload()[0])
        return StashConfig(
            cluster=ClusterConfig(num_nodes=2),
            serve=ServeConfig(time_scale=0.02),
            faults=FaultConfig(
                enabled=True,
                schedule=(FaultEvent(kind="crash", at=0.0, node=target),),
                rpc_timeout=0.2,
                evaluate_timeout=1.0,
                max_retries=1,
                backoff_base=0.05,
            ),
        )

    def test_degraded_replay_byte_identical_and_uncached(self, faulted_config):
        # The same query twice: a complete answer would be a cache hit
        # on the repeat, a degraded one must be re-evaluated both times.
        queries = [_workload()[0], _workload()[0]]
        dataset = SyntheticNAMGenerator(SPEC).generate()
        backend = SimBackend(StashCluster(dataset, faulted_config))
        raw, dispositions, parsed = [], [], []
        with StashHttpServer(backend, faulted_config) as server:
            for query in queries:
                status, body, headers = http_post_bytes(
                    server.url, "/aggregate", query_to_dict(query)
                )
                assert status == 200
                raw.append(body)
                dispositions.append(headers["X-Cache"])
                parsed.append(body)
            stats = http_get(server.url, "/stats")[1]
        backend.close()

        import json

        first = json.loads(parsed[0])
        assert first["degraded"] is True
        assert 0.0 <= first["completeness"] < 1.0
        # Never cached: the repeat is a miss too, and the cache counted
        # the skips.
        assert dispositions == ["miss", "miss"]
        assert stats["cache"]["degraded_skipped"] >= 2
        assert stats["cache"]["entries"] == 0

        twin = _twin_http_bodies(queries, config=faulted_config)
        assert raw[0] == twin[0]
        assert raw[1] == twin[1]
