"""The five benchmark workloads, driven only through public ``repro`` calls.

Each workload is an object with the same small surface — ``phases()``
(the timed set-up), ``fresh_ops()``, ``execute(op)``, ``verify()``,
``close()`` — so ``run.py`` measures all of them with one loop.  Sizes,
probe mixes and chunk sizes live in ``config.json`` next to this file;
the *reason* each workload exists lives in ``BENCHMARK.json`` and the
README glossary.

Every timed submission is a fresh ``AggregationQuery.clone()`` built
before the pass starts: ``footprint()`` is memoised on the query
object, so re-submitting the same objects would silently remove the
cover computation from every pass after the first.
"""

from __future__ import annotations

import asyncio
import http.client
import json
from typing import Any, Callable, Sequence

import numpy as np

from repro.config import (
    ClusterConfig,
    EvictionConfig,
    ServeConfig,
    StashConfig,
)
from repro.core.cluster import StashCluster
from repro.data.generator import DatasetSpec, SyntheticNAMGenerator
from repro.data.observation import ObservationBatch
from repro.dht.partitioner import PrefixPartitioner
from repro.faults.membership import rpc_ok
from repro.oracle.conformance import compare_result
from repro.oracle.engine import BruteForceOracle
from repro.query.model import AggregationQuery, QueryResult
from repro.serve.driver import coordinator_for
from repro.serve.http import (
    SimBackend,
    StashHttpServer,
    aggregate_body,
    canonical_json,
    search_body,
)
from repro.serve.server import NodeSpec, build_node
from repro.system import CLIENT_ID
from repro.transport.asyncio_net import AsyncioTransport
from repro.workload.queries import QuerySize
from repro.workload.scale import ScaleWorkloadSpec, SessionTable
from repro.workload.trace import query_to_dict

#: Every workload reads the same synthetic NAM dataset family.
DATASET_SEED = 42
START_DAY = (2013, 2, 1)
NUM_DAYS = 2

#: Users in the fixed session population every seed samples from.
POPULATION = 2_000

#: Ops re-evaluated and checked after the timed passes.
VERIFY_SAMPLE = 32

#: Wall seconds any single wait (RPC, HTTP round trip) may take.
OP_TIMEOUT_S = 10.0

SEARCH_LIMIT = 50

#: Requests sent over HTTP during ``http_sim``'s warm-up (the default
#: response cache holds 256 answers).
HTTP_WARM_REQUESTS = 256


def dataset_spec(records: int, seed: int = DATASET_SEED) -> DatasetSpec:
    return DatasetSpec(
        num_records=records,
        start_day=START_DAY,
        num_days=NUM_DAYS,
        observations_per_day=4,
        seed=seed,
    )


def session_queries(sizes: dict, seed: int) -> list[AggregationQuery]:
    """``sizes["users"]`` sessions drawn by ``seed`` from a fixed population.

    The population (hotspot placement, every user's Markov walk) is the
    workload's definition and is the same for every seed; ``seed`` picks
    which users run and in what order.  Users are drawn one per cost
    stratum — the population sorted by a session's footprint-area proxy
    ``sum(area_scale * 32 ** precision)`` and cut into ``users`` equal
    slices — because a plain random draw of 100 users moves the mean
    footprint per op by ±10 % from seed to seed (a user keeps their
    precision band for the whole session), which would be read as
    run-to-run noise of the machine.  Stratified, it is ±1 %.
    """
    users = sizes["users"]
    spec = ScaleWorkloadSpec(
        num_users=POPULATION,
        session_length=sizes["session_length"],
        num_hotspots=sizes.get("hotspots", 16),
        zipf_s=sizes.get("zipf_s", 1.2),
        size=QuerySize[sizes.get("viewport", "COUNTY")],
        spatial_range=tuple(sizes.get("spatial_range", (2, 4))),
        num_days=NUM_DAYS,
        start_day=START_DAY,
        seed=DATASET_SEED,
    )
    table = SessionTable.synthesize(spec)
    per_stratum = POPULATION // users
    cost = (
        table.area_scale.astype(np.float64)
        * np.power(32.0, table.precision.astype(np.float64))
    ).sum(axis=1)
    strata = np.argsort(cost, kind="stable")[: users * per_stratum].reshape(
        users, per_stratum
    )
    rng = np.random.default_rng([seed, 0x5E55])
    chosen = strata[np.arange(users), rng.integers(0, per_stratum, users)]
    rng.shuffle(chosen)
    return [
        table.query(int(user), step)
        for user in chosen
        for step in range(table.session_length)
    ]


def sample_indices(count: int, seed: int, size: int = VERIFY_SAMPLE) -> list[int]:
    """The verification sample: ``size`` distinct op indices, by seed."""
    rng = np.random.default_rng([seed, 0x5A3F])
    size = min(size, count)
    return sorted(int(i) for i in rng.choice(count, size=size, replace=False))


def oracle_for(
    dataset: ObservationBatch, queries: Sequence[AggregationQuery]
) -> BruteForceOracle:
    """A brute-force oracle restricted to the records the sample can see.

    The oracle bins every record it holds with scalar code, which is
    hopeless at 300 k records; it only ever reads records inside a
    query's snapped extent, so handing it the union of the sampled
    extents gives the same answers from a fraction of the records.
    """
    mask = np.zeros(len(dataset), dtype=bool)
    for query in queries:
        box = query.snapped_bbox()
        span = query.snapped_time_range()
        mask |= (
            (dataset.lats >= box.south)
            & (dataset.lats < box.north)
            & (dataset.lons >= box.west)
            & (dataset.lons < box.east)
            & (dataset.epochs >= span.start)
            & (dataset.epochs < span.end)
        )
    return BruteForceOracle(dataset.select(mask))


class Workload:
    """Shared surface; subclasses fill in the engine under test."""

    name = ""

    def __init__(self, sizes: dict, seed: int):
        self.sizes = sizes
        self.seed = seed
        self.chunk_ops: int = sizes["chunk_ops"]
        self.queries: list[AggregationQuery] = []

    # -- set-up ----------------------------------------------------------

    def phases(self) -> list[Callable[[], None]]:
        """Set-up steps, timed together as ``setup_s``."""
        return [self.build_dataset, self.build_engine, self.warm_up]

    def build_dataset(self) -> None:
        self.dataset = SyntheticNAMGenerator(
            dataset_spec(self.sizes["records"])
        ).generate()

    def build_engine(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed pass over the op list: caches fill, lazy init ends."""
        for op in self.fresh_ops():
            self.before_op(op)
            if not self.execute(op):
                raise RuntimeError(f"{self.name}: warm-up op failed")

    # -- ops -------------------------------------------------------------

    def fresh_ops(self) -> list[Any]:
        return [query.clone() for query in self.queries]

    def before_op(self, op: Any) -> None:
        """Untimed per-op hook."""

    def execute(self, op: Any) -> bool:
        raise NotImplementedError

    def pooled(self, op: Any) -> bool:
        """Does this op's latency enter the percentile pool?"""
        return True

    # -- correctness and teardown ------------------------------------------

    def verify(self) -> tuple[int, int]:
        """Re-evaluate the seeded sample; returns (checked, failed)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release everything ``phases()`` opened."""


# ---------------------------------------------------------------------------
# in-process cluster workloads


class ClusterWorkload(Workload):
    """A ``StashCluster`` on the discrete-event transport, called directly."""

    def cluster_config(self) -> StashConfig:
        return StashConfig(
            cluster=ClusterConfig(num_nodes=self.sizes["nodes"]),
            eviction=EvictionConfig(max_cells=self.sizes["max_cells"]),
        )

    def build_engine(self) -> None:
        self.cluster = StashCluster(self.dataset, self.cluster_config())
        self.cluster.start()
        self.queries = session_queries(self.sizes, self.seed)

    def evaluate(self, query: AggregationQuery) -> QueryResult:
        """One op as a user sees it: the answer, then background work.

        ``drain()`` runs the cache population the coordinator schedules
        after replying; it is part of the op because the next gesture
        cannot be served before it has run.
        """
        result = self.cluster.run_query(query)
        self.cluster.drain()
        return result

    def execute(self, op: AggregationQuery) -> bool:
        return self.evaluate(op).completeness == 1.0

    def verify(self) -> tuple[int, int]:
        sample = [
            self.queries[i].clone()
            for i in sample_indices(len(self.queries), self.seed)
        ]
        oracle = oracle_for(self.verification_dataset(), sample)
        failed = 0
        for query in sample:
            self.before_op(query)
            result = self.evaluate(query)
            if compare_result(result, oracle.answer(query)):
                failed += 1
        return len(sample), failed

    def verification_dataset(self) -> ObservationBatch:
        return self.dataset


class ExploreWarm(ClusterWorkload):
    name = "explore_warm"


class ScanCold(ClusterWorkload):
    name = "scan_cold"

    def before_op(self, op: AggregationQuery) -> None:
        self.cluster.flush_caches()

    def warm_up(self) -> None:
        """A few chunks are enough: every op flushes what a warm-up fills."""
        for op in self.fresh_ops()[: 4 * self.chunk_ops]:
            self.before_op(op)
            if not self.execute(op):
                raise RuntimeError(f"{self.name}: warm-up op failed")


class ChurnIngest(ClusterWorkload):
    """Reads against a cache a fraction of the working set, beside writes."""

    name = "churn_ingest"

    def __init__(self, sizes: dict, seed: int):
        super().__init__(sizes, seed)
        self.ingested: list[ObservationBatch] = []
        self.writes = 0
        self.invalidated = 0
        self._passes_built = 0

    def fresh_ops(self) -> list[Any]:
        """Queries with a live batch before every ``write_every``-th one.

        Batches are new records each pass (seeded by pass and slot), so
        the catalog grows the way a live feed grows it.
        """
        every = self.sizes["write_every"]
        records = self.sizes["batch_records"]
        ops: list[Any] = []
        pass_index = self._passes_built
        self._passes_built += 1
        for index, query in enumerate(self.queries):
            if index % every == 0:
                batch_seed = (
                    self.seed * 1_000_003 + pass_index
                ) * 4_099 + index // every
                ops.append(
                    SyntheticNAMGenerator(dataset_spec(records, batch_seed)).generate()
                )
            ops.append(query.clone())
        return ops

    def execute(self, op: Any) -> bool:
        if isinstance(op, ObservationBatch):
            _, invalidated = self.cluster.ingest_live(op)
            self.ingested.append(op)
            self.writes += 1
            self.invalidated += invalidated
            return True
        return super().execute(op)

    def pooled(self, op: Any) -> bool:
        return not isinstance(op, ObservationBatch)

    def verification_dataset(self) -> ObservationBatch:
        return ObservationBatch.concat_all([self.dataset, *self.ingested])


# ---------------------------------------------------------------------------
# HTTP facade over the sim backend


class HttpSim(ClusterWorkload):
    """stdlib ``http.client`` over loopback TCP, one connection per request."""

    name = "http_sim"

    def build_engine(self) -> None:
        super().build_engine()
        self.backend = SimBackend(self.cluster)
        self.server = StashHttpServer(
            self.backend, StashConfig(serve=ServeConfig(http_port=0))
        ).start()
        self.host, self.port = self.server.address
        # 3 : 1 /aggregate : /search, fixed by position in the stream.
        self.requests: list[tuple[str, bytes]] = []
        for index, query in enumerate(self.queries):
            body = query_to_dict(query)
            if index % 4 == 3:
                body["limit"] = SEARCH_LIMIT
                path = "/search"
            else:
                path = "/aggregate"
            self.requests.append((path, json.dumps(body).encode()))

    def fresh_ops(self) -> list[Any]:
        # The server parses each body into a new query object, so the
        # request bytes themselves can be reused across passes.
        return list(self.requests)

    def warm_up(self) -> None:
        """Fill the cell cache in-process, then exercise the HTTP path.

        The engine's cache does not care which door a query came
        through; filling it without 800 TCP connections keeps set-up
        short.  The tail of the list then goes over HTTP so the server's
        lazy initialisation and a response-cache's worth of entries are
        in place before timing starts.
        """
        for query in self.queries:
            self.evaluate(query.clone())
        for op in self.requests[-HTTP_WARM_REQUESTS:]:
            if not self.execute(op):
                raise RuntimeError(f"{self.name}: warm-up request failed")

    def round_trip(self, path: str, body: bytes) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=OP_TIMEOUT_S
        )
        try:
            connection.request(
                "POST",
                path,
                body=body,
                headers={
                    "Content-Type": "application/json",
                    "Connection": "close",
                },
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def execute(self, op: tuple[str, bytes]) -> bool:
        status, _ = self.round_trip(*op)
        return status == 200

    def verify(self) -> tuple[int, int]:
        """Response bytes against the same engine called without HTTP.

        Two checks per sampled request.  The engine's answer, obtained
        through ``SimBackend.evaluate`` directly, must conform to the
        brute-force oracle; and the bytes the server sent must equal
        ``canonical_json`` of the body built from that answer.
        ``/aggregate`` bodies carry a ``provenance`` block recording
        where cells came from *when the answer was computed*, which a
        response-cache hit legitimately preserves from an earlier
        evaluation; it is blanked on both sides after checking that the
        server's bytes are already in canonical form.
        """
        indices = sample_indices(len(self.requests), self.seed)
        oracle = oracle_for(self.dataset, [self.queries[i] for i in indices])
        failed = 0
        for index in indices:
            path, body = self.requests[index]
            status, got = self.round_trip(path, body)
            query = self.queries[index].clone()
            answer = self.backend.evaluate(query)
            direct = QueryResult(
                query=query, cells=answer.cells, completeness=answer.completeness
            )
            if status != 200 or compare_result(direct, oracle.answer(query)):
                failed += 1
                continue
            expected = (
                search_body(query, answer, SEARCH_LIMIT, 0)
                if path == "/search"
                else aggregate_body(query, answer)
            )
            try:
                parsed = json.loads(got)
            except ValueError:
                parsed = None
            if not isinstance(parsed, dict) or canonical_json(parsed) != got:
                failed += 1  # not JSON, or not in canonical form
                continue
            for body in (parsed, expected):
                if "provenance" in body:
                    body["provenance"] = None
            if canonical_json(parsed) != canonical_json(expected):
                failed += 1
        return len(indices), failed

    def close(self) -> None:
        self.server.stop()
        self.backend.close()


# ---------------------------------------------------------------------------
# asyncio socket RPC


class SocketRpc(Workload):
    """``StashNode``s on real loopback sockets, one client, no barrier.

    Every transport — the nodes' and the client's — runs on one asyncio
    loop owned by the benchmark's main thread and stepped with
    ``run_until_complete`` per op, so the closed loop needs no second
    thread and the profiler sees the whole wire path in one place.
    ``time_scale`` shrinks the cost model's sleeps to nothing: the path
    is CPU-bound.
    """

    name = "socket_rpc"

    def cluster_config(self) -> StashConfig:
        return StashConfig(
            cluster=ClusterConfig(num_nodes=self.sizes["nodes"]),
            eviction=EvictionConfig(max_cells=self.sizes["max_cells"]),
            serve=ServeConfig(time_scale=self.sizes["time_scale"]),
        )

    def build_dataset(self) -> None:
        # ``build_node`` regenerates the dataset from its spec per node,
        # exactly as a node process does; nothing to share up front.
        self.spec = dataset_spec(self.sizes["records"])

    def build_engine(self) -> None:
        config = self.cluster_config()
        self.loop = asyncio.new_event_loop()
        self.node_ids = tuple(f"node-{i}" for i in range(self.sizes["nodes"]))
        self.partitioner = PrefixPartitioner(
            list(self.node_ids), config.cluster.partition_precision
        )
        self.transports: list[AsyncioTransport] = []
        self.loop.run_until_complete(
            asyncio.wait_for(self._start(config), OP_TIMEOUT_S * 6)
        )
        self.queries = session_queries(self.sizes, self.seed)

    async def _start(self, config: StashConfig) -> None:
        scale = config.serve.time_scale
        addresses: dict[str, tuple[str, int]] = {}
        for index, node_id in enumerate(self.node_ids):
            transport = AsyncioTransport(node_id, time_scale=scale)
            self.transports.append(transport)
            addresses[node_id] = await transport.start()
            build_node(
                NodeSpec(
                    node_index=index,
                    node_ids=self.node_ids,
                    dataset=self.spec,
                    config=config,
                ),
                transport,
            ).start()
        self.client = AsyncioTransport(CLIENT_ID, time_scale=scale)
        self.transports.append(self.client)
        addresses[CLIENT_ID] = await self.client.start()
        self.client.network.register(CLIENT_ID)
        for transport in self.transports:
            transport.network.set_peers(addresses)

    async def _rpc(self, recipient: str, kind: str, payload: Any) -> Any:
        reply = self.client.network.request(
            CLIENT_ID, recipient, kind, payload, size=512
        )
        return await asyncio.wait_for(
            self.client.engine.as_future(reply), OP_TIMEOUT_S
        )

    def rpc(self, recipient: str, kind: str, payload: Any) -> Any:
        return self.loop.run_until_complete(self._rpc(recipient, kind, payload))

    def evaluate(self, query: AggregationQuery) -> Any:
        return self.rpc(
            coordinator_for(self.partitioner, query),
            "evaluate",
            {"query": query, "ctx": None},
        )

    def warm_up(self) -> None:
        super().warm_up()
        # Let one-way populate frames still in TCP flight land.
        self.loop.run_until_complete(asyncio.sleep(0.05))

    def execute(self, op: AggregationQuery) -> bool:
        reply = self.evaluate(op)
        return (
            rpc_ok(reply)
            and isinstance(reply, dict)
            and float(reply.get("completeness", 1.0)) == 1.0
        )

    def verify(self) -> tuple[int, int]:
        """Same cells and completeness as an independent sim twin.

        The twin is a cold ``StashCluster`` over the same dataset spec.
        Key sets and completeness must be equal; summaries must agree to
        1e-9 relative, not bit for bit: a cell the warm nodes rolled up
        from cached children sums in another order than the twin's
        direct scan (bit-identity needs identical cache history, which
        ``tests/serve/test_equivalence.py`` covers).
        """
        dataset = SyntheticNAMGenerator(self.spec).generate()
        twin = StashCluster(dataset, self.cluster_config())
        indices = sample_indices(len(self.queries), self.seed)
        failed = 0
        for index in indices:
            reply = self.evaluate(self.queries[index].clone())
            result = twin.run_query(self.queries[index].clone())
            twin.drain()
            if not (
                rpc_ok(reply)
                and float(reply.get("completeness", 1.0)) == result.completeness
                and reply["cells"].keys() == result.cells.keys()
                and all(
                    vector.approx_equal(result.cells[key], rel=1e-9)
                    for key, vector in reply["cells"].items()
                )
            ):
                failed += 1
        return len(indices), failed

    def close(self) -> None:
        async def shutdown() -> None:
            for transport in reversed(self.transports):
                await asyncio.wait_for(transport.aclose(), OP_TIMEOUT_S)
            # ``aclose`` cancels the per-link tasks but not the writer
            # loops nested in them; reap what is left before the loop
            # dies (``SocketBackend.close`` has to do the same).
            tasks = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.wait(tasks, timeout=OP_TIMEOUT_S)

        try:
            self.loop.run_until_complete(shutdown())
        finally:
            self.loop.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ExploreWarm, ScanCold, ChurnIngest, HttpSim, SocketRpc)
}
