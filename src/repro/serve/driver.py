"""Client driver: replay a workload over sockets, cross-check the sim twin.

The driver is the serve-mode analogue of
:meth:`repro.system.DistributedSystem.run_serial`: it runs the same
:class:`~repro.system.QueryClient` the simulator runs, over the asyncio
transport's engine and network.  Between queries it
runs a **quiesce barrier** — polling every node's ``stats`` endpoint
until the whole cluster reports idle twice in a row — so background
population lands before the next query, exactly like the sim twin's
``drain()``.

Equivalence preconditions (also in docs/serving.md): serial replay with
quiesce barriers, no fault schedule, no eviction pressure.  Under those
the cache state evolves identically on both backends and every answer
must compare **byte-identical** (exact float equality on every
:class:`~repro.data.statistics.SummaryVector`).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Sequence

from repro.config import StashConfig
from repro.data.generator import DatasetSpec, SyntheticNAMGenerator
from repro.dht.partitioner import PrefixPartitioner
from repro.errors import NetworkError
from repro.faults.membership import Membership, rpc_ok
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.query.model import AggregationQuery, QueryResult
from repro.serve.cluster import STARTUP_TIMEOUT, ServeCluster
from repro.system import CLIENT_ID, QueryClient, coordinator_for
from repro.transport.asyncio_net import AsyncioTransport

__all__ = [
    "coordinator_for", "connect_client", "evaluate_serial", "cluster_metrics",
    "run_serve",
]

#: Seconds between quiesce polls; consecutive clean rounds required.
_QUIESCE_POLL = 0.02
_QUIESCE_ROUNDS = 2
#: Wall-clock seconds the driver waits for one query, and for one quiesce
#: barrier (all nodes idle), before giving up on the run.
QUIESCE_TIMEOUT = 30.0


async def _await(
    transport: AsyncioTransport, event: Any, what: str, timeout: float
) -> Any:
    """An engine event's value, under the wall-clock guard."""
    try:
        return await asyncio.wait_for(
            transport.engine.as_future(event), timeout=timeout
        )
    except asyncio.TimeoutError:
        raise NetworkError(f"{what} took longer than {timeout}s wall") from None


async def _rpc(
    transport: AsyncioTransport,
    recipient: str,
    kind: str,
    payload: Any,
    size: int,
    timeout: float,
) -> Any:
    reply = transport.network.request(CLIENT_ID, recipient, kind, payload, size=size)
    value = await _await(transport, reply, f"{kind} RPC to {recipient}", timeout)
    if not rpc_ok(value):
        raise NetworkError(f"{kind} RPC to {recipient} failed: {value!r}")
    return value


async def _quiesce(
    transport: AsyncioTransport,
    node_ids: Sequence[str],
    timeout: float,
) -> None:
    """Block until every node reports idle ``_QUIESCE_ROUNDS`` in a row.

    One clean round is not enough: a node can look idle while a one-way
    ``populate`` frame for it is still in TCP flight from a peer.  Two
    consecutive clean rounds separated by a poll delay bound that window.
    """
    deadline = time.monotonic() + timeout
    clean = 0
    while clean < _QUIESCE_ROUNDS:
        if time.monotonic() > deadline:
            raise NetworkError(f"cluster failed to quiesce within {timeout}s")
        idle = True
        for node_id in node_ids:
            stats = await _rpc(
                transport, node_id, "stats", {}, size=16, timeout=timeout
            )
            if stats["pending"] or stats["service_queue"] or stats["inflight"] > 0:
                idle = False
        clean = clean + 1 if idle else 0
        if clean < _QUIESCE_ROUNDS:
            await asyncio.sleep(_QUIESCE_POLL)


async def cluster_metrics(
    transport: AsyncioTransport, node_ids: Sequence[str]
) -> dict[str, Any]:
    """The exact merge of every node's registry: one ``stats`` RPC each."""
    return MetricsRegistry.merge(
        [
            await _rpc(
                transport, node_id, "stats", {}, size=16, timeout=QUIESCE_TIMEOUT
            )
            for node_id in node_ids
        ]
    )


async def connect_client(
    node_ids: Sequence[str],
    addresses: dict[str, tuple[str, int]],
    config: StashConfig,
) -> tuple[AsyncioTransport, QueryClient]:
    """Dial a running cluster as the client peer.

    Binds the client transport, learns the address map and pings every
    node — one round trip per node proves every link dials and serves —
    then puts a :class:`~repro.system.QueryClient` on the transport's
    engine and network, with the membership view ``build_node`` gives
    every socket node.  The caller owns the transport and ends it with
    ``aclose()``.
    """
    serve_cfg = config.serve
    transport = AsyncioTransport(CLIENT_ID, time_scale=serve_cfg.time_scale)
    await transport.start(serve_cfg.host, 0)
    obs = config.observability
    network = transport.network
    network.tracer = Tracer(transport.engine, enabled=obs.trace)
    network.recorder = FlightRecorder(
        transport.engine, enabled=obs.flight_recorder, slo_targets=obs.slo_targets
    )
    partitioner = PrefixPartitioner(
        list(node_ids), config.cluster.partition_precision
    )
    client = QueryClient(
        transport.engine, network, Membership(partitioner), config
    )
    network.set_peers(addresses)
    try:
        for node_id in addresses:
            await _rpc(
                transport, node_id, "ping", {}, size=16,
                timeout=STARTUP_TIMEOUT,
            )
    except BaseException:
        await transport.aclose()
        raise
    return transport, client


async def evaluate_serial(
    transport: AsyncioTransport,
    client: QueryClient,
    query: AggregationQuery,
) -> tuple[QueryResult, float]:
    """One query of a serial replay: the client's request, then quiesce.

    Returns ``(result, wall seconds of the request)``.  The quiesce
    barrier runs after the clock stops, so background population has
    landed before the next query starts — the byte-identity
    precondition.
    """
    started = time.monotonic()
    result = await _await(
        transport,
        transport.engine.process(client.request(query)),
        f"query {query.query_id}",
        QUIESCE_TIMEOUT,
    )
    wall = time.monotonic() - started
    await _quiesce(transport, client.membership.live_nodes(), QUIESCE_TIMEOUT)
    return result, wall


async def _replay_socket(
    queries: Sequence[AggregationQuery],
    node_ids: Sequence[str],
    config: StashConfig,
    addresses: dict[str, tuple[str, int]],
    progress: Callable[[str], None] | None,
) -> list[tuple[str, QueryResult, float]]:
    """``(coordinator, result, wall seconds)`` per query, in order."""
    transport, client = await connect_client(node_ids, addresses, config)
    answers = []
    try:
        for index, query in enumerate(queries):
            coordinator = client.coordinator_for(query)
            result, wall = await evaluate_serial(transport, client, query)
            answers.append((coordinator, result, wall))
            if progress is not None:
                progress(
                    f"query {index + 1}/{len(queries)} via {coordinator}: "
                    f"{len(result.cells)} cells in {wall * 1e3:.1f} ms wall"
                )
    finally:
        await transport.aclose()
    return answers


def _sim_twin_answers(
    queries: Sequence[AggregationQuery],
    dataset: DatasetSpec,
    config: StashConfig,
) -> list[QueryResult]:
    """The oracle: same dataset, same queries, discrete-event transport."""
    from repro.core.cluster import StashCluster

    batch = SyntheticNAMGenerator(dataset).generate()
    cluster = StashCluster(batch, config)
    results = []
    for query in queries:
        results.append(cluster.run_query(query))
        cluster.drain()  # the sim analogue of the socket quiesce barrier
    return results


def run_serve(
    queries: Sequence[AggregationQuery],
    dataset: DatasetSpec,
    config: StashConfig,
    check_sim: bool = True,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Launch the socket cluster, replay ``queries``, compare to the twin.

    Returns a JSON-ready report; ``report["ok"]`` is False when any
    answer diverged from the simulator twin (or when ``check_sim`` is
    off, when any query failed outright).
    """
    launcher = ServeCluster(dataset, config)
    try:
        addresses = launcher.start()
        if progress is not None:
            ports = ", ".join(
                f"{nid}:{addr[1]}" for nid, addr in sorted(addresses.items())
            )
            progress(f"cluster up ({ports})")
        launcher.broadcast_peers(addresses)
        answers = asyncio.run(
            _replay_socket(
                queries, launcher.node_ids, config, addresses, progress
            )
        )
    finally:
        launcher.stop()
    report: dict[str, Any] = {
        "transport": "asyncio",
        "nodes": len(launcher.node_ids),
        "queries": len(queries),
        "answers": [
            {
                "index": index,
                "coordinator": coordinator,
                "cells": len(result.cells),
                "completeness": result.completeness,
                "wall_latency_s": wall,
            }
            for index, (coordinator, result, wall) in enumerate(answers)
        ],
        "sim_checked": bool(check_sim),
        "divergences": [],
        "ok": True,
    }
    if check_sim:
        sim_results = _sim_twin_answers(queries, dataset, config)
        for index, ((_, result, _), sim_result) in enumerate(
            zip(answers, sim_results)
        ):
            for problem in result.differences(sim_result):
                report["divergences"].append({"index": index, "problem": problem})
        report["ok"] = not report["divergences"]
        if progress is not None:
            progress(
                f"sim twin check: {len(report['divergences'])} divergences "
                f"over {len(queries)} queries"
            )
    return report
