"""Client driver: replay a workload over sockets, cross-check the sim twin.

The driver is the serve-mode analogue of
:meth:`repro.system.DistributedSystem.run_serial`: it routes each query
to its coordinator (same center-geohash rule), sends ``evaluate`` over
the asyncio transport, and waits for the answer.  Between queries it
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
from repro.errors import NetworkError, QueryError
from repro.faults.membership import rpc_ok
from repro.query.model import AggregationQuery
from repro.serve.cluster import ServeCluster
from repro.system import CLIENT_ID
from repro.transport.asyncio_net import AsyncioTransport

#: Seconds between quiesce polls; consecutive clean rounds required.
_QUIESCE_POLL = 0.02
_QUIESCE_ROUNDS = 2


def coordinator_for(
    partitioner: PrefixPartitioner, query: AggregationQuery
) -> str:
    """Client-side routing: same center-geohash rule as the sim client."""
    from repro.geo.geohash import encode

    lat, lon = query.bbox.center
    code = encode(lat, lon, partitioner.partition_precision)
    return partitioner.node_for(code)


async def _rpc(
    transport: AsyncioTransport,
    recipient: str,
    kind: str,
    payload: Any,
    size: int,
    timeout: float,
) -> Any:
    reply = transport.network.request(CLIENT_ID, recipient, kind, payload, size=size)
    try:
        value = await asyncio.wait_for(
            transport.engine.as_future(reply), timeout=timeout
        )
    except asyncio.TimeoutError:
        raise NetworkError(
            f"{kind} RPC to {recipient} took longer than {timeout}s wall"
        ) from None
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


async def connect_client(
    addresses: dict[str, tuple[str, int]], config: StashConfig
) -> AsyncioTransport:
    """Dial a running cluster as the client peer.

    Binds the client transport, learns the address map and pings every
    node — one round trip per node proves every link dials and serves.
    The caller owns the transport and ends it with ``aclose()``.
    """
    serve_cfg = config.serve
    transport = AsyncioTransport(CLIENT_ID, time_scale=serve_cfg.time_scale)
    await transport.start(serve_cfg.host, 0)
    transport.network.register(CLIENT_ID)
    transport.network.set_peers(addresses)
    try:
        for node_id in addresses:
            await _rpc(
                transport, node_id, "ping", {}, size=16,
                timeout=serve_cfg.startup_timeout,
            )
    except BaseException:
        await transport.aclose()
        raise
    return transport


async def evaluate_serial(
    transport: AsyncioTransport,
    partitioner: PrefixPartitioner,
    query: AggregationQuery,
    config: StashConfig,
) -> tuple[str, Any, float]:
    """One query of a serial replay: route, ``evaluate``, quiesce.

    Returns ``(coordinator, raw reply, wall seconds of the evaluate
    round trip)``.  The quiesce barrier runs after the clock stops, so
    background population has landed before the next query starts — the
    byte-identity precondition.
    """
    timeout = config.serve.quiesce_timeout
    coordinator = coordinator_for(partitioner, query)
    started = time.monotonic()
    reply = await _rpc(
        transport, coordinator, "evaluate", {"query": query, "ctx": None},
        size=512, timeout=timeout,
    )
    wall = time.monotonic() - started
    await _quiesce(transport, partitioner.node_ids, timeout)
    return coordinator, reply, wall


async def _replay_socket(
    queries: Sequence[AggregationQuery],
    node_ids: Sequence[str],
    config: StashConfig,
    addresses: dict[str, tuple[str, int]],
    progress: Callable[[str], None] | None,
) -> list[dict[str, Any]]:
    partitioner = PrefixPartitioner(
        list(node_ids), config.cluster.partition_precision
    )
    transport = await connect_client(addresses, config)
    answers: list[dict[str, Any]] = []
    try:
        for index, query in enumerate(queries):
            coordinator, reply, wall = await evaluate_serial(
                transport, partitioner, query, config
            )
            if not isinstance(reply, dict) or "cells" not in reply:
                raise QueryError(f"malformed evaluate reply: {reply!r}")
            answers.append(
                {
                    "index": index,
                    "coordinator": coordinator,
                    "cells": reply["cells"],
                    "completeness": float(reply.get("completeness", 1.0)),
                    "provenance": reply.get("provenance", {}),
                    "wall_latency_s": wall,
                }
            )
            if progress is not None:
                progress(
                    f"query {index + 1}/{len(queries)} via {coordinator}: "
                    f"{len(reply['cells'])} cells in {wall * 1e3:.1f} ms wall"
                )
    finally:
        await transport.aclose()
    return answers


def _sim_twin_answers(
    queries: Sequence[AggregationQuery],
    dataset: DatasetSpec,
    config: StashConfig,
) -> list[Any]:
    """The oracle: same dataset, same queries, discrete-event transport."""
    from repro.core.cluster import StashCluster

    batch = SyntheticNAMGenerator(dataset).generate()
    cluster = StashCluster(batch, config)
    results = []
    for query in queries:
        results.append(cluster.run_query(query))
        cluster.drain()  # the sim analogue of the socket quiesce barrier
    return results


def _diff_answer(socket_answer: dict[str, Any], sim_result: Any) -> list[str]:
    """Byte-identity check for one query; returns divergence descriptions."""
    problems: list[str] = []
    socket_cells = socket_answer["cells"]
    sim_cells = sim_result.cells
    missing = sim_cells.keys() - socket_cells.keys()
    extra = socket_cells.keys() - sim_cells.keys()
    if missing:
        problems.append(f"missing {len(missing)} cells (e.g. {min(missing)})")
    if extra:
        problems.append(f"extra {len(extra)} cells (e.g. {min(extra)})")
    for key in sorted(sim_cells.keys() & socket_cells.keys()):
        if socket_cells[key] != sim_cells[key]:
            problems.append(f"summary mismatch at {key}")
            break  # one example is enough; the report stays readable
    if socket_answer["completeness"] != sim_result.completeness:
        problems.append(
            f"completeness {socket_answer['completeness']} "
            f"!= sim {sim_result.completeness}"
        )
    return problems


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
                "index": a["index"],
                "coordinator": a["coordinator"],
                "cells": len(a["cells"]),
                "completeness": a["completeness"],
                "wall_latency_s": a["wall_latency_s"],
            }
            for a in answers
        ],
        "sim_checked": bool(check_sim),
        "divergences": [],
        "ok": True,
    }
    if check_sim:
        sim_results = _sim_twin_answers(queries, dataset, config)
        for answer, sim_result in zip(answers, sim_results):
            for problem in _diff_answer(answer, sim_result):
                report["divergences"].append(
                    {"index": answer["index"], "problem": problem}
                )
        report["ok"] = not report["divergences"]
        if progress is not None:
            progress(
                f"sim twin check: {len(report['divergences'])} divergences "
                f"over {len(queries)} queries"
            )
    return report
