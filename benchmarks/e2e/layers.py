"""Direct-call timings of single layers, on inputs a workload really uses.

``--trace 1`` calls :func:`layer_metrics` after the profiled pass.  Each
number is the median wall time of one public function called on inputs
captured from the workload's own ops (a query's bbox, the blocks one op
scans, an ``evaluate`` reply, a request body), so a later change to
that function has a named place to show up.  The caller divides the
timings by the speed factor measured around this phase.

Metrics that do not apply to a workload (``transport.*`` on an
in-process cluster, ``sim.events_per_s`` on the socket path) are simply
absent from the returned dict; ``run.py`` reports them as 0.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core.cell import Cell
from repro.core.eviction import rank_victims
from repro.core.graph import StashGraph
from repro.core.planner import plan_query
from repro.data.statistics import SummaryFrame, grouped_summaries
from repro.geo.binning import bin_ids
from repro.geo.cover import covering_cells
from repro.geo.geohash import encode_many
from repro.geo.resolution import Resolution, ResolutionSpace
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.serve.http import canonical_json, parse_query
from repro.sim.engine import Simulator
from repro.storage.backend import StorageCatalog
from repro.transport import codec
from repro.transport.framing import FrameDecoder, encode_frame
from repro.workload.queries import QuerySize, random_box

import workloads as wl

#: Ops whose inputs feed the direct calls.
SAMPLE_OPS = 24


def median_seconds(fn: Callable[..., Any], inputs: Iterable[Any]) -> float:
    """Median wall seconds of ``fn(item)`` over ``inputs`` (one call each)."""
    clock = time.perf_counter
    times = []
    for item in inputs:
        t0 = clock()
        fn(item)
        times.append(clock() - t0)
    return statistics.median(times)


def _sample(queries: Sequence[AggregationQuery]) -> list[AggregationQuery]:
    step = max(1, len(queries) // SAMPLE_OPS)
    return list(queries[::step][:SAMPLE_OPS])


def counter_deltas(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {name: after.get(name, 0) - before.get(name, 0) for name in after}


def counter_metrics(delta: dict[str, int], ops: int) -> dict[str, float]:
    """Work counts per op from ``counters_total()`` deltas over one pass."""
    served = delta.get("cells_served_from_cache", 0) + delta.get(
        "cells_served_from_rollup", 0
    )
    populated = delta.get("cells_populated", 0)
    rpcs = sum(v for name, v in delta.items() if name.startswith("handled:"))
    return {
        "core.cache_hit_ratio": served / (served + populated)
        if served + populated
        else 0.0,
        "core.rpcs_per_op": rpcs / ops,
        "core.cells_evicted_per_op": delta.get("cells_evicted", 0) / ops,
        "storage.records_scanned_per_op": delta.get("records_scanned", 0) / ops,
        "storage.blocks_scanned_per_op": delta.get("blocks_scanned", 0) / ops,
    }


# ---------------------------------------------------------------------------
# in-process cluster layers


def footprint_metrics(workload: wl.ClusterWorkload) -> dict[str, float]:
    """geo / query / planner / graph costs on the sampled viewports."""
    cluster = workload.cluster
    sample = _sample(workload.queries)
    out = {
        "geo.cover_us": 1e6
        * median_seconds(
            lambda q: covering_cells(
                q.bbox, q.resolution.spatial, AggregationQuery.MAX_FOOTPRINT_CELLS
            ),
            sample,
        ),
        "query.footprint_us": 1e6
        * median_seconds(
            lambda q: q.footprint(), [query.clone() for query in sample]
        ),
    }
    lats = workload.dataset.lats[:1_000]
    lons = workload.dataset.lons[:1_000]
    out["geo.encode_many_us_per_1k"] = 1e6 * median_seconds(
        lambda _: encode_many(lats, lons, 4), range(9)
    )

    attributes = cluster.attribute_names

    def plan(query: AggregationQuery) -> None:
        by_owner: dict[str, list] = {}
        for key in query.footprint():
            by_owner.setdefault(cluster.owner_node(key).node_id, []).append(key)
        for node_id, keys in by_owner.items():
            plan_query(cluster.nodes[node_id].graph, keys, attributes)

    warmed = [query.clone() for query in sample]
    for query in warmed:
        query.footprint()  # time the planner, not the cover
    out["core.plan_query_us"] = 1e6 * median_seconds(plan, warmed)

    node = max(cluster.nodes.values(), key=lambda n: len(n.graph))
    keys = [cell.key for cell in node.graph.cells()][:1_000]
    if keys:
        decay = node.tracker.decay_rate
        now = cluster.sim.now
        seconds = median_seconds(
            lambda _: node.graph.touch_batch(keys, 0.0, now, decay), range(9)
        )
        out["core.touch_batch_us_per_1k"] = 1e6 * seconds * 1_000 / len(keys)
    return out


def sim_engine_metric() -> dict[str, float]:
    """The event loop alone: 100 k timeouts through a fresh ``Simulator``."""
    events = 100_000
    sim = Simulator()
    started = time.perf_counter()
    for index in range(events):
        sim.timeout(index * 1e-6)
    sim.run()
    return {"sim.events_per_s": events / (time.perf_counter() - started)}


def scan_metrics(workload: wl.ClusterWorkload) -> dict[str, float]:
    """The scan kernels on real records and on the blocks one op reads."""
    dataset = workload.dataset
    count = min(100_000, len(dataset))
    lats, lons, epochs = dataset.lats[:count], dataset.lons[:count], dataset.epochs[:count]
    arrays = {name: values[:count] for name, values in dataset.attributes.items()}
    scale = 100_000 / count
    ids = bin_ids(lats, lons, epochs, 3, TemporalResolution.DAY)
    out = {
        "geo.bin_ids_ms_per_100k": 1e3
        * scale
        * median_seconds(
            lambda _: bin_ids(lats, lons, epochs, 3, TemporalResolution.DAY),
            range(5),
        ),
        "data.grouped_summaries_ms_per_100k": 1e3
        * scale
        * median_seconds(lambda _: grouped_summaries(ids, arrays), range(5)),
    }
    catalog = workload.cluster.catalog

    def frames_for(query: AggregationQuery) -> list[SummaryFrame]:
        frames = []
        for block_id in catalog.blocks_for_query(query):
            batch = catalog.get_block(block_id).batch
            frames.append(
                SummaryFrame.from_groups(
                    batch.bin_ids(
                        query.resolution.spatial, query.resolution.temporal
                    ),
                    batch.attributes,
                )
            )
        return frames

    per_op = [frames for frames in map(frames_for, _sample(workload.queries)) if frames]
    if per_op:
        out["data.frame_merge_all_ms"] = 1e3 * median_seconds(
            SummaryFrame.merge_all, per_op
        )
    return out


def churn_metrics(workload: wl.ChurnIngest) -> dict[str, float]:
    """Eviction ranking on a 10 k-cell graph and a bare catalog append."""
    cluster = workload.cluster
    rng = np.random.default_rng([workload.seed, 0xE71C])
    day = TimeKey.of(*wl.START_DAY)
    graph = StashGraph(ResolutionSpace(1, 8), name="bench")
    from repro.data.generator import NAM_DOMAIN

    while len(graph) < 10_000:
        query = AggregationQuery(
            bbox=random_box(rng, QuerySize.COUNTRY, NAM_DOMAIN),
            time_range=day.epoch_range(),
            resolution=Resolution(4, TemporalResolution.DAY),
        )
        for index, (key, summary) in enumerate(
            cluster.compute_footprint_cells(query).items()
        ):
            graph.upsert(Cell(key=key, summary=summary, freshness=1.0 + index % 97))
    decay = next(iter(cluster.nodes.values())).tracker.decay_rate
    seconds = median_seconds(
        lambda _: rank_victims(graph, decay, 60.0, len(graph) // 5), range(5)
    )
    out = {"core.rank_victims_ms_per_10k": 1e3 * seconds * 10_000 / len(graph)}

    catalog = StorageCatalog(
        cluster.partitioner, block_precision=cluster.config.cluster.block_precision
    )
    catalog.ingest(workload.dataset)
    batches = workload.ingested[-5:]
    if batches:
        out["storage.catalog_ingest_ms_per_batch"] = 1e3 * median_seconds(
            catalog.ingest, batches
        )
    if workload.writes:
        out["core.cells_invalidated_per_ingest"] = (
            workload.invalidated / workload.writes
        )
    return out


def flush_metric(workload: wl.ClusterWorkload) -> dict[str, float]:
    """Cost of dropping every cached cell (raw wall; ends the warm state)."""
    started = time.perf_counter()
    workload.cluster.flush_caches()
    return {"core.flush_caches_ms": 1e3 * (time.perf_counter() - started)}


# ---------------------------------------------------------------------------
# HTTP facade layers


def serve_metrics(workload: wl.HttpSim) -> dict[str, float]:
    server = workload.server
    step = max(1, len(workload.requests) // SAMPLE_OPS)
    sample = workload.requests[::step][:SAMPLE_OPS]
    payloads = [json.loads(body) for _, body in sample]
    bodies = [server.handle("POST", path, body)[1] for path, body in sample]
    handle_s = median_seconds(lambda op: server.handle("POST", op[0], op[1]), sample)
    sizes = []

    def round_trip(op: tuple[str, bytes]) -> None:
        sizes.append(len(workload.round_trip(*op)[1]))

    round_trip_s = median_seconds(round_trip, sample)
    return {
        "serve.parse_query_us": 1e6
        * median_seconds(lambda p: parse_query(p, server.attributes), payloads),
        "serve.handle_ms": 1e3 * handle_s,
        "serve.backend_evaluate_ms": 1e3
        * median_seconds(
            workload.backend.evaluate,
            [query.clone() for query in _sample(workload.queries)],
        ),
        "serve.canonical_json_ms": 1e3 * median_seconds(canonical_json, bodies),
        "serve.http_overhead_ms": 1e3 * (round_trip_s - handle_s),
        "serve.response_bytes": statistics.fmean(sizes),
    }


# ---------------------------------------------------------------------------
# socket transport layers


def transport_metrics(workload: wl.SocketRpc) -> dict[str, float]:
    sample = _sample(workload.queries)
    replies = [workload.evaluate(query.clone()) for query in sample]
    encoded = [codec.encode(reply) for reply in replies]
    frames = [encode_frame(reply) for reply in replies]
    rpc_s = median_seconds(workload.evaluate, [q.clone() for q in sample])

    # The same ops on a warm sim twin: what the wire adds on top.
    from repro.core.cluster import StashCluster
    from repro.data.generator import SyntheticNAMGenerator

    twin = StashCluster(
        SyntheticNAMGenerator(workload.spec).generate(), workload.cluster_config()
    )

    def on_twin(query: AggregationQuery) -> None:
        twin.run_query(query)
        twin.drain()

    for query in sample:
        on_twin(query.clone())
    twin_s = median_seconds(on_twin, [q.clone() for q in sample])
    return {
        "transport.codec_encode_ms": 1e3 * median_seconds(codec.encode, replies),
        "transport.codec_decode_ms": 1e3 * median_seconds(codec.decode, encoded),
        "transport.reply_bytes": statistics.fmean(len(body) for body in encoded),
        "transport.frame_encode_us": 1e6 * median_seconds(encode_frame, replies),
        "transport.frame_feed_us": 1e6
        * median_seconds(lambda frame: FrameDecoder().feed(frame), frames),
        "transport.ping_rtt_ms": 1e3
        * median_seconds(
            lambda node_id: workload.rpc(node_id, "ping", {}),
            list(workload.node_ids) * 6,
        ),
        "transport.wire_overhead_ms": 1e3 * (rpc_s - twin_s),
    }


def layer_metrics(workload: wl.Workload) -> dict[str, float]:
    """Every direct-call metric that applies to ``workload``."""
    out: dict[str, float] = {}
    if isinstance(workload, wl.ClusterWorkload):
        out.update(footprint_metrics(workload))
        out.update(sim_engine_metric())
    if isinstance(workload, (wl.ScanCold, wl.ChurnIngest)):
        out.update(scan_metrics(workload))
    if isinstance(workload, wl.ChurnIngest):
        out.update(churn_metrics(workload))
    if isinstance(workload, wl.HttpSim):
        out.update(serve_metrics(workload))
    if isinstance(workload, wl.SocketRpc):
        out.update(transport_metrics(workload))
    return out
