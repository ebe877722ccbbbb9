"""HTTP query facade: STAC-style search/aggregation over the query seam.

A thin HTTP/1.1 layer (a stdlib ``socketserver`` accept loop and this
module's own request reader — no new dependencies) in front of the same
coordinator/transport seam every other entry point uses.  Three POST
endpoints in the style of a STAC search/aggregation service:

* ``POST /aggregate`` — viewport statistics: the merged summary over
  every cell the query touches, plus completeness and provenance;
* ``POST /search`` — the paginated cell listing (``limit`` / ``offset``
  / opaque ``next_token``), cells sorted by key so pages are stable;
* ``POST /drill`` — region drill-down: re-evaluates the query one
  spatial precision finer (``direction: down``) or coarser (``up``).

The facade is backend-agnostic: :class:`SimBackend` serves straight
from a simulated cluster (serial requests run ``run_query`` + ``drain``
— the byte-identity preconditions of docs/serving.md; overlapping ones
race inside the one simulation) and :class:`SocketBackend` drives a
real :class:`~repro.transport.asyncio_net.AsyncioTransport` cluster
through the serve driver.  Both return the
:class:`~repro.query.model.QueryResult` the one
:class:`~repro.system.QueryClient` produced.  Under serial traffic the
response **body bytes** for a query must equal the sim twin's
serialization of the same answer — the equivalence suite in
``tests/serve/test_equivalence.py`` holds the facade to that.

Two deliberate caching rules (mirroring docs/fault-model.md): answers
with ``completeness < 1`` are **never** cached, and limits above
``MAX_LIMIT`` are a 400, not a silent clamp.  Volatile data
(latency, cache disposition) travels in ``X-Latency-S`` / ``X-Cache``
headers so bodies stay byte-comparable.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import hashlib
import json
import logging
import os
import queue
import re
import socket
import socketserver
import threading
import time
from collections import OrderedDict, deque
from http import HTTPStatus
from typing import Any, NoReturn, Sequence

from repro.config import StashConfig
from repro.data.observation import OBSERVATION_ATTRIBUTES
from repro.errors import ReproError, TemporalError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution, ResolutionSpace
from repro.geo.temporal import TemporalResolution, TimeRange
from repro.obs.registry import MetricsRegistry
from repro.query.model import AggregationQuery, QueryResult
from repro.serve.driver import cluster_metrics, connect_client, evaluate_serial
from repro.workload.trace import query_to_dict

#: Query classes the facade accepts in a request's optional ``kind``
#: field (the flight recorder's histogram key).
QUERY_KINDS = ("pan", "zoom", "drill", "other")

_DRILL_DELTA = {"down": 1, "up": -1}

#: Largest request body the edge will read; the largest legal body is a
#: few hundred bytes.  A larger declared length is a 413, never a read.
MAX_BODY_BYTES = 1 << 20
#: Longest request line (414 past it) or header line (431), terminator
#: included, and the most header lines one request may carry (431).
MAX_LINE_BYTES = 1 << 16
MAX_HEADERS = 100
#: Seconds a handler thread that has finished a connection waits for the
#: next one before it exits: longer than a back-to-back client's gap,
#: far shorter than anything a person or a probe does, so a serial
#: client is served by one warm thread and an idle server holds none.
HANDLER_LINGER_S = 0.005
#: ``/search`` page size when the request names none, and the hard cap a
#: request may ask for (a limit above the cap is a 400, not a clamp —
#: silent clamping hides client bugs).
DEFAULT_LIMIT = 100
MAX_LIMIT = 1000
#: Entries in the complete-answer response cache (LRU).  Degraded answers
#: (completeness < 1) are never cached, mirroring the client-side rule in
#: docs/fault-model.md.
CACHE_ENTRIES = 256


class HttpError(ReproError):
    """A structured 4xx/5xx: machine-readable code + human message."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


# ---------------------------------------------------------------------------
# canonical serialization (shared with the equivalence tests' sim twin)


def canonical_json(body: Any) -> bytes:
    """The facade's one true wire form; tests byte-compare against it."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def query_fingerprint(query: AggregationQuery) -> str:
    """Stable identity of a query's *content* (query_id excluded)."""
    digest = hashlib.sha256(canonical_json(query_to_dict(query)))
    return digest.hexdigest()[:16]


def cell_entries(cells: dict) -> list[dict[str, Any]]:
    """Cells as sorted JSON entries — the /search listing order."""
    return [
        {
            "cell": str(key),
            "geohash": key.geohash,
            "time_key": str(key.time_key),
            "summary": cells[key].to_json_dict(),
        }
        for key in sorted(cells, key=str)
    ]


def merged_summary(cells: dict) -> dict[str, dict[str, float]]:
    """Overall viewport statistics: cells merged in sorted-key order.

    The merge order is pinned (sorted by key string) because float
    accumulation order changes result bytes; the sim twin merges the
    same way, so /aggregate bodies stay byte-comparable.
    """
    from repro.data.statistics import SummaryVector

    if not cells:
        return {}
    ordered = [cells[key] for key in sorted(cells, key=str)]
    return SummaryVector.merge_all(ordered).to_json_dict()


def aggregate_body(query: AggregationQuery, answer: QueryResult) -> dict:
    """The /aggregate response body (also the twin's comparison form)."""
    return {
        "type": "aggregation",
        "query": query_to_dict(query),
        "cell_count": len(answer.cells),
        "summary": merged_summary(answer.cells),
        "completeness": answer.completeness,
        "degraded": answer.completeness < 1.0,
        "provenance": dict(answer.provenance),
    }


def search_body(
    query: AggregationQuery,
    answer: QueryResult,
    limit: int,
    offset: int,
) -> dict:
    """One /search page (also the twin's comparison form)."""
    entries = cell_entries(answer.cells)
    page = entries[offset : offset + limit]
    next_offset = offset + len(page)
    token = None
    if next_offset < len(entries):
        token = encode_token(query_fingerprint(query), next_offset)
    return {
        "type": "cells",
        "query": query_to_dict(query),
        "matched": len(entries),
        "returned": len(page),
        "limit": limit,
        "offset": offset,
        "cells": page,
        "next_token": token,
        "completeness": answer.completeness,
        "degraded": answer.completeness < 1.0,
    }


def drill_body(
    query: AggregationQuery, answer: QueryResult, direction: str
) -> dict:
    body = aggregate_body(query, answer)
    body["type"] = "drill"
    body["direction"] = direction
    body["resolution"] = query.resolution.spatial
    return body


# ---------------------------------------------------------------------------
# pagination tokens


def encode_token(fingerprint: str, offset: int) -> str:
    raw = canonical_json([fingerprint, offset])
    return base64.urlsafe_b64encode(raw).decode().rstrip("=")


def decode_token(token: str, fingerprint: str) -> int:
    """Offset carried by ``token``; rejects foreign or garbled tokens."""
    if not isinstance(token, str) or not token:
        raise HttpError(400, "invalid_token", "next_token must be a string")
    padded = token + "=" * (-len(token) % 4)
    try:
        payload = json.loads(base64.urlsafe_b64decode(padded.encode()))
    except (binascii.Error, ValueError, UnicodeDecodeError):
        raise HttpError(400, "invalid_token", "next_token is garbled") from None
    if (
        not isinstance(payload, list)
        or len(payload) != 2
        or not isinstance(payload[0], str)
        or not isinstance(payload[1], int)
        or isinstance(payload[1], bool)
        or payload[1] < 0
    ):
        raise HttpError(400, "invalid_token", "next_token is garbled")
    if payload[0] != fingerprint:
        raise HttpError(
            400, "invalid_token", "next_token belongs to a different query"
        )
    return payload[1]


# ---------------------------------------------------------------------------
# request parsing


def _number(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer hundreds of digits long
        raise ValueError(f"{value!r} is out of range") from None


def parse_query(
    body: Any,
    attributes: Sequence[str] = OBSERVATION_ATTRIBUTES,
    space: ResolutionSpace = ResolutionSpace(),
) -> AggregationQuery:
    """Trace-format query body -> AggregationQuery, with structured 4xxs.

    The accepted shape is exactly :func:`repro.workload.trace.query_to_dict`
    (plus an optional ``kind``), so any saved trace record is a valid
    request body.  ``attributes`` and ``space`` are what the backend can
    serve; a request outside either is a 400 here, not an error deep in
    the engine.
    """
    if not isinstance(body, dict):
        raise HttpError(400, "invalid_json", "request body must be a JSON object")
    try:
        south, north, west, east = [_number(v) for v in body["bbox"]]
    except KeyError:
        raise HttpError(400, "invalid_bbox", "missing bbox field") from None
    except (TypeError, ValueError):
        raise HttpError(
            400, "invalid_bbox", "bbox must be [south, north, west, east] numbers"
        ) from None
    if not (-90.0 <= south < north <= 90.0):
        raise HttpError(
            400, "invalid_bbox", f"latitude band [{south}, {north}] is invalid"
        )
    if not (-180.0 <= west < east <= 180.0):
        raise HttpError(
            400, "invalid_bbox", f"longitude band [{west}, {east}] is invalid"
        )
    try:
        start, end = [_number(v) for v in body["time"]]
    except KeyError:
        raise HttpError(400, "invalid_time", "missing time field") from None
    except (TypeError, ValueError):
        raise HttpError(
            400, "invalid_time", "time must be [start_epoch, end_epoch] numbers"
        ) from None
    if start >= end:
        raise HttpError(
            400, "invalid_time", f"time range [{start}, {end}] is empty"
        )
    spatial = body.get("spatial")
    if (
        isinstance(spatial, bool)
        or not isinstance(spatial, int)
        or not space.min_spatial <= spatial <= space.max_spatial
    ):
        raise HttpError(
            400,
            "invalid_resolution",
            f"spatial must be an integer in "
            f"[{space.min_spatial}, {space.max_spatial}]",
        )
    temporal_name = body.get("temporal", "day")
    try:
        temporal = TemporalResolution[str(temporal_name).upper()]
    except KeyError:
        raise HttpError(
            400, "invalid_resolution", f"unknown temporal unit {temporal_name!r}"
        ) from None
    requested = body.get("attributes")
    if requested is not None and not (
        isinstance(requested, list)
        and all(isinstance(a, str) for a in requested)
    ):
        raise HttpError(
            400, "unknown_attribute", "attributes must be a list of strings"
        )
    if requested:
        known = set(attributes)
        for name in requested:
            if name not in known:
                raise HttpError(
                    400, "unknown_attribute", f"unknown attribute {name!r}"
                )
    kind = body.get("kind", "other")
    if kind not in QUERY_KINDS:
        raise HttpError(
            400, "invalid_kind", f"kind must be one of {', '.join(QUERY_KINDS)}"
        )
    # Counted, not built: a range of a million hours is refused in the
    # time it takes to divide, and one the calendar cannot name (before
    # year 1, after 9999, infinite) never reaches the engine.
    time_range = TimeRange(start, end)
    try:
        bins = time_range.key_count(temporal)
    except TemporalError as exc:
        raise HttpError(400, "invalid_time", str(exc)) from None
    if bins > AggregationQuery.MAX_FOOTPRINT_CELLS:
        raise HttpError(
            400,
            "invalid_time",
            f"time range covers {bins} {temporal.name.lower()} bins, over the "
            f"{AggregationQuery.MAX_FOOTPRINT_CELLS}-cell footprint cap",
        )
    return AggregationQuery(
        bbox=BoundingBox(south, north, west, east),
        time_range=time_range,
        resolution=Resolution(spatial, temporal),
        attributes=tuple(requested) if requested else None,
        kind=kind,
    )


def parse_limit_offset(body: dict, default_limit: int, max_limit: int) -> tuple[int, int]:
    limit = body.get("limit", default_limit)
    if isinstance(limit, bool) or not isinstance(limit, int) or not 1 <= limit <= max_limit:
        raise HttpError(
            400, "invalid_limit", f"limit must be an integer in [1, {max_limit}]"
        )
    offset = body.get("offset", 0)
    if isinstance(offset, bool) or not isinstance(offset, int) or offset < 0:
        raise HttpError(400, "invalid_limit", "offset must be a non-negative integer")
    return limit, offset


# ---------------------------------------------------------------------------
# backends


class SimBackend:
    """Facade over a simulated cluster, serial or racing as traffic is.

    A handler thread appends its query to the pending list and takes the
    lock; whichever thread holds the lock evaluates everything pending
    and hands the answers back.  A lone request therefore runs inline on
    its own thread — ``run_query`` then ``drain()``, the HTTP analogue
    of the serve driver's quiesce barrier, so under serial traffic cache
    state evolves exactly as in a serial sim replay (the byte-identity
    regime).  Requests that arrive while one is being evaluated go into
    the simulator together (``run_concurrent``) and genuinely race there
    — queueing delay builds up, admission shedding and the circuit
    breaker fire, degraded answers flow back; byte-identity to a serial
    twin is *not* promised for them, only honest completeness.  The
    simulator itself stays single-threaded throughout.
    """

    name = "sim"

    def __init__(self, system: Any):
        self.system = system
        self._lock = threading.Lock()
        #: (query, slot) pairs; a slot receives its QueryResult or the
        #: exception the evaluation raised.  deque append/popleft are
        #: atomic, and only the lock holder pops.
        self._pending: "deque[tuple[AggregationQuery, list]]" = deque()

    @property
    def recorder(self):
        return getattr(self.system, "recorder", None)

    def evaluate(self, query: AggregationQuery) -> QueryResult:
        slot: list = []
        self._pending.append((query, slot))
        with self._lock:
            if not slot:
                self._evaluate_pending()
        outcome = slot[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _evaluate_pending(self) -> None:
        batch = []
        while self._pending:
            batch.append(self._pending.popleft())
        queries = [query for query, _ in batch]
        try:
            if len(queries) == 1:
                outcomes: list = [self.system.run_query(queries[0])]
            else:
                outcomes = self.system.run_concurrent(queries)
            self.system.drain()
        except Exception as exc:  # each waiting handler re-raises it
            outcomes = [exc] * len(batch)
        for (_, slot), outcome in zip(batch, outcomes):
            slot.append(outcome)

    def cluster_metrics(self) -> dict[str, Any]:
        """The nodes' registries merged, between evaluations."""
        with self._lock:
            return MetricsRegistry.merge(
                node.metrics.snapshot() for node in self.system.nodes.values()
            )

    def close(self) -> None:
        pass


class SocketBackend:
    """Facade over a live asyncio socket cluster.

    Owns a private event loop on a daemon thread; ``evaluate`` runs the
    driver's serial step (:func:`repro.serve.driver.evaluate_serial`:
    the client's request over TCP, then the 2-round quiesce barrier)
    under a lock, preserving the byte-identity preconditions end to end.
    """

    name = "socket"

    def __init__(
        self,
        node_ids: Sequence[str],
        addresses: dict[str, tuple[str, int]],
        config: StashConfig,
    ):
        self.config = config
        self._lock = threading.Lock()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        self.transport, self.client = self._call(
            connect_client(node_ids, addresses, config)
        )

    @property
    def recorder(self):
        return self.client.recorder

    def _call(self, coro):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=self.config.serve.wall_clock_budget)

    def evaluate(self, query: AggregationQuery) -> QueryResult:
        try:
            with self._lock:
                result, wall = self._call(
                    evaluate_serial(self.transport, self.client, query)
                )
        except ReproError as exc:
            raise HttpError(502, "bad_gateway", str(exc)) from exc
        # On sockets ``X-Latency-S`` is wall seconds, not engine time.
        result.latency = wall
        return result

    def cluster_metrics(self) -> dict[str, Any]:
        """The live nodes' registries merged: one ``stats`` RPC per node.

        A node that cannot be reached, or answers with something that is
        not a snapshot (``ValueError`` from a malformed histogram), is a
        ``502 bad_gateway`` like a failed evaluation.
        """
        try:
            with self._lock:
                return self._call(
                    cluster_metrics(
                        self.transport, self.client.membership.live_nodes()
                    )
                )
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            raise HttpError(502, "bad_gateway", str(exc)) from exc

    def close(self) -> None:
        self._call(self.transport.aclose())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()


# ---------------------------------------------------------------------------
# response cache


class ResponseCache:
    """LRU over evaluated answers, keyed by query fingerprint.

    Degraded answers (``completeness < 1``) are never inserted — the
    same rule the sim client applies to its cell cache
    (docs/fault-model.md): a shed or partial answer must not satisfy a
    later healthy request.  Each entry carries the catalog generation it
    was computed at; one from before the latest ingest is a miss.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[str, tuple[int, QueryResult]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.degraded_skipped = 0

    def get(self, key: str, generation: int) -> QueryResult | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] < generation:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def put(self, key: str, answer: QueryResult, generation: int) -> None:
        if answer.completeness < 1.0:
            with self._lock:
                self.degraded_skipped += 1
            return
        with self._lock:
            self._entries[key] = (generation, answer)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "degraded_skipped": self.degraded_skipped,
            }


# ---------------------------------------------------------------------------
# the server


class StashHttpServer:
    """The facade itself: routes, validation, caching, stats."""

    def __init__(
        self,
        backend: Any,
        config: StashConfig | None = None,
        attributes: Sequence[str] = OBSERVATION_ATTRIBUTES,
    ):
        self.backend = backend
        self.config = config or StashConfig()
        serve = self.config.serve
        self.attributes = tuple(attributes)
        #: The resolutions the backend's engine serves; engines without a
        #: graph (and socket clusters) run the default space.
        self.space: ResolutionSpace = getattr(
            getattr(backend, "system", None), "space", ResolutionSpace()
        )
        #: Whose ``generation`` stamps cache entries; a socket cluster has
        #: no live ingest, so its entries never age.
        self._catalog = getattr(getattr(backend, "system", None), "catalog", None)
        self.default_limit = DEFAULT_LIMIT
        self.max_limit = MAX_LIMIT
        self.cache = ResponseCache(CACHE_ENTRIES)
        self.requests: dict[str, int] = {}
        self._requests_lock = threading.Lock()
        self._httpd = _Server((serve.http_host, serve.http_port), _Handler, self)
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "StashHttpServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, then return once every handler thread has exited.

        Safe before :meth:`start` and safe twice: only an accept loop that
        runs is shut down (``shutdown`` would wait for one that never ran).
        """
        thread, self._thread = self._thread, None
        if thread is not None:
            self._httpd.shutdown()
            thread.join(timeout=10.0)
        self._httpd.server_close()

    def __enter__(self) -> "StashHttpServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- request handling --------------------------------------------------

    def _count(self, path: str) -> None:
        with self._requests_lock:
            self.requests[path] = self.requests.get(path, 0) + 1

    def handle(self, method: str, path: str, body: bytes) -> tuple[int, dict, dict]:
        """Route one request; returns (status, body_dict, extra_headers)."""
        self._count(path)
        if method == "GET":
            if path == "/":
                return 200, self._describe(), {}
            if path == "/healthz":
                return 200, {"ok": True, "backend": self.backend.name}, {}
            if path == "/stats":
                return 200, self._stats(), {}
            if path in ("/aggregate", "/search", "/drill"):
                raise HttpError(405, "method_not_allowed", f"use POST for {path}")
            raise HttpError(404, "not_found", f"unknown path {path}")
        if method != "POST":
            raise HttpError(405, "method_not_allowed", f"unsupported method {method}")
        if path not in ("/aggregate", "/search", "/drill"):
            if path in ("/", "/healthz", "/stats"):
                raise HttpError(405, "method_not_allowed", f"use GET for {path}")
            raise HttpError(404, "not_found", f"unknown path {path}")
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            raise HttpError(400, "invalid_json", "request body is not valid JSON") from None
        if path == "/aggregate":
            return self._aggregate(payload)
        if path == "/search":
            return self._search(payload)
        return self._drill(payload)

    def _evaluate_cached(
        self, query: AggregationQuery
    ) -> tuple[QueryResult, str]:
        fingerprint = query_fingerprint(query)
        # Read before evaluating: an ingest racing the evaluation leaves
        # the entry a generation behind, so the next request recomputes.
        generation = 0 if self._catalog is None else self._catalog.generation
        cached = self.cache.get(fingerprint, generation)
        if cached is not None:
            return cached, "hit"
        # The engine's footprint cap, checked before the engine: an
        # oversized request is a 400, never an evaluation (so never a
        # cache entry either).
        cells = query.footprint_size()
        if cells > query.MAX_FOOTPRINT_CELLS:
            raise HttpError(
                400,
                "invalid_resolution",
                f"query footprint of {cells} cells exceeds "
                f"{query.MAX_FOOTPRINT_CELLS}; lower the resolution",
            )
        answer = self.backend.evaluate(query)
        self.cache.put(fingerprint, answer, generation)
        return answer, "miss"

    @staticmethod
    def _headers(answer: QueryResult, disposition: str) -> dict[str, str]:
        return {
            "X-Cache": disposition,
            "X-Latency-S": f"{answer.latency:.6f}",
        }

    def _aggregate(self, payload: Any) -> tuple[int, dict, dict]:
        query = parse_query(payload, self.attributes, self.space)
        answer, disposition = self._evaluate_cached(query)
        return 200, aggregate_body(query, answer), self._headers(answer, disposition)

    def _search(self, payload: Any) -> tuple[int, dict, dict]:
        query = parse_query(payload, self.attributes, self.space)
        limit, offset = parse_limit_offset(
            payload, self.default_limit, self.max_limit
        )
        if "next_token" in payload and payload["next_token"] is not None:
            offset = decode_token(payload["next_token"], query_fingerprint(query))
        answer, disposition = self._evaluate_cached(query)
        return (
            200,
            search_body(query, answer, limit, offset),
            self._headers(answer, disposition),
        )

    def _drill(self, payload: Any) -> tuple[int, dict, dict]:
        if not isinstance(payload, dict) or "query" not in payload:
            raise HttpError(400, "invalid_json", "drill body needs a query field")
        direction = payload.get("direction", "down")
        if direction not in _DRILL_DELTA:
            raise HttpError(
                400, "invalid_direction", "direction must be 'down' or 'up'"
            )
        base = parse_query(payload["query"], self.attributes, self.space)
        # Re-parsing the drilled body applies the edge's resolution rule
        # to the new precision: a drill past either end of the space is
        # the same 400 as asking for that precision outright.
        query = parse_query(
            {
                **payload["query"],
                "spatial": base.resolution.spatial + _DRILL_DELTA[direction],
                "kind": "drill",
            },
            self.attributes,
            self.space,
        )
        answer, disposition = self._evaluate_cached(query)
        return (
            200,
            drill_body(query, answer, direction),
            self._headers(answer, disposition),
        )

    # -- introspection -----------------------------------------------------

    def _describe(self) -> dict:
        return {
            "service": "stash-http",
            "version": "1",
            "backend": self.backend.name,
            "attributes": list(self.attributes),
            "limits": {"default": self.default_limit, "max": self.max_limit},
            "endpoints": {
                "GET /": "this description",
                "GET /healthz": "liveness",
                "GET /stats": "request counters, cache, flight recorder, node metrics",
                "POST /aggregate": "merged viewport statistics",
                "POST /search": "paginated cell listing (limit/offset/next_token)",
                "POST /drill": "re-evaluate one precision finer (down) or coarser (up)",
            },
        }

    def _stats(self) -> dict:
        recorder = getattr(self.backend, "recorder", None)
        with self._requests_lock:
            requests = dict(self.requests)
        return {
            "backend": self.backend.name,
            "requests": requests,
            "cache": self.cache.stats(),
            "edge": self._httpd.edge_stats(),
            "recorder": recorder.report() if recorder is not None else None,
            "cluster": self.backend.cluster_metrics(),
        }


# ---------------------------------------------------------------------------
# the edge: accept loop, handler threads, HTTP/1.1 request reader

#: One JSON line per request at INFO (WARNING for a request slower than
#: its class's SLO bound); silent at the default level.
_ACCESS_LOG = logging.getLogger("repro.serve.access")

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_METHODS = frozenset(("GET", "POST", "PUT", "DELETE"))
_VERSIONS = ("HTTP/1.0", "HTTP/1.1")
#: Most bytes one ``recv`` asks for, so what a connection has buffered
#: never exceeds one capped line (or one body) plus this.
_RECV_BYTES = 1 << 16
#: ``name: value``: an RFC 7230 token, a colon, a value free of NUL and
#: bare CR/LF, then CRLF.  A continuation (obs-fold) line starts with a
#: blank and so has no token.
_HEADER_LINE = re.compile(rb"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):([^\x00\r\n]*)\r\n")
_REQUEST_ID = re.compile(r"[A-Za-z0-9._-]{1,64}")
_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


class _Server(socketserver.TCPServer):
    """The accept loop, and handler threads that linger, then leave.

    An accepted connection goes to an idle handler thread if there is
    one and to a new thread only if there is none; a handler that has
    finished a connection waits ``HANDLER_LINGER_S`` on the hand-off
    queue and exits if nothing arrives.  ``_idle`` counts the handlers
    that are waiting (or about to) and not yet spoken for: the acceptor
    takes one off it *before* it enqueues, so every queued connection
    has a waiting handler of its own and a burst gets one thread per
    open connection.  A server nobody is talking to holds no handler
    thread at all.
    """

    allow_reuse_address = True
    #: Accept backlog.  The stdlib default of 5 resets connections when
    #: a burst of clients connects at once.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], handler: type, app: StashHttpServer):
        self.app = app
        self._lock = threading.Lock()
        #: Not a ``SimpleQueue``: with two consumers waiting, its timed
        #: ``get`` can outlast the timeout for good (CPython 3.11 re-arms
        #: the wait with a negative, i.e. infinite, remainder).
        self._handoff: "queue.Queue[tuple[socket.socket, Any]]" = queue.Queue()
        self._idle = 0
        self._handlers: set[threading.Thread] = set()
        #: Accepted connections not yet finished with, served or queued.
        self._open: set[socket.socket] = set()
        self.connections = 0
        self.requests = 0
        self.threads_started = 0
        self._id_prefix = os.urandom(4).hex()
        self._date = (0, "")
        super().__init__(address, handler)

    def process_request(self, request: socket.socket, client_address: Any) -> None:
        with self._lock:
            self.connections += 1
            self._open.add(request)
            claimed = self._idle > 0
            if claimed:
                self._idle -= 1
            else:
                self.threads_started += 1
                thread = threading.Thread(
                    target=self._serve_connections,
                    args=(request, client_address),
                    name=f"stash-http-handler-{self.threads_started}",
                    daemon=True,
                )
                self._handlers.add(thread)
        if claimed:
            self._handoff.put((request, client_address))
        else:
            thread.start()

    def _serve_connections(self, request: socket.socket, client_address: Any) -> None:
        while True:
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            # Forgotten before it is closed: server_close() only ever
            # touches a connection that is still open.
            with self._lock:
                self._open.discard(request)
                self._idle += 1
            self.shutdown_request(request)
            handed = self._await_handoff()
            if handed is None:
                return
            request, client_address = handed

    def _await_handoff(self) -> tuple[socket.socket, Any] | None:
        """The next connection for this idle handler; None once it has left."""
        while True:
            try:
                return self._handoff.get(timeout=HANDLER_LINGER_S)
            except queue.Empty:
                with self._lock:
                    if self._idle:  # nobody has claimed this handler: leave
                        self._idle -= 1
                        self._handlers.discard(threading.current_thread())
                        return None
                # Every idle slot is spoken for, so a connection is on its
                # way to one of the handlers waiting here: go round again,
                # still with the linger — another handler gone idle
                # meanwhile may be the one that takes it.

    def server_close(self) -> None:
        """Close the listener, wake every handler and join it.

        Called once the accept loop has ended, so no handler is claimed
        or started from here on.  Shutting down the read side ends a
        keep-alive wait at once and still lets a request in flight send
        its answer.  A handler left alive would keep its frame's
        reference to the server, backend and cluster behind it.
        """
        super().server_close()
        with self._lock:
            handlers = list(self._handlers)
            for connection in self._open:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # reset by its peer already
        for thread in handlers:
            thread.join()

    def mint_id(self) -> str:
        """Count a request; the id it carries unless its client sent one."""
        with self._lock:
            self.requests += 1
            return f"{self._id_prefix}-{self.requests:x}"

    def http_date(self) -> str:
        """RFC 7231 IMF-fixdate for now, formatted once per second."""
        now = int(time.time())
        second, text = self._date
        if second != now:
            year, month, day, hour, minute, sec, weekday, *_ = time.gmtime(now)
            text = (
                f"{_DAYS[weekday]}, {day:02d} {_MONTHS[month - 1]} {year:04d} "
                f"{hour:02d}:{minute:02d}:{sec:02d} GMT"
            )
            self._date = (now, text)
        return text

    def edge_stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "connections": self.connections,
                "requests": self.requests,
                "threads_started": self.threads_started,
                "threads_live": len(self._handlers),
            }


class _Handler(socketserver.BaseRequestHandler):
    """One connection: read a request, answer it in one write, repeat."""

    #: Seconds a handler thread waits on a silent keep-alive connection,
    #: and — counted again from a request's first byte — the budget for
    #: the whole request to arrive, however slowly it is dripped.
    timeout = 30.0

    def setup(self) -> None:
        self._buffer = bytearray()

    def handle(self) -> None:
        try:
            while self._await_request() and self._serve_request():
                pass
        except OSError:
            pass  # a silent, reset or vanished peer: drop it, free the thread

    # -- bounded reads -----------------------------------------------------

    def _fill(self, limit: int = _RECV_BYTES) -> bool:
        """One ``recv`` into the buffer within the deadline; False at EOF."""
        remaining = self._deadline - time.monotonic()
        if remaining <= 0.0:
            raise TimeoutError("request incomplete at its deadline")
        self.request.settimeout(remaining)
        chunk = self.request.recv(limit)
        self._buffer += chunk
        return bool(chunk)

    def _await_request(self) -> bool:
        """Wait for a request's first bytes; False if the peer closed instead."""
        self._deadline = time.monotonic() + self.timeout
        if not self._buffer:
            if not self._fill():
                return False
            self._deadline = time.monotonic() + self.timeout
        return True

    def _readline(self, status: int, code: str, what: str) -> bytes:
        """The next head line, terminator included (a partial one at EOF)."""
        buffer = self._buffer
        end = buffer.find(b"\n") + 1
        while not end and len(buffer) < MAX_LINE_BYTES:
            searched = len(buffer)
            if not self._fill():
                end = searched  # EOF: the caller refuses a line cut short
                break
            end = buffer.find(b"\n", searched) + 1
        if end > MAX_LINE_BYTES or (not end and len(buffer) >= MAX_LINE_BYTES):
            raise HttpError(status, code, f"{what} exceeds {MAX_LINE_BYTES} bytes")
        line = bytes(buffer[:end])
        del buffer[:end]
        self._received += end
        return line

    def _read(self, length: int) -> bytes:
        """``length`` body bytes (fewer only if the peer closed early)."""
        buffer = self._buffer
        while len(buffer) < length and self._fill(
            min(_RECV_BYTES, length - len(buffer))
        ):
            pass
        body = bytes(buffer[:length])
        del buffer[:length]
        self._received += len(body)
        return body

    def _send(self, data: bytes) -> None:
        self.request.settimeout(self.timeout)
        self.request.sendall(data)

    # -- one request -------------------------------------------------------

    def _read_head(self) -> dict[str, str]:
        """Request line and headers (names lower-cased) -> the header dict.

        Sets ``method`` and ``target`` as soon as they are known, a
        well-formed client ``request_id`` in place of the minted one, and
        ``close_connection`` once the whole head is sound.
        """
        line = self._readline(414, "uri_too_long", "request line")
        try:
            method, target, version = line.decode("ascii").split()
        except ValueError:  # wrong token count, or not ASCII
            raise HttpError(
                400, "bad_request", "request line must be 'METHOD target HTTP/1.x'"
            ) from None
        if not line.endswith(b"\r\n") or not target.isprintable():
            raise HttpError(400, "bad_request", "malformed request line")
        if version not in _VERSIONS:
            raise HttpError(400, "bad_request", f"unsupported version {version}")
        if method not in _METHODS:
            raise HttpError(501, "not_implemented", f"unsupported method {method}")
        if target.startswith("//"):
            target = "/" + target.lstrip("/")
        self.method, self.target = method, target
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self._readline(431, "headers_too_large", "header line")
            if line == b"\r\n":
                break
            match = _HEADER_LINE.fullmatch(line)
            if match is None:
                raise HttpError(400, "bad_request", "malformed header line")
            name = match[1].decode("ascii").lower()
            value = match[2].strip(b" \t").decode("latin-1")
            if name not in headers:
                headers[name] = value
            elif name != "content-length":
                headers[name] += ", " + value
            elif headers[name] != value:
                raise HttpError(
                    400, "invalid_length", "conflicting Content-Length headers"
                )
        else:
            raise HttpError(
                431, "headers_too_large", f"more than {MAX_HEADERS} header lines"
            )
        supplied = headers.get("x-request-id", "")
        if _REQUEST_ID.fullmatch(supplied):
            self.request_id = supplied
        if "transfer-encoding" in headers:
            # The body's extent is unknowable without decoding it, so it
            # is never read and the connection cannot carry on.
            raise HttpError(
                501, "not_implemented", "Transfer-Encoding is not supported"
            )
        tokens = [t.strip() for t in headers.get("connection", "").lower().split(",")]
        if "close" in tokens:
            self.close_connection = True
        elif "keep-alive" in tokens:
            self.close_connection = False
        else:
            self.close_connection = version == "HTTP/1.0"
        if version == "HTTP/1.0":
            headers.pop("expect", None)  # RFC 7231 5.1.1: ignored on 1.0
        return headers

    def _refuse_body(self, status: int, code: str, message: str) -> NoReturn:
        # The body stays unread, so this connection cannot carry another
        # request.
        self.close_connection = True
        raise HttpError(status, code, message)

    def _read_body(self, headers: dict[str, str]) -> bytes:
        declared = headers.get("content-length") or "0"
        # isdigit admits only an unsigned decimal: no sign, no blanks.
        if not (declared.isascii() and declared.isdigit()):
            self._refuse_body(
                400, "invalid_length", "Content-Length must be a non-negative integer"
            )
        # int() itself refuses a digit string thousands long.
        if (
            len(declared.lstrip("0")) > len(str(MAX_BODY_BYTES))
            or int(declared) > MAX_BODY_BYTES
        ):
            self._refuse_body(
                413,
                "payload_too_large",
                f"declared request body exceeds {MAX_BODY_BYTES} bytes",
            )
        length = int(declared)
        if not length:
            return b""
        if headers.get("expect", "").lower() == "100-continue":
            self._send(b"HTTP/1.1 100 Continue\r\n\r\n")
        return self._read(length)

    def _serve_request(self) -> bool:
        """Read, route and answer one request; True to keep the connection."""
        started = time.perf_counter()
        server: _Server = self.server  # type: ignore[assignment]
        self.method = self.target = None
        self.request_id = server.mint_id()
        self.close_connection = True  # until a sound head says otherwise
        self._received = 0
        body = b""
        arrived = False
        try:
            headers = self._read_head()
            body = self._read_body(headers)
            arrived = True
            status, payload, extra = server.app.handle(self.method, self.target, body)
        except HttpError as exc:
            status = exc.status
            payload = {"code": exc.code, "error": str(exc)}
            extra = {"Connection": "close"} if self.close_connection else {}
        except Exception as exc:
            if isinstance(exc, OSError) and not arrived:
                # A request that never finished arriving: handle() drops
                # the connection, which frees this thread.  (An OSError
                # out of the application is its bug, and is answered.)
                raise
            status = 500
            payload = {"code": "internal", "error": f"{type(exc).__name__}: {exc}"}
            extra = {}
        data = canonical_json(payload)
        lines = "".join(f"{name}: {value}\r\n" for name, value in extra.items())
        response = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            f"Server: stash-http/1\r\nDate: {server.http_date()}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
            f"{lines}X-Request-Id: {self.request_id}\r\n\r\n"
        ).encode("latin-1") + data
        self._send(response)
        if _ACCESS_LOG.isEnabledFor(logging.INFO):
            wall_s = time.perf_counter() - started
            record = {
                "id": self.request_id,
                "method": self.method,
                "route": self.target,
                "status": status,
                "ms": round(1e3 * wall_s, 3),
                "bytes_in": self._received,
                "bytes_out": len(response),
                "cache": extra.get("X-Cache"),
            }
            if "completeness" in payload:
                record["completeness"] = payload["completeness"]
            level = logging.WARNING if self._over_slo(wall_s, body) else logging.INFO
            _ACCESS_LOG.log(level, "%s", canonical_json(record).decode())
        return not self.close_connection

    def _over_slo(self, wall_s: float, body: bytes) -> bool:
        """Did this request outlast its query class's configured bound?"""
        targets = self.server.app.config.observability.slo_targets  # type: ignore[attr-defined]
        exceeded = {cls for cls, _percentile, seconds in targets if wall_s > seconds}
        if not exceeded or "*" in exceeded:
            return bool(exceeded)
        # Only a request already past some class's bound pays for a
        # second look at its body.
        if self.target == "/drill":
            return "drill" in exceeded
        try:
            kind = json.loads(body).get("kind", "other")
        except (ValueError, AttributeError):
            return False
        return kind in exceeded
