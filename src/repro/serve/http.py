"""HTTP query facade: STAC-style search/aggregation over the query seam.

A thin stdlib HTTP layer (``http.server.ThreadingHTTPServer``, no new
dependencies) in front of the same coordinator/transport seam every
other entry point uses.  Three POST endpoints in the style of a STAC
search/aggregation service:

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
import threading
from collections import OrderedDict, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, NoReturn, Sequence

from repro.config import StashConfig
from repro.data.observation import OBSERVATION_ATTRIBUTES
from repro.errors import ReproError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution, ResolutionSpace
from repro.geo.temporal import TemporalResolution, TimeRange
from repro.query.model import AggregationQuery, QueryResult
from repro.serve.driver import connect_client, evaluate_serial
from repro.workload.trace import query_to_dict

#: Query classes the facade accepts in a request's optional ``kind``
#: field (the flight recorder's histogram key).
QUERY_KINDS = ("pan", "zoom", "drill", "other")

_DRILL_DELTA = {"down": 1, "up": -1}

#: Largest request body the edge will read; the largest legal body is a
#: few hundred bytes.  A larger declared length is a 413, never a read.
MAX_BODY_BYTES = 1 << 20
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
    return float(value)


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
    return AggregationQuery(
        bbox=BoundingBox(south, north, west, east),
        time_range=TimeRange(start, end),
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
    later healthy request.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[str, QueryResult]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.degraded_skipped = 0

    def get(self, key: str) -> QueryResult | None:
        with self._lock:
            answer = self._entries.get(key)
            if answer is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return answer

    def put(self, key: str, answer: QueryResult) -> None:
        if answer.completeness < 1.0:
            with self._lock:
                self.degraded_skipped += 1
            return
        with self._lock:
            self._entries[key] = answer
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
        self.default_limit = DEFAULT_LIMIT
        self.max_limit = MAX_LIMIT
        self.cache = ResponseCache(CACHE_ENTRIES)
        self.requests: dict[str, int] = {}
        self._requests_lock = threading.Lock()
        self._httpd = _Server((serve.http_host, serve.http_port), _Handler)
        self._httpd.app = self  # type: ignore[attr-defined]
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
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)

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
        cached = self.cache.get(fingerprint)
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
        self.cache.put(fingerprint, answer)
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
                "GET /stats": "request counters, cache, flight recorder",
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
            "recorder": recorder.report() if recorder is not None else None,
        }


class _Server(ThreadingHTTPServer):
    #: Accept backlog.  The stdlib default of 5 resets connections when
    #: a burst of clients connects at once.
    request_queue_size = 128


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "stash-http/1"
    #: Seconds a handler thread waits on a silent connection (a body
    #: shorter than declared, an idle keep-alive) before giving it up.
    timeout = 30.0

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the facade keeps its own counters; stderr stays quiet

    def _respond(self, status: int, body: dict, extra: dict[str, str]) -> None:
        data = canonical_json(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in extra.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _refuse_body(self, status: int, code: str, message: str) -> NoReturn:
        # The body stays unread, so this connection cannot carry another
        # request.
        self.close_connection = True
        raise HttpError(status, code, message)

    def _read_body(self) -> bytes:
        declared = self.headers.get("Content-Length") or "0"
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
        return self.rfile.read(length) if length else b""

    def _dispatch(self, method: str) -> None:
        app: StashHttpServer = self.server.app  # type: ignore[attr-defined]
        try:
            body = self._read_body()
            status, payload, extra = app.handle(method, self.path, body)
        except HttpError as exc:
            status = exc.status
            payload = {"code": exc.code, "error": str(exc)}
            extra = {"Connection": "close"} if self.close_connection else {}
        except TimeoutError:
            # A body shorter than its declared length: the stdlib request
            # loop drops the connection, which frees this thread.
            raise
        except Exception as exc:  # pragma: no cover - defensive
            status = 500
            payload = {"code": "internal", "error": f"{type(exc).__name__}: {exc}"}
            extra = {}
        self._respond(status, payload, extra)

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")
