"""Contract tests for the HTTP query facade (repro/serve/http.py).

Field-by-field response schemas, pagination round trips with no
duplicate or skipped cells, and structured 4xx error codes for every
malformed-request class — the satellite checklist of ISSUE 9, pinned
as executable contract.
"""

import json
import sys
import threading

import pytest

from repro.bench.harness import BenchScale, bench_config, bench_dataset, make_system
from repro.query.model import PROVENANCE_KEYS
from repro.serve.http import (
    MAX_BODY_BYTES,
    SimBackend,
    StashHttpServer,
    _Handler,
    canonical_json,
    decode_token,
    encode_token,
)

from tests.serve._http import http_get, http_post, http_raw, raw_post

#: A viewport with a few hundred result cells — enough pages to matter.
QUERY = {
    "bbox": [25.0, 50.0, -130.0, -70.0],
    "time": [1359763200, 1359849600],
    "spatial": 3,
    "temporal": "day",
}

SUMMARY_FIELDS = {"count", "min", "max", "mean", "std"}


@pytest.fixture(scope="module")
def server():
    scale = BenchScale.unit()
    backend = SimBackend(
        make_system("stash", bench_dataset(scale), bench_config(scale))
    )
    with StashHttpServer(backend) as running:
        yield running
    backend.close()


@pytest.fixture(scope="module")
def url(server):
    return server.url


# ---------------------------------------------------------------------------
# response schemas, field by field


class TestAggregateSchema:
    def test_exact_field_set(self, url):
        status, body, headers = http_post(url, "/aggregate", QUERY)
        assert status == 200
        assert set(body) == {
            "type", "query", "cell_count", "summary",
            "completeness", "degraded", "provenance",
        }
        assert headers["Content-Type"] == "application/json"

    def test_field_values(self, url):
        _, body, _ = http_post(url, "/aggregate", QUERY)
        assert body["type"] == "aggregation"
        assert body["query"]["bbox"] == QUERY["bbox"]
        assert body["query"]["time"] == QUERY["time"]
        assert body["query"]["spatial"] == QUERY["spatial"]
        assert body["query"]["temporal"] == "day"
        assert body["query"]["attributes"] is None
        assert isinstance(body["cell_count"], int) and body["cell_count"] > 0
        assert body["completeness"] == 1.0
        assert body["degraded"] is False
        assert set(body["provenance"]) == set(PROVENANCE_KEYS)
        for stats in body["summary"].values():
            assert set(stats) == SUMMARY_FIELDS
            assert stats["count"] > 0
            assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_attribute_projection(self, url):
        _, body, _ = http_post(
            url, "/aggregate", {**QUERY, "attributes": ["temperature"]}
        )
        assert list(body["summary"]) == ["temperature"]
        assert body["query"]["attributes"] == ["temperature"]


class TestSearchSchema:
    def test_exact_field_set(self, url):
        status, body, _ = http_post(url, "/search", {**QUERY, "limit": 10})
        assert status == 200
        assert set(body) == {
            "type", "query", "matched", "returned", "limit", "offset",
            "cells", "next_token", "completeness", "degraded",
        }
        assert body["type"] == "cells"

    def test_entry_shape_and_order(self, url):
        _, body, _ = http_post(url, "/search", {**QUERY, "limit": 25})
        assert body["returned"] == len(body["cells"]) == 25
        labels = [entry["cell"] for entry in body["cells"]]
        assert labels == sorted(labels)
        for entry in body["cells"]:
            assert set(entry) == {"cell", "geohash", "time_key", "summary"}
            assert entry["cell"] == f"{entry['geohash']}@{entry['time_key']}"
            assert len(entry["geohash"]) == QUERY["spatial"]
            for stats in entry["summary"].values():
                assert set(stats) == SUMMARY_FIELDS or set(stats) == {"count"}

    def test_default_limit_applied(self, url, server):
        _, body, _ = http_post(url, "/search", QUERY)
        assert body["limit"] == server.default_limit


class TestDrillSchema:
    def test_down_and_up(self, url):
        status, down, _ = http_post(url, "/drill", {"query": QUERY})
        assert status == 200
        assert down["type"] == "drill"
        assert down["direction"] == "down"
        assert down["resolution"] == QUERY["spatial"] + 1
        assert down["query"]["spatial"] == QUERY["spatial"] + 1
        _, up, _ = http_post(
            url, "/drill", {"query": QUERY, "direction": "up"}
        )
        assert up["resolution"] == QUERY["spatial"] - 1

    def test_drill_changes_cell_population(self, url):
        _, base, _ = http_post(url, "/aggregate", QUERY)
        _, down, _ = http_post(url, "/drill", {"query": QUERY})
        assert down["cell_count"] > base["cell_count"]


class TestIntrospection:
    def test_service_description(self, url):
        status, body, _ = http_get(url, "/")
        assert status == 200
        assert body["service"] == "stash-http"
        assert body["backend"] == "sim"
        assert set(body["endpoints"]) == {
            "GET /", "GET /healthz", "GET /stats",
            "POST /aggregate", "POST /search", "POST /drill",
        }
        assert "temperature" in body["attributes"]

    def test_healthz(self, url):
        assert http_get(url, "/healthz")[1] == {"ok": True, "backend": "sim"}

    def test_stats_counts_requests_and_cache(self, url):
        before = http_get(url, "/stats")[1]
        http_post(url, "/aggregate", QUERY)
        after = http_get(url, "/stats")[1]
        assert after["requests"]["/aggregate"] > before["requests"].get("/aggregate", 0)
        assert set(after["cache"]) == {
            "entries", "hits", "misses", "degraded_skipped",
        }
        assert after["recorder"] is not None  # sim backend exposes the recorder
        outcomes = after["recorder"]["outcomes"]
        assert sum(outcomes.values()) == after["recorder"]["queries"]


# ---------------------------------------------------------------------------
# pagination


class TestPagination:
    def test_token_walk_covers_everything_exactly_once(self, url):
        seen: list[str] = []
        body = {**QUERY, "limit": 7}
        pages = 0
        while True:
            status, page, _ = http_post(url, "/search", body)
            assert status == 200
            seen.extend(entry["cell"] for entry in page["cells"])
            pages += 1
            if page["next_token"] is None:
                break
            body = {**QUERY, "limit": 7, "next_token": page["next_token"]}
        assert pages == -(-page["matched"] // 7)
        assert len(seen) == page["matched"]
        assert len(set(seen)) == len(seen), "duplicate cells across pages"
        assert seen == sorted(seen)

    def test_offset_equals_token_walk(self, url):
        _, first, _ = http_post(url, "/search", {**QUERY, "limit": 9})
        _, by_token, _ = http_post(
            url, "/search", {**QUERY, "limit": 9, "next_token": first["next_token"]}
        )
        _, by_offset, _ = http_post(
            url, "/search", {**QUERY, "limit": 9, "offset": 9}
        )
        assert by_token["cells"] == by_offset["cells"]
        assert by_token["offset"] == by_offset["offset"] == 9

    def test_final_page_is_partial_with_null_token(self, url):
        _, probe, _ = http_post(url, "/search", {**QUERY, "limit": 10})
        matched = probe["matched"]
        last_offset = (matched // 7) * 7
        if last_offset == matched:
            last_offset -= 7
        _, page, _ = http_post(
            url, "/search", {**QUERY, "limit": 7, "offset": last_offset}
        )
        assert page["returned"] == matched - last_offset
        assert page["next_token"] is None

    def test_offset_past_end_returns_empty_page(self, url):
        _, page, _ = http_post(
            url, "/search", {**QUERY, "limit": 7, "offset": 10**6}
        )
        assert page["cells"] == []
        assert page["returned"] == 0
        assert page["next_token"] is None

    def test_token_round_trips(self):
        token = encode_token("abcdef0123456789", 42)
        assert decode_token(token, "abcdef0123456789") == 42


# ---------------------------------------------------------------------------
# structured errors


BAD_REQUESTS = [
    ("/aggregate", {}, "invalid_bbox"),
    ("/aggregate", {**QUERY, "bbox": [25, 50, -130]}, "invalid_bbox"),
    ("/aggregate", {**QUERY, "bbox": ["a", "b", "c", "d"]}, "invalid_bbox"),
    ("/aggregate", {**QUERY, "bbox": [50, 25, -130, -70]}, "invalid_bbox"),
    ("/aggregate", {**QUERY, "bbox": [25, 95, -130, -70]}, "invalid_bbox"),
    ("/aggregate", {**QUERY, "bbox": [25, 50, -70, -130]}, "invalid_bbox"),
    ("/aggregate", {**QUERY, "bbox": [25, 50, -181, -70]}, "invalid_bbox"),
    ("/aggregate", {"bbox": QUERY["bbox"], "spatial": 3}, "invalid_time"),
    ("/aggregate", {**QUERY, "time": [1359763200]}, "invalid_time"),
    ("/aggregate", {**QUERY, "time": ["now", "later"]}, "invalid_time"),
    ("/aggregate", {**QUERY, "time": [5, 5]}, "invalid_time"),
    ("/aggregate", {**QUERY, "time": [9, 5]}, "invalid_time"),
    ("/aggregate", {**QUERY, "spatial": 0}, "invalid_resolution"),
    ("/aggregate", {**QUERY, "spatial": 13}, "invalid_resolution"),
    ("/aggregate", {**QUERY, "spatial": "three"}, "invalid_resolution"),
    ("/aggregate", {**QUERY, "spatial": True}, "invalid_resolution"),
    ("/aggregate", {**QUERY, "temporal": "fortnight"}, "invalid_resolution"),
    ("/aggregate", {**QUERY, "attributes": ["bogus"]}, "unknown_attribute"),
    ("/aggregate", {**QUERY, "attributes": "temperature"}, "unknown_attribute"),
    ("/aggregate", {**QUERY, "attributes": [1, 2]}, "unknown_attribute"),
    ("/aggregate", {**QUERY, "kind": "teleport"}, "invalid_kind"),
    ("/search", {**QUERY, "limit": 0}, "invalid_limit"),
    ("/search", {**QUERY, "limit": -3}, "invalid_limit"),
    ("/search", {**QUERY, "limit": 10**6}, "invalid_limit"),
    ("/search", {**QUERY, "limit": True}, "invalid_limit"),
    ("/search", {**QUERY, "limit": "ten"}, "invalid_limit"),
    ("/search", {**QUERY, "offset": -1}, "invalid_limit"),
    ("/search", {**QUERY, "next_token": "!!!not-base64!!!"}, "invalid_token"),
    ("/search", {**QUERY, "next_token": 17}, "invalid_token"),
    ("/drill", {}, "invalid_json"),
    ("/drill", {"query": QUERY, "direction": "sideways"}, "invalid_direction"),
    ("/drill", {"query": {**QUERY, "spatial": 12}}, "invalid_resolution"),
    (
        "/drill",
        {"query": {**QUERY, "spatial": 1}, "direction": "up"},
        "invalid_resolution",
    ),
    # Well-formed, but outside what the backend can serve: past the
    # cluster's ResolutionSpace (1..8) ...
    ("/aggregate", {**QUERY, "spatial": 9}, "invalid_resolution"),
    ("/aggregate", {**QUERY, "spatial": 12}, "invalid_resolution"),
    ("/search", {**QUERY, "spatial": 9}, "invalid_resolution"),
    ("/drill", {"query": {**QUERY, "spatial": 9}}, "invalid_resolution"),
    (
        "/drill",
        {"query": {**QUERY, "spatial": 8}, "direction": "down"},
        "invalid_resolution",
    ),
    # ... or inside it with a footprint past the engine's cell cap.
    ("/aggregate", {**QUERY, "spatial": 8}, "invalid_resolution"),
    ("/search", {**QUERY, "spatial": 8}, "invalid_resolution"),
    (
        "/drill",
        {"query": {**QUERY, "spatial": 7}, "direction": "down"},
        "invalid_resolution",
    ),
]


#: Declared body lengths the edge must refuse: (Content-Length value,
#: status, code).  Sent on a raw socket — no client library emits them.
BAD_LENGTHS = [
    ("abc", 400, "invalid_length"),
    ("-5", 400, "invalid_length"),
    ("+5", 400, "invalid_length"),
    ("5 5", 400, "invalid_length"),
    ("1_0", 400, "invalid_length"),
    ("2000000", 413, "payload_too_large"),
    (str(MAX_BODY_BYTES + 1), 413, "payload_too_large"),
    ("9" * 5000, 413, "payload_too_large"),
]


class TestStructuredErrors:
    @pytest.mark.parametrize("length,expected_status,code", BAD_LENGTHS)
    def test_bad_content_length_is_a_structured_error(
        self, url, length, expected_status, code
    ):
        request = raw_post("/aggregate", b"", content_length=length)
        status, raw, headers = http_raw(url, request, timeout=10.0)
        assert status == expected_status
        reply = json.loads(raw)
        assert raw == canonical_json(reply)
        assert set(reply) == {"code", "error"}
        assert reply["code"] == code
        # The unread body makes the connection unusable; the server says so.
        assert headers["Connection"] == "close"
        assert http_get(url, "/healthz")[0] == 200

    def test_largest_allowed_length_is_read_not_refused(self, url):
        body = b" " * (MAX_BODY_BYTES - 2) + b"{}"
        status, raw, _ = http_raw(url, raw_post("/aggregate", body), timeout=30.0)
        assert (status, json.loads(raw)["code"]) == (400, "invalid_bbox")

    def test_stalled_body_frees_its_handler_thread(self, url, monkeypatch):
        """A body shorter than declared must not pin a thread forever."""
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        request = raw_post("/aggregate", b"{", content_length="100")
        status, raw, _ = http_raw(url, request, timeout=10.0)
        # The read timed out and the server dropped the connection.
        assert (status, raw) == (None, b"")
        assert http_get(url, "/healthz")[0] == 200

    @pytest.mark.parametrize(
        "path,body,code",
        BAD_REQUESTS,
        ids=[f"{p[1:]}-{c}-{i}" for i, (p, _, c) in enumerate(BAD_REQUESTS)],
    )
    def test_malformed_request_is_a_structured_400(self, url, path, body, code):
        status, reply, _ = http_post(url, path, body)
        assert status == 400
        assert set(reply) == {"code", "error"}
        assert reply["code"] == code
        assert isinstance(reply["error"], str) and reply["error"]

    def test_unservable_resolution_never_reaches_backend_or_cache(self, server):
        entries = server.cache.stats()["entries"]
        for _ in range(2):
            status, reply, headers = http_post(
                server.url, "/aggregate", {**QUERY, "spatial": 8}
            )
            assert (status, reply["code"]) == (400, "invalid_resolution")
            assert "X-Cache" not in headers
        assert server.cache.stats()["entries"] == entries

    @pytest.mark.parametrize("engine", ["basic", "elastic"])
    def test_unservable_resolution_on_engines_without_a_graph(self, engine):
        """Engines that hold no ResolutionSpace serve the default one."""
        scale = BenchScale.unit()
        backend = SimBackend(
            make_system(engine, bench_dataset(scale), bench_config(scale))
        )
        with StashHttpServer(backend) as running:
            for spatial in (9, 8):
                status, reply, _ = http_post(
                    running.url, "/aggregate", {**QUERY, "spatial": spatial}
                )
                assert (status, reply["code"]) == (400, "invalid_resolution")
                assert reply["error"]
        backend.close()

    def test_facade_adopts_a_narrower_cluster_space(self):
        from repro.core.cluster import StashCluster
        from repro.geo.resolution import ResolutionSpace

        scale = BenchScale.unit()
        cluster = StashCluster(
            bench_dataset(scale), bench_config(scale), space=ResolutionSpace(2, 4)
        )
        with StashHttpServer(SimBackend(cluster)) as running:
            for body in (
                {**QUERY, "spatial": 5},
                {**QUERY, "spatial": 1},
            ):
                status, reply, _ = http_post(running.url, "/aggregate", body)
                assert (status, reply["code"]) == (400, "invalid_resolution")
            status, reply, _ = http_post(
                running.url, "/drill", {"query": {**QUERY, "spatial": 4}}
            )
            assert (status, reply["code"]) == (400, "invalid_resolution")
            status, _, _ = http_post(running.url, "/aggregate", {**QUERY, "spatial": 4})
            assert status == 200

    def test_body_that_is_not_json(self, url):
        status, reply, _ = http_post(url, "/aggregate", None, raw=b"{nope")
        assert (status, reply["code"]) == (400, "invalid_json")

    def test_body_that_is_a_json_array(self, url):
        status, reply, _ = http_post(url, "/aggregate", [1, 2, 3])
        assert (status, reply["code"]) == (400, "invalid_json")

    def test_foreign_token_rejected(self, url):
        """A token minted for one query must not page another."""
        _, page, _ = http_post(url, "/search", {**QUERY, "limit": 5})
        other = {**QUERY, "spatial": 2, "next_token": page["next_token"]}
        status, reply, _ = http_post(url, "/search", other)
        assert (status, reply["code"]) == (400, "invalid_token")

    def test_crafted_negative_offset_token_rejected(self, url):
        import base64

        forged = base64.urlsafe_b64encode(
            json.dumps(["0" * 16, -4]).encode()
        ).decode().rstrip("=")
        status, reply, _ = http_post(
            url, "/search", {**QUERY, "next_token": forged}
        )
        assert (status, reply["code"]) == (400, "invalid_token")

    def test_unknown_path_is_404(self, url):
        status, reply, _ = http_get(url, "/collections")
        assert (status, reply["code"]) == (404, "not_found")

    def test_get_on_post_endpoint_is_405(self, url):
        status, reply, _ = http_get(url, "/aggregate")
        assert (status, reply["code"]) == (405, "method_not_allowed")

    def test_post_on_get_endpoint_is_405(self, url):
        status, reply, _ = http_post(url, "/healthz", {})
        assert (status, reply["code"]) == (405, "method_not_allowed")


# ---------------------------------------------------------------------------
# caching headers


class TestCacheHeaders:
    def test_repeat_hits_cache_with_identical_body(self, url):
        fresh = {**QUERY, "bbox": [26.0, 49.0, -129.0, -71.0]}
        status, first, h1 = http_post(url, "/aggregate", fresh)
        assert status == 200 and h1["X-Cache"] == "miss"
        _, again, h2 = http_post(url, "/aggregate", fresh)
        assert h2["X-Cache"] == "hit"
        assert again == first

    def test_search_pages_share_the_cached_answer(self, url):
        fresh = {**QUERY, "bbox": [27.0, 48.0, -128.0, -72.0], "limit": 5}
        _, _, h1 = http_post(url, "/search", fresh)
        assert h1["X-Cache"] == "miss"
        _, _, h2 = http_post(url, "/search", {**fresh, "offset": 5})
        assert h2["X-Cache"] == "hit"

    def test_latency_header_present(self, url):
        _, _, headers = http_post(url, "/aggregate", QUERY)
        assert float(headers["X-Latency-S"]) >= 0.0

    def test_an_answer_cached_before_an_ingest_is_a_miss_after_it(self):
        """``ingest_live`` bumps ``StorageCatalog.generation``; an entry
        stamped with an older one is recomputed, never served (it used to
        be served until evicted)."""
        import numpy as np

        from repro.data.observation import ObservationBatch

        scale = BenchScale.unit()
        dataset = bench_dataset(scale)
        cluster = make_system("stash", dataset, bench_config(scale))
        with StashHttpServer(SimBackend(cluster)) as running:
            _, before, h1 = http_post(running.url, "/aggregate", QUERY)
            _, cached, h2 = http_post(running.url, "/aggregate", QUERY)
            assert (h1["X-Cache"], h2["X-Cache"], cached) == ("miss", "hit", before)

            n = 7
            rng = np.random.default_rng(5)
            generation = cluster.catalog.generation
            cluster.ingest_live(
                ObservationBatch(
                    lats=rng.uniform(30.0, 45.0, n),
                    lons=rng.uniform(-120.0, -80.0, n),
                    epochs=rng.uniform(QUERY["time"][0], QUERY["time"][1] - 1, n),
                    attributes={name: rng.uniform(0, 1, n) for name in dataset.attribute_names},
                )
            )
            assert cluster.catalog.generation == generation + 1

            _, after, h3 = http_post(running.url, "/aggregate", QUERY)
            _, again, h4 = http_post(running.url, "/aggregate", QUERY)
        assert (h3["X-Cache"], h4["X-Cache"]) == ("miss", "hit")
        assert again == after
        counts = [
            {name: s["count"] for name, s in body["summary"].items()}
            for body in (before, after)
        ]
        assert all(counts[1][name] == counts[0][name] + n for name in counts[0])


# ---------------------------------------------------------------------------
# the sim backend's concurrency policy: no thread of its own


class TestSimBackendThreading:
    @pytest.fixture()
    def system(self):
        scale = BenchScale.unit()
        return make_system("stash", bench_dataset(scale), bench_config(scale))

    def test_starts_no_thread(self, system):
        before = threading.active_count()
        backend = SimBackend(system)
        assert threading.active_count() == before
        backend.close()
        assert threading.active_count() == before

    def test_lone_request_runs_inline_as_run_query_then_drain(self, system, monkeypatch):
        from repro.serve.http import parse_query

        calls = []
        run_query, drain = system.run_query, system.drain
        monkeypatch.setattr(
            system,
            "run_query",
            lambda q: calls.append(("run_query", threading.get_ident())) or run_query(q),
        )
        monkeypatch.setattr(
            system,
            "drain",
            lambda: calls.append(("drain", threading.get_ident())) or drain(),
        )
        monkeypatch.setattr(
            system, "run_concurrent", lambda qs: pytest.fail("lone request was batched")
        )
        backend = SimBackend(system)
        query = parse_query(QUERY)
        result = backend.evaluate(query)
        me = threading.get_ident()
        assert calls == [("run_query", me), ("drain", me)]
        assert result.query is query and result.completeness == 1.0

    def test_overlapping_requests_each_get_their_own_answer(self, system):
        """More threads than cores, a short switch interval: a lost or
        crossed hand-off would leave a thread hanging or holding another
        thread's result."""
        from repro.serve.http import parse_query

        backend = SimBackend(system)
        mismatches, errors = [], []

        def one_user(user: int) -> None:
            try:
                for step in range(6):
                    spatial = 2 + (user + step) % 2
                    query = parse_query({**QUERY, "spatial": spatial})
                    result = backend.evaluate(query)
                    if result.query is not query:
                        mismatches.append((user, step))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=one_user, args=(u,)) for u in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not [t for t in threads if t.is_alive()]
        assert not errors and not mismatches
        assert not backend._pending

    def test_evaluation_error_reaches_every_waiting_request(self, system, monkeypatch):
        from repro.errors import QueryError
        from repro.serve.http import parse_query

        def boom(_query):
            raise QueryError("boom")

        monkeypatch.setattr(system, "run_query", boom)
        backend = SimBackend(system)
        with pytest.raises(QueryError, match="boom"):
            backend.evaluate(parse_query(QUERY))
        assert not backend._pending and not backend._lock.locked()
