"""The HTTP/1.1 edge itself (repro/serve/http.py: ``_Server`` / ``_Handler``).

Everything ``http.server`` used to do for the facade, pinned as
behaviour on raw sockets: persistent connections and pipelining, the
HTTP/1.0 and 1.1 defaults, ``Expect: 100-continue``, header-name case,
independence from how the bytes were segmented; the refusal rules for
hostile heads (docs/serving.md has the table), with bounded buffering
asserted; ``X-Request-Id`` on every response and one access-log line per
request.
"""

import json
import logging
import re
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings

from repro.config import ObservabilityConfig
from repro.geo.temporal import TimeKey
from repro.serve import http as edge
from repro.serve.http import (
    MAX_BODY_BYTES,
    MAX_HEADERS,
    MAX_LINE_BYTES,
    _Handler,
    _Server,
    canonical_json,
)

from tests.serve._http import (
    QUERY,
    http_get,
    http_post,
    make_server,
    parse_responses,
    raw_exchange,
    raw_post,
    read_response,
    wait_for,
)
from tests.strategies import chunkings, hostile_http_requests

BODY = json.dumps(QUERY).encode()
#: A well-formed keep-alive POST and the request every chunking and
#: mutation test starts from.
KEEP_ALIVE_POST = (
    b"POST /aggregate HTTP/1.1\r\nHost: test\r\n"
    b"Content-Type: application/json\r\n"
    + f"Content-Length: {len(BODY)}\r\n\r\n".encode()
    + BODY
)
CLOSING_POST = raw_post("/aggregate", BODY)
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
#: Headers that legitimately differ between two answers to one request.
VOLATILE = ("Date", "X-Request-Id", "X-Latency-S")


@pytest.fixture(scope="module")
def server():
    with make_server() as running:
        http_post(running.url, "/aggregate", QUERY)  # later answers are cache hits
        yield running


@pytest.fixture(scope="module")
def url(server):
    return server.url


@pytest.fixture()
def quick_timeout(monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.3)


def connect(server) -> socket.socket:
    return socket.create_connection(server.address, timeout=10.0)


def handlers_gone(server, within: float = 2.0) -> bool:
    return wait_for(lambda: not server._httpd.edge_stats()["threads_live"], within)


def stable(response) -> tuple:
    """A parsed response minus the headers that differ run to run."""
    status, headers, body, _ = response
    return status, {k: v for k, v in headers.items() if k not in VOLATILE}, body


def assert_structured_refusal(response, status: int, code: str) -> None:
    got, headers, body, _ = response
    reply = json.loads(body)
    assert (got, reply["code"]) == (status, code)
    assert set(reply) == {"code", "error"} and reply["error"]
    assert body == canonical_json(reply)
    assert headers["Connection"] == "close"
    assert headers["Content-Type"] == "application/json"


# ---------------------------------------------------------------------------
# persistent connections, pipelining, protocol versions


class TestPersistentConnections:
    @pytest.mark.parametrize("count", [2, 3])
    def test_requests_on_one_connection_are_answered_in_order(
        self, server, quick_timeout, count
    ):
        before = server._httpd.edge_stats()
        paths = ["/healthz", "/", "/stats"][:count]
        with connect(server) as conn, conn.makefile("rb") as stream:
            for path in paths:
                conn.sendall(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
                status, headers, body, _ = read_response(stream)
                assert status == 200 and "Connection" not in headers
                assert json.loads(body).keys() >= (
                    {"ok"} if path == "/healthz" else {"backend"}
                )
            # Then the connection idles until ``timeout`` and is closed.
            idle_from = time.monotonic()
            assert stream.read() == b""
            assert 0.25 <= time.monotonic() - idle_from < 5.0
        after = server._httpd.edge_stats()
        assert after["connections"] - before["connections"] == 1
        assert after["requests"] - before["requests"] == count
        assert handlers_gone(server)

    def test_pipelined_pair_in_one_segment_gets_two_answers(self, url):
        first, second = parse_responses(raw_exchange(url, [HEALTHZ + CLOSING_POST]))
        assert (first[0], json.loads(first[2])) == (200, {"ok": True, "backend": "sim"})
        assert (second[0], json.loads(second[2])["type"]) == (200, "aggregation")

    def test_http_1_0_closes_by_default(self, url):
        wire = raw_exchange(url, [b"GET /healthz HTTP/1.0\r\n\r\n" + HEALTHZ])
        assert [r[0] for r in parse_responses(wire)] == [200]  # second never read

    def test_http_1_0_stays_open_with_keep_alive(self, url):
        wire = raw_exchange(
            url,
            [
                b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
                b"GET / HTTP/1.0\r\n\r\n",
            ],
        )
        assert [r[0] for r in parse_responses(wire)] == [200, 200]

    def test_connection_close_is_honoured_on_1_1(self, url):
        wire = raw_exchange(
            url, [b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n" + HEALTHZ]
        )
        assert [r[0] for r in parse_responses(wire)] == [200]

    def test_expect_100_continue_gets_its_interim_line(self, server):
        head, _, body = CLOSING_POST.partition(b"\r\n\r\n")
        with connect(server) as conn, conn.makefile("rb") as stream:
            conn.sendall(head + b"\r\nExpect: 100-continue\r\n\r\n")
            interim = read_response(stream)
            assert interim[3] == b"HTTP/1.1 100 Continue\r\n\r\n"
            conn.sendall(body)
            status, _, answer, _ = read_response(stream)
            assert (status, json.loads(answer)["type"]) == (200, "aggregation")

    def test_no_interim_line_for_a_body_that_will_be_refused(self, url):
        request = raw_post("/aggregate", b"", content_length="2000000").replace(
            b"\r\n\r\n", b"\r\nExpect: 100-continue\r\n\r\n"
        )
        (only,) = parse_responses(raw_exchange(url, [request]))
        assert_structured_refusal(only, 413, "payload_too_large")

    def test_header_names_match_case_insensitively(self, url):
        shouting = (
            b"POST /aggregate HTTP/1.1\r\nHOST: t\r\ncOnNeCtIoN: CLOSE\r\n"
            + f"CONTENT-LENGTH:{len(BODY)}\r\nx-request-id:  abc.1 \r\n\r\n".encode()
            + BODY
        )
        (only,) = parse_responses(raw_exchange(url, [shouting]))
        assert only[0] == 200 and only[1]["X-Request-Id"] == "abc.1"
        assert stable(only) == stable(parse_responses(raw_exchange(url, [CLOSING_POST]))[0])

    def test_agreeing_duplicate_content_lengths_are_one_length(self, url):
        doubled = CLOSING_POST.replace(
            b"Content-Length:", f"Content-Length: {len(BODY)}\r\nContent-Length:".encode()
        )
        (only,) = parse_responses(raw_exchange(url, [doubled]))
        assert only[0] == 200

    def test_leading_double_slash_collapses_as_it_always_did(self, url):
        wire = raw_exchange(url, [b"GET //healthz HTTP/1.1\r\nConnection: close\r\n\r\n"])
        assert parse_responses(wire)[0][0] == 200


# ---------------------------------------------------------------------------
# the answer does not depend on how the request was segmented


class TestChunkingIndependence:
    @pytest.fixture(scope="class")
    def reference(self, url):
        return stable(parse_responses(raw_exchange(url, [CLOSING_POST]))[0])

    def test_byte_at_a_time(self, url, reference):
        pieces = [CLOSING_POST[i : i + 1] for i in range(len(CLOSING_POST))]
        assert stable(parse_responses(raw_exchange(url, pieces))[0]) == reference

    def test_head_split_mid_line_and_body_apart(self, url, reference):
        cut = CLOSING_POST.index(b"Content-Type") + 5
        end = CLOSING_POST.index(b"\r\n\r\n") + 4
        pieces = [CLOSING_POST[:cut], CLOSING_POST[cut:end], CLOSING_POST[end:]]
        wire = raw_exchange(url, pieces, gap=0.02)
        assert stable(parse_responses(wire)[0]) == reference

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(pieces=chunkings(CLOSING_POST))
    def test_any_chunking(self, url, reference, pieces):
        assert stable(parse_responses(raw_exchange(url, pieces))[0]) == reference


# ---------------------------------------------------------------------------
# hostile heads


def _with_headers(*lines: bytes) -> bytes:
    return b"GET /healthz HTTP/1.1\r\n" + b"".join(lines) + b"\r\n"


HOSTILE_HEADS = {
    "request-line-too-long": (
        b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n", 414, "uri_too_long",
    ),
    "header-line-too-long": (
        _with_headers(b"X-Pad: " + b"a" * MAX_LINE_BYTES + b"\r\n"),
        431, "headers_too_large",
    ),
    "one-header-too-many": (
        _with_headers(*[b"X-%d: v\r\n" % i for i in range(MAX_HEADERS + 1)]),
        431, "headers_too_large",
    ),
    "http-2": (b"GET /healthz HTTP/2.0\r\n\r\n", 400, "bad_request"),
    "http-0.9-style": (b"GET /healthz\r\n\r\n", 400, "bad_request"),
    "not-http": (b"GET /healthz FTP/1.1\r\n\r\n", 400, "bad_request"),
    "four-tokens": (b"GET /a b HTTP/1.1\r\n\r\n", 400, "bad_request"),
    "empty-request-line": (b"\r\n\r\n", 400, "bad_request"),
    "non-ascii-target": ("GET /hé HTTP/1.1\r\n\r\n".encode(), 400, "bad_request"),
    "control-byte-in-target": (b"GET /a\x7fb HTTP/1.1\r\n\r\n", 400, "bad_request"),
    "bare-lf-request-line": (b"GET /healthz HTTP/1.1\n\n", 400, "bad_request"),
    "bare-lf-header": (_with_headers(b"X-A: 1\n"), 400, "bad_request"),
    "nul-in-header": (_with_headers(b"X-A: 1\x002\r\n"), 400, "bad_request"),
    "header-without-colon": (_with_headers(b"no colon here\r\n"), 400, "bad_request"),
    "space-before-colon": (_with_headers(b"X-A : 1\r\n"), 400, "bad_request"),
    "obs-fold-continuation": (
        _with_headers(b"X-A: 1\r\n", b"  folded\r\n"), 400, "bad_request",
    ),
    "conflicting-content-lengths": (
        _with_headers(b"Content-Length: 3\r\n", b"Content-Length: 4\r\n") + b"abcd",
        400, "invalid_length",
    ),
    "unsupported-method": (b"PATCH /aggregate HTTP/1.1\r\n\r\n", 501, "not_implemented"),
    "head-method": (b"HEAD /healthz HTTP/1.1\r\n\r\n", 501, "not_implemented"),
}


class TestHostileHeads:
    @pytest.mark.parametrize("name", HOSTILE_HEADS)
    def test_refused_with_a_structured_body_and_a_close(self, server, name):
        request, status, code = HOSTILE_HEADS[name]
        # A keep-alive request rides behind it: it must never be answered.
        responses = parse_responses(raw_exchange(server.url, [request + HEALTHZ]))
        assert len(responses) == 1
        assert_structured_refusal(responses[0], status, code)
        assert handlers_gone(server)
        assert http_get(server.url, "/healthz")[0] == 200

    def test_one_hundred_headers_are_still_fine(self, url):
        request = _with_headers(
            *[b"X-%d: v\r\n" % i for i in range(MAX_HEADERS - 1)], b"Connection: close\r\n"
        )
        assert parse_responses(raw_exchange(url, [request]))[0][0] == 200

    def test_longest_allowed_request_line_is_routed_not_refused(self, url):
        prefix, suffix = b"GET /", b" HTTP/1.1\r\n"
        target = b"a" * (MAX_LINE_BYTES - len(prefix) - len(suffix))
        request = prefix + target + suffix + b"Connection: close\r\n\r\n"
        (only,) = parse_responses(raw_exchange(url, [request]))
        assert (only[0], json.loads(only[2])["code"]) == (404, "not_found")

    def test_transfer_encoding_is_refused_and_its_body_never_read(self, server):
        """The stdlib read no body here and took the chunk stream for
        the next request; the chunk below *is* a request."""
        smuggled = b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n"
        request = (
            b"POST /aggregate HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(smuggled) + smuggled + b"\r\n0\r\n\r\n"
        )
        before = server._httpd.edge_stats()["requests"]
        responses = parse_responses(raw_exchange(server.url, [request]))
        assert len(responses) == 1
        assert_structured_refusal(responses[0], 501, "not_implemented")
        assert server._httpd.edge_stats()["requests"] == before + 1

    @pytest.mark.parametrize(
        "truncated",
        [b"GET /heal", b"GET /healthz HTTP/1.1\r\nHost: t", b"GET /healthz HTTP/1.1\r\nHost: t\r\n"],
        ids=["mid-request-line", "mid-header", "before-blank-line"],
    )
    def test_head_truncated_then_eof(self, server, truncated):
        responses = parse_responses(
            raw_exchange(server.url, [truncated], shut_write=True)
        )
        assert len(responses) == 1
        assert_structured_refusal(responses[0], 400, "bad_request")
        assert handlers_gone(server)

    def test_dripped_head_is_cut_off_at_the_deadline(self, server, quick_timeout):
        """One byte per 50 ms never trips a per-read timeout; the
        request's own deadline does."""
        pieces = [HEALTHZ[i : i + 1] for i in range(len(HEALTHZ))]  # ~2 s of drip
        started = time.monotonic()
        wire = raw_exchange(server.url, pieces, gap=0.05)
        assert wire == b""  # a clean close, no half-answer
        assert time.monotonic() - started < len(pieces) * 0.05
        assert handlers_gone(server, within=1.0)
        assert http_get(server.url, "/healthz")[0] == 200

    def test_dripped_body_is_cut_off_too(self, server, quick_timeout):
        head, _, body = CLOSING_POST.partition(b"\r\n\r\n")
        pieces = [head + b"\r\n\r\n", *[body[i : i + 1] for i in range(len(body))]]
        assert raw_exchange(server.url, pieces, gap=0.05) == b""
        assert handlers_gone(server, within=1.0)


class TestBoundedAllocation:
    @pytest.fixture()
    def high_water(self, monkeypatch):
        """Largest number of bytes any handler had buffered after a read."""
        seen = [0]
        fill = _Handler._fill

        def measured(self, *args):
            more = fill(self, *args)
            seen[0] = max(seen[0], len(self._buffer))
            return more

        monkeypatch.setattr(_Handler, "_fill", measured)
        return seen

    def test_an_endless_request_line_is_refused_after_one_capped_line(
        self, server, high_water
    ):
        flood = b"GET /" + b"a" * (8 << 20)  # 8 MiB and no line end in sight
        responses = parse_responses(raw_exchange(server.url, [flood]))
        assert responses and responses[0][0] == 414
        assert 0 < high_water[0] < MAX_LINE_BYTES + edge._RECV_BYTES

    def test_an_endless_header_is_refused_after_one_capped_line(
        self, server, high_water
    ):
        flood = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (8 << 20)
        responses = parse_responses(raw_exchange(server.url, [flood]))
        assert responses and responses[0][0] == 431
        assert 0 < high_water[0] < MAX_LINE_BYTES + edge._RECV_BYTES

    def test_a_full_size_body_with_a_flood_behind_it(self, server, high_water):
        body = b" " * (MAX_BODY_BYTES - 2) + b"{}"
        wire = raw_exchange(
            server.url, [raw_post("/aggregate", body) + b"z" * (4 << 20)], timeout=30.0
        )
        (only,) = parse_responses(wire)
        assert (only[0], json.loads(only[2])["code"]) == (400, "invalid_bbox")
        assert MAX_BODY_BYTES <= high_water[0] <= MAX_LINE_BYTES + MAX_BODY_BYTES


# ---------------------------------------------------------------------------
# anything at all


class TestArbitraryBytes:
    @pytest.fixture()
    def failures(self, monkeypatch, quick_timeout):
        """Exceptions that escaped a handler or killed a thread."""
        caught = []
        monkeypatch.setattr(
            _Server, "handle_error", lambda *_: caught.append(("handler", _))
        )
        monkeypatch.setattr(threading, "excepthook", lambda args: caught.append(args))
        return caught

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(request=hostile_http_requests(KEEP_ALIVE_POST))
    def test_structured_response_or_close_and_nothing_escapes(
        self, server, failures, request
    ):
        wire = raw_exchange(server.url, [request], shut_write=True)
        for status, headers, body, _ in parse_responses(wire):
            reply = json.loads(body)
            assert body == canonical_json(reply)
            assert "X-Request-Id" in headers
            if status != 200:
                assert set(reply) == {"code", "error"}
        assert failures == []

    def test_afterwards_the_server_is_idle_and_healthy(self, server):
        assert handlers_gone(server)
        assert http_get(server.url, "/healthz")[0] == 200


# ---------------------------------------------------------------------------
# hostile time ranges


#: Bodies whose time range the engine must never walk.  At the parent:
#: 6.8 s building 833 334 keys before the cap said no; a 31 s spin ended
#: by an ``OverflowError``; ``ValueError: year 10000 is out of range``;
#: an ``OSError`` from ``fromtimestamp`` that dropped the connection.
HOSTILE_TIMES = {
    "a-million-hours": ({"time": [0, 3e9], "temporal": "hour"}, "invalid_resolution"),
    "past-the-calendar-by-days": ({"time": [0, 1e18], "temporal": "day"}, "invalid_time"),
    "into-year-10000": ({"time": [2.5e11, 2.6e11], "temporal": "year"}, "invalid_time"),
    "before-year-1": ({"time": [-1e18, 0]}, "invalid_time"),
    "over-the-cap-alone": ({"time": [-6e10, 2e11], "temporal": "hour"}, "invalid_time"),
    "a-400-digit-integer": ({"time": [0, 10**400]}, "invalid_time"),
}


class TestHostileTimeRanges:
    @pytest.mark.parametrize("name", HOSTILE_TIMES)
    def test_refused_fast_with_no_time_key_built(self, server, name, monkeypatch):
        overrides, code = HOSTILE_TIMES[name]
        built = []
        real = TimeKey.__new__
        monkeypatch.setattr(
            TimeKey, "__new__", lambda cls, parts: built.append(parts) or real(cls, parts)
        )
        took = []
        for _ in range(3):  # the quickest of three: a busy machine is not a spin
            started = time.perf_counter()
            status, reply, _headers = http_post(
                server.url, "/aggregate", {**QUERY, **overrides}
            )
            took.append(time.perf_counter() - started)
            assert (status, reply["code"]) == (400, code), reply
            assert set(reply) == {"code", "error"}
        assert min(took) < 0.1
        assert built == []
        assert http_get(server.url, "/healthz")[0] == 200

    def test_every_route_refuses_them(self, url):
        body = {**QUERY, "time": [-1e18, 0]}
        assert http_post(url, "/search", body)[1]["code"] == "invalid_time"
        drill = http_post(url, "/drill", {"query": body, "direction": "down"})
        assert (drill[0], drill[1]["code"]) == (400, "invalid_time")

    def test_an_os_error_from_the_application_is_answered_not_dropped(
        self, server, monkeypatch
    ):
        """Only a failed *read* means the request never arrived."""

        def broken(method, path, body):
            raise OSError(75, "Value too large for defined data type")

        monkeypatch.setattr(server, "handle", broken)
        (status, _headers, body, _raw), = parse_responses(
            raw_exchange(server.url, [CLOSING_POST])
        )
        reply = json.loads(body)
        assert (status, reply["code"]) == (500, "internal")
        assert "OSError" in reply["error"]


# ---------------------------------------------------------------------------
# X-Request-Id


REQUESTS_OF_EVERY_OUTCOME = {
    "200": (CLOSING_POST, 200),
    "400-body": (raw_post("/aggregate", b"{nope"), 400),
    "404": (b"GET /collections HTTP/1.1\r\nConnection: close\r\n\r\n", 404),
    "405": (b"GET /aggregate HTTP/1.1\r\nConnection: close\r\n\r\n", 405),
    "413-refused-body": (raw_post("/aggregate", b"", content_length="2000000"), 413),
    "400-refused-length": (raw_post("/aggregate", b"", content_length="abc"), 400),
    "414-head": (HOSTILE_HEADS["request-line-too-long"][0], 414),
    "400-head": (HOSTILE_HEADS["http-2"][0], 400),
    "501": (HOSTILE_HEADS["unsupported-method"][0], 501),
}
MINTED = re.compile(r"[0-9a-f]{8}-[0-9a-f]+")


class TestRequestId:
    @pytest.mark.parametrize("outcome", REQUESTS_OF_EVERY_OUTCOME)
    def test_every_response_carries_one(self, url, outcome):
        request, status = REQUESTS_OF_EVERY_OUTCOME[outcome]
        (only,) = parse_responses(raw_exchange(url, [request]))
        assert only[0] == status
        assert MINTED.fullmatch(only[1]["X-Request-Id"])
        assert b"X-Request-Id" not in only[2] and only[1]["X-Request-Id"].encode() not in only[2]

    def test_minted_ids_share_a_prefix_and_never_repeat(self, url):
        ids = [http_get(url, "/healthz")[2]["X-Request-Id"] for _ in range(20)]
        assert len(set(ids)) == 20
        assert len({i.split("-")[0] for i in ids}) == 1

    def test_two_servers_mint_from_different_prefixes(self, url):
        with make_server() as other:
            theirs = http_get(other.url, "/healthz")[2]["X-Request-Id"]
        ours = http_get(url, "/healthz")[2]["X-Request-Id"]
        assert theirs.split("-")[0] != ours.split("-")[0]

    @pytest.mark.parametrize("supplied", ["a", "trace-01.AZ_9", "x" * 64])
    def test_a_well_formed_client_id_is_echoed(self, url, supplied):
        request = CLOSING_POST.replace(
            b"Host: test", f"Host: test\r\nX-Request-Id: {supplied}".encode()
        )
        (only,) = parse_responses(raw_exchange(url, [request]))
        assert only[1]["X-Request-Id"] == supplied

    @pytest.mark.parametrize(
        "supplied", ["", "x" * 65, "has space", "semi;colon", "café", "a,b"]
    )
    def test_anything_else_is_replaced_by_a_minted_one(self, url, supplied):
        request = CLOSING_POST.replace(
            b"Host: test", b"Host: test\r\nX-Request-Id: " + supplied.encode("latin-1")
        )
        (only,) = parse_responses(raw_exchange(url, [request]))
        assert only[0] == 200 and MINTED.fullmatch(only[1]["X-Request-Id"])

    def test_a_client_id_is_echoed_on_a_refusal_after_the_head(self, url):
        request = raw_post("/aggregate", b"", content_length="abc").replace(
            b"Host: test", b"Host: test\r\nX-Request-Id: mine"
        )
        (only,) = parse_responses(raw_exchange(url, [request]))
        assert (only[0], only[1]["X-Request-Id"]) == (400, "mine")


# ---------------------------------------------------------------------------
# the access log


ACCESS_LOGGER = "repro.serve.access"


def access_lines(caplog) -> list[tuple[int, dict]]:
    return [
        (record.levelno, json.loads(record.getMessage()))
        for record in caplog.records
        if record.name == ACCESS_LOGGER
    ]


class TestAccessLog:
    def test_silent_at_the_default_level(self, url, caplog):
        http_post(url, "/aggregate", QUERY)
        raw_exchange(url, [HOSTILE_HEADS["http-2"][0]])
        assert access_lines(caplog) == []

    @pytest.mark.parametrize("outcome", REQUESTS_OF_EVERY_OUTCOME)
    def test_one_line_per_request_whatever_its_outcome(self, server, caplog, outcome):
        request, status = REQUESTS_OF_EVERY_OUTCOME[outcome]
        with caplog.at_level(logging.INFO, logger=ACCESS_LOGGER):
            (only,) = parse_responses(raw_exchange(server.url, [request]))
            assert handlers_gone(server)
        ((level, line),) = access_lines(caplog)
        assert level == logging.INFO
        assert line["id"] == only[1]["X-Request-Id"]
        assert line["status"] == status == only[0]
        assert line["bytes_out"] == len(only[3])
        assert line["cache"] == only[1].get("X-Cache")
        assert isinstance(line["ms"], float) and 0.0 < line["ms"] < 60_000.0
        assert set(line) - {"completeness"} == {
            "id", "method", "route", "status", "ms", "bytes_in", "bytes_out", "cache",
        }

    def test_fields_of_an_answered_query(self, server, caplog):
        with caplog.at_level(logging.INFO, logger=ACCESS_LOGGER):
            raw_exchange(server.url, [CLOSING_POST])
            assert handlers_gone(server)
        ((_, line),) = access_lines(caplog)
        assert (line["method"], line["route"]) == ("POST", "/aggregate")
        assert line["bytes_in"] == len(CLOSING_POST)
        assert (line["cache"], line["completeness"]) == ("hit", 1.0)

    def test_unread_bytes_are_not_counted_and_unknown_fields_are_null(
        self, server, caplog
    ):
        with caplog.at_level(logging.INFO, logger=ACCESS_LOGGER):
            raw_exchange(server.url, [b"GET /healthz HTTP/2.0\r\nHost: t\r\n\r\n"])
            assert handlers_gone(server)
        ((_, line),) = access_lines(caplog)
        assert (line["method"], line["route"], line["cache"]) == (None, None, None)
        assert line["bytes_in"] == len(b"GET /healthz HTTP/2.0\r\n")
        assert "completeness" not in line

    def test_each_request_on_a_connection_gets_its_own_line(self, server, caplog):
        with caplog.at_level(logging.INFO, logger=ACCESS_LOGGER):
            wire = raw_exchange(server.url, [HEALTHZ + HEALTHZ + CLOSING_POST])
            assert handlers_gone(server)
        sent = [r[1]["X-Request-Id"] for r in parse_responses(wire)]
        assert [line["id"] for _, line in access_lines(caplog)] == sent
        assert len(set(sent)) == 3

    def test_a_request_past_its_class_bound_logs_at_warning(self, caplog):
        slow_for = ObservabilityConfig(
            slo_targets=(("pan", 95.0, 0.0), ("drill", 95.0, 0.0), ("zoom", 95.0, 3600.0))
        )
        # The line is written after the answer has left: stop() (which
        # joins the handlers) has to come before the level is restored.
        with caplog.at_level(logging.INFO, logger=ACCESS_LOGGER), make_server(
            observability=slow_for
        ) as running:
            ids = [
                http_post(running.url, path, body, raw=raw)[2]["X-Request-Id"]
                for path, body, raw in [
                    ("/aggregate", {**QUERY, "kind": "pan"}, None),
                    ("/aggregate", {**QUERY, "kind": "zoom"}, None),
                    ("/aggregate", QUERY, None),  # "other": no bound
                    ("/drill", {"query": QUERY}, None),
                    ("/aggregate", None, b"{nope"),
                ]
            ]
        # A line is written after its answer, so lines of consecutive
        # connections can swap places: match them up by id.
        levels = {line["id"]: level for level, line in access_lines(caplog)}
        assert [levels[request_id] for request_id in ids] == [
            logging.WARNING, logging.INFO, logging.INFO, logging.WARNING, logging.INFO,
        ]

    def test_a_catch_all_bound_covers_every_request(self, caplog):
        everything = ObservabilityConfig(slo_targets=(("*", 99.0, 0.0),))
        with caplog.at_level(logging.INFO, logger=ACCESS_LOGGER), make_server(
            observability=everything
        ) as running:
            http_get(running.url, "/healthz")
        assert [level for level, _ in access_lines(caplog)] == [logging.WARNING]


# ---------------------------------------------------------------------------
# lifecycle


def stops_within(server, seconds: float) -> bool:
    """Run ``server.stop()`` on a helper thread; did it return in time?"""
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(seconds)
    return not stopper.is_alive()


class TestLifecycle:
    def test_stop_before_start_returns(self):
        assert stops_within(make_server(), 1.0)

    def test_stop_twice_after_start_returns(self):
        server = make_server().start()
        assert http_get(server.url, "/healthz")[0] == 200
        assert stops_within(server, 10.0)
        assert stops_within(server, 1.0)
        assert handlers_gone(server)
