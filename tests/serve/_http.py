"""Tiny urllib and raw-socket clients shared by the HTTP facade suites,
and the small server the edge suites run them against."""

import io
import json
import socket
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

from repro.config import ClusterConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.serve.http import SimBackend, StashHttpServer

#: A viewport with a few hundred result cells.
QUERY = {
    "bbox": [25.0, 50.0, -130.0, -70.0],
    "time": [1359763200, 1359849600],
    "spatial": 3,
    "temporal": "day",
}


def make_server(**config) -> StashHttpServer:
    """An unstarted facade over a two-node, 2 000-record sim cluster."""
    settings = StashConfig(cluster=ClusterConfig(num_nodes=2), **config)
    system = StashCluster(small_test_dataset(num_records=2_000), settings)
    return StashHttpServer(SimBackend(system), settings)


def wait_for(condition, within: float = 2.0) -> bool:
    """Poll ``condition`` until it holds; False if it never did."""
    deadline = time.monotonic() + within
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


def http_get(url: str, path: str, timeout: float = 60.0):
    """GET; returns (status, parsed_body, headers)."""
    try:
        with urllib.request.urlopen(url + path, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def http_post(url: str, path: str, body, timeout: float = 60.0, raw: bytes | None = None):
    """POST JSON (or ``raw`` bytes); returns (status, parsed_body, headers)."""
    data = raw if raw is not None else json.dumps(body).encode()
    request = urllib.request.Request(
        url + path, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def http_post_bytes(url: str, path: str, body, timeout: float = 60.0):
    """POST JSON; returns (status, raw_body_bytes, headers)."""
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


def raw_post(path: str, body: bytes, content_length: str | None = None) -> bytes:
    """A ``Connection: close`` POST as wire bytes; ``content_length``
    overrides the honest header value."""
    declared = str(len(body)) if content_length is None else content_length
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
        f"Content-Type: application/json\r\nContent-Length: {declared}\r\n\r\n"
    ).encode() + body


def http_raw(url: str, request: bytes, timeout: float = 60.0):
    """Send ``request`` verbatim on a fresh socket and read to EOF.

    For requests no HTTP client library will emit (a malformed
    ``Content-Length``).  Returns (status, raw_body_bytes, headers) —
    or ``(None, b"", {})`` when the server closed without answering.
    """
    target = urlsplit(url)
    with socket.create_connection((target.hostname, target.port), timeout=timeout) as conn:
        conn.sendall(request)
        chunks = []
        while chunk := conn.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not head:
        return None, b"", {}
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), body, headers


def read_response(stream):
    """One response off a binary stream (``conn.makefile("rb")`` or a
    ``BytesIO``): ``(status, headers, body, raw)``; None at EOF.  An
    interim ``100 Continue`` comes back as a response of its own."""
    status_line = stream.readline()
    if not status_line:
        return None
    raw = [status_line]
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        raw.append(line)
        name, _, value = line.decode("latin-1").partition(":")
        headers[name] = value.strip()
    body = stream.read(int(headers.get("Content-Length", 0)))
    raw += [line, body]
    return int(status_line.split()[1]), headers, body, b"".join(raw)


def parse_responses(wire: bytes) -> list:
    """Every response in a byte stream of back-to-back responses."""
    stream = io.BytesIO(wire)
    out = []
    while (response := read_response(stream)) is not None:
        out.append(response)
    return out


def raw_exchange(
    url: str,
    pieces: list[bytes],
    timeout: float = 10.0,
    gap: float = 0.0,
    shut_write: bool = False,
) -> bytes:
    """Send ``pieces`` in order on one fresh socket (``gap`` seconds
    apart, each its own segment), optionally half-close, read to EOF.

    A server that answers and closes before everything has been sent
    resets the connection; what it said before that is still returned.
    """
    target = urlsplit(url)
    with socket.create_connection((target.hostname, target.port), timeout=timeout) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for index, piece in enumerate(pieces):
                if index and gap:
                    time.sleep(gap)
                conn.sendall(piece)
            if shut_write:
                conn.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        chunks = []
        try:
            while chunk := conn.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)
