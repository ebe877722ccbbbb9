"""Tiny urllib client shared by the HTTP facade test suites."""

import json
import socket
import urllib.error
import urllib.request
from urllib.parse import urlsplit


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
