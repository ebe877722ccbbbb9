"""What the HTTP edge does per request and per connection, as counts.

Like tests/transport/test_socket_work_counts.py: no timings, only how
often something happens — writes per response, stdlib parsers entered,
threads born.  The first three classes fail on the
``ThreadingHTTPServer`` edge this one replaced (two ``sendall`` calls
and an ``email`` parse per request, a thread per connection); the rest
pin what had to survive the change: a thread per *open* connection,
nothing at rest, and the profiler hook the benchmark's trace pass
relies on.
"""

import email.utils
import gc
import http.client
import json
import queue
import socket
import sys
import threading
import time

import pytest

from repro.serve import http as edge
from repro.serve.http import HANDLER_LINGER_S

from tests.serve._http import (
    QUERY,
    http_get,
    http_post,
    make_server,
    raw_exchange,
    raw_post,
    read_response,
    wait_for,
)

CLOSING_GET = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
HANDLER_PREFIX = "stash-http-handler"


@pytest.fixture()
def server():
    with make_server() as running:
        yield running


def handler_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith(HANDLER_PREFIX)]


def closing_get(server) -> bytes:
    """One ``Connection: close`` GET on a raw socket, read to EOF."""
    return raw_exchange(server.url, [CLOSING_GET])


def off_main(calls: list) -> list:
    return [t for t in calls if t is not threading.main_thread()]


class TestOneWritePerResponse:
    @pytest.fixture()
    def sendalls(self, monkeypatch):
        """The thread behind every ``socket.sendall`` while patched."""
        calls = []
        sendall = socket.socket.sendall

        def counted(self, data, *flags):
            calls.append(threading.current_thread())
            return sendall(self, data, *flags)

        monkeypatch.setattr(socket.socket, "sendall", counted)
        return calls

    def test_a_warm_aggregate_is_one_sendall(self, server, sendalls):
        http_post(server.url, "/aggregate", QUERY)
        sendalls.clear()
        status, _, headers = http_post(server.url, "/aggregate", QUERY)
        assert (status, headers["X-Cache"]) == (200, "hit")
        assert len(off_main(sendalls)) == 1  # the client's own writes are on main

    def test_so_is_a_refusal(self, server, sendalls):
        request = raw_post("/aggregate", b"", content_length="abc")
        assert raw_exchange(server.url, [request]).startswith(b"HTTP/1.1 400 ")
        assert len(off_main(sendalls)) == 1


class TestNoStdlibParserOnTheRequestPath:
    def test_handlers_never_enter_parse_headers_or_formatdate(self, server, monkeypatch):
        entered = []

        def recording(name, original):
            def wrapper(*args, **kwargs):
                entered.append((name, threading.current_thread()))
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            http.client, "parse_headers", recording("parse_headers", http.client.parse_headers)
        )
        monkeypatch.setattr(
            email.utils, "formatdate", recording("formatdate", email.utils.formatdate)
        )
        assert http_post(server.url, "/aggregate", QUERY)[0] == 200
        assert http_get(server.url, "/stats")[0] == 200
        assert http_post(server.url, "/aggregate", {})[0] == 400
        monkeypatch.undo()
        # urllib parsed three responses on this thread: the wrappers work.
        assert [name for name, _ in entered].count("parse_headers") == 3
        assert off_main([thread for _, thread in entered]) == []


class TestWarmThreadForASerialClient:
    def test_fifty_serial_connections_share_a_thread(self, server, monkeypatch):
        served_by = set()
        handle = server.handle

        def recording(*args):
            served_by.add(threading.current_thread())  # the object: idents are reused
            return handle(*args)

        monkeypatch.setattr(server, "handle", recording)
        # A client whose gap between connections stays under the linger;
        # a scheduler stall can exceed it, so the best of three counts.
        best = None
        gc.disable()
        try:
            for _ in range(3):
                served_by.clear()
                started = server._httpd.edge_stats()["threads_started"]
                for _ in range(50):
                    assert closing_get(server).startswith(b"HTTP/1.1 200 ")
                born = server._httpd.edge_stats()["threads_started"] - started
                assert born == len(served_by)
                best = born if best is None else min(best, born)
                if best <= 2:
                    break
        finally:
            gc.enable()
        assert best <= 2, f"50 serial connections took {best} handler threads"

    def test_a_pause_longer_than_the_linger_gets_a_fresh_thread(self, server):
        closing_get(server)
        assert wait_for(lambda: not handler_threads())
        before = server._httpd.edge_stats()["threads_started"]
        closing_get(server)
        assert server._httpd.edge_stats()["threads_started"] == before + 1


class TestOneThreadPerOpenConnection:
    def test_eight_idle_connections_hold_eight_live_handlers(self, server):
        connections = [
            socket.create_connection(server.address, timeout=10.0) for _ in range(8)
        ]
        try:
            assert wait_for(lambda: len(handler_threads()) == 8)
            assert server._httpd.edge_stats()["threads_live"] == 8
            for conn in connections:
                conn.sendall(CLOSING_GET)
            for conn in connections:
                with conn.makefile("rb") as stream:
                    assert read_response(stream)[0] == 200
        finally:
            for conn in connections:
                conn.close()
        assert wait_for(lambda: not handler_threads())

    def test_handlers_that_linger_together_all_leave(self, server):
        """Several handlers waiting on the hand-off at once, nothing
        arriving: every one times out and exits."""
        for _ in range(10):
            connections = [
                socket.create_connection(server.address, timeout=10.0) for _ in range(4)
            ]
            for conn in connections:
                conn.sendall(CLOSING_GET)
            for conn in connections:
                with conn, conn.makefile("rb") as stream:
                    assert read_response(stream)[0] == 200
            assert wait_for(lambda: not handler_threads(), within=1.0)

    def test_a_lingering_handler_is_reused_by_the_next_of_a_burst(self, server):
        """Idle accounting under a burst: the warm thread takes one
        connection, every other connection still gets its own."""
        closing_get(server)
        before = server._httpd.edge_stats()["threads_started"]
        connections = [
            socket.create_connection(server.address, timeout=10.0) for _ in range(6)
        ]
        try:
            assert wait_for(lambda: server._httpd.edge_stats()["threads_live"] == 6)
            born = server._httpd.edge_stats()["threads_started"] - before
            assert born in (5, 6)  # 5 when the linger was still running
        finally:
            for conn in connections:
                conn.close()
        assert wait_for(lambda: not handler_threads())


class TestNothingAtRest:
    def test_an_idle_server_owns_exactly_its_acceptor_thread(self):
        before = threading.active_count()
        with make_server() as running:
            assert threading.active_count() == before + 1
            http_get(running.url, "/healthz")
            assert wait_for(lambda: threading.active_count() == before + 1, within=0.1 + 20 * HANDLER_LINGER_S)
            assert handler_threads() == []
            assert running._httpd._idle == 0 and running._httpd._handlers == set()
        assert threading.active_count() == before

    def test_stop_returns_with_no_handler_alive_1ms_after_a_response(self):
        running = make_server().start()
        assert closing_get(running).startswith(b"HTTP/1.1 200 ")
        time.sleep(0.001)
        running.stop()
        assert handler_threads() == []

    def test_stop_wakes_a_handler_parked_on_an_idle_keep_alive(self):
        running = make_server().start()
        with socket.create_connection(running.address, timeout=10.0) as conn:
            conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            with conn.makefile("rb") as stream:
                assert read_response(stream)[0] == 200
                assert len(handler_threads()) == 1  # parked for up to 30 s
                started = time.monotonic()
                running.stop()
                assert time.monotonic() - started < 5.0
                assert handler_threads() == []
                assert stream.read() == b""  # and the client sees a clean close

    def test_stop_lets_a_request_in_flight_finish(self, monkeypatch):
        running = make_server().start()
        entered, release = threading.Event(), threading.Event()
        handle = running.handle

        def slow(*args):
            entered.set()
            assert release.wait(10.0)
            return handle(*args)

        monkeypatch.setattr(running, "handle", slow)
        answer = []
        client = threading.Thread(target=lambda: answer.append(closing_get(running)))
        client.start()
        assert entered.wait(10.0)
        stopper = threading.Thread(target=running.stop)
        stopper.start()
        time.sleep(0.1)
        assert stopper.is_alive()  # stop() is waiting for the handler
        release.set()
        stopper.join(10.0)
        client.join(10.0)
        assert not stopper.is_alive() and not client.is_alive()
        assert answer and answer[0].startswith(b"HTTP/1.1 200 ")
        assert handler_threads() == []


class TestProfilerHookReachesTheNextHandler:
    def test_a_setprofile_hook_installed_after_start_fires(self, server):
        """The benchmark's trace pass profiles "every thread born after"
        it arms ``threading.setprofile``; a handler parked from before
        would be invisible to it."""
        closing_get(server)  # a handler from before the hook ...
        assert wait_for(lambda: not handler_threads())  # ... is gone by now
        profiled = []

        def hook(*_event):
            profiled.append(threading.current_thread().name)
            sys.setprofile(None)

        threading.setprofile(hook)
        try:
            assert closing_get(server).startswith(b"HTTP/1.1 200 ")
        finally:
            threading.setprofile(None)
        assert [name for name in profiled if name.startswith(HANDLER_PREFIX)]


class TestEdgeStats:
    def test_stats_reports_the_edge_as_plain_integers(self, server):
        before = http_get(server.url, "/stats")[1]["edge"]
        assert set(before) == {"connections", "requests", "threads_started", "threads_live"}
        assert all(type(value) is int for value in before.values())
        assert before["threads_live"] == 1  # the one answering /stats
        with socket.create_connection(server.address, timeout=10.0) as conn:
            with conn.makefile("rb") as stream:
                for _ in range(3):
                    conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                    assert read_response(stream)[0] == 200
        after = http_get(server.url, "/stats")[1]["edge"]
        assert after["connections"] - before["connections"] == 2
        assert after["requests"] - before["requests"] == 4


class TestIdleAccountingUnderContention:
    def test_the_handoff_is_not_a_simple_queue(self, server):
        """``queue.SimpleQueue.get(timeout=...)`` can block past its
        timeout for good when a second consumer is waiting (CPython 3.11
        re-arms the wait with a negative remainder once another ``get``
        has released the lock): 24 of 60 trials with four consumers at
        0.5 ms, 0 of 60 with ``queue.Queue``.  A handler stranded that
        way never leaves and ``stop()`` never returns; the suite met it
        about once in five runs, never in a test written to find it."""
        assert type(server._httpd._handoff) is queue.Queue

    def test_a_claimed_handler_whose_connection_went_elsewhere_still_leaves(self):
        """The acceptor claims a handler just as its linger runs out, and
        another handler that went idle meanwhile takes the connection:
        the first must keep waiting *with* the linger, or it is parked
        until some later connection happens to wake it."""
        server = edge._Server(("127.0.0.1", 0), edge._Handler, None)
        server._handlers.add(threading.current_thread())
        server._idle = 1

        def claimed_then_timed_out():
            server._idle -= 1  # the acceptor, about to enqueue
            raise queue.Empty

        def taken_by_another_idle_handler():
            server._idle += 1  # that handler's slot, now the only idle one
            raise queue.Empty

        script = [claimed_then_timed_out, taken_by_another_idle_handler]

        class Scripted:
            def get(self, timeout=None):
                assert timeout == HANDLER_LINGER_S
                return script.pop(0)()

        server._handoff = Scripted()
        try:
            assert server._await_handoff() is None
        finally:
            server.server_close()
        assert script == [] and server._idle == 0 and server._handlers == set()

    def test_racing_clients_lose_no_connection_and_leave_no_idle_slot(self, server):
        """More client threads than cores and a short switch interval:
        a lost update to the idle count would strand a queued
        connection (a client hangs) or leave a phantom idle slot."""
        clients, rounds = 8, 25
        failures = []

        def one_client() -> None:
            try:
                for _ in range(rounds):
                    if not closing_get(server).startswith(b"HTTP/1.1 200 "):
                        failures.append("bad answer")
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        before = server._httpd.edge_stats()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=one_client) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not [t for t in threads if t.is_alive()]
        assert failures == []
        assert wait_for(lambda: not handler_threads())
        after = server._httpd.edge_stats()
        assert after["connections"] - before["connections"] == clients * rounds
        assert after["requests"] - before["requests"] == clients * rounds
        assert after["threads_started"] - before["threads_started"] <= clients * rounds
        assert server._httpd._idle == 0 and server._httpd._handlers == set()
        assert server._httpd._handoff.empty()
        assert json.loads(closing_get(server).partition(b"\r\n\r\n")[2])["ok"] is True
