"""Suite-wide fixtures.

The socket directories (``tests/transport``, ``tests/serve``) share one
hygiene check instead of per-test teardown code: a live asyncio loop
cannot raise a failure nobody awaited — ``AsyncioEngine`` can only log
it and append it to ``unhandled`` — so a handler that dies mid-test
would otherwise pass silently.
"""

import asyncio
import threading
import time

import pytest
from hypothesis import settings

#: ``--hypothesis-profile=ci``: the same examples on every run, so a CI
#: failure of a property or state-machine test replays as it was seen.
settings.register_profile("ci", derandomize=True)

_SOCKET_DIRS = {"transport", "serve"}
#: Handler threads of an HTTP server exit just after their response.
_THREAD_GRACE_S = 5.0


@pytest.fixture(autouse=True)
def socket_hygiene(request, monkeypatch):
    """After a socket test: no unhandled failure, pending task or thread."""
    if request.node.path.parent.name not in _SOCKET_DIRS:
        yield
        return
    from repro.transport.asyncio_net import AsyncioEngine

    engines = []
    original_init = AsyncioEngine.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(AsyncioEngine, "__init__", recording_init)
    threads_before = threading.active_count()
    yield
    for engine in engines:
        assert engine.unhandled == [], (
            f"failures nobody awaited on a live loop: {engine.unhandled!r}"
        )
        pending = [t for t in asyncio.all_tasks(engine._loop) if not t.done()]
        assert pending == [], f"tasks left pending on the test's loop: {pending!r}"
    deadline = time.monotonic() + _THREAD_GRACE_S
    while threading.active_count() > threads_before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= threads_before, (
        f"threads leaked: {[t.name for t in threading.enumerate()]}"
    )
