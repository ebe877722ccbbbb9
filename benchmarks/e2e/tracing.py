"""Per-layer evidence for ``--trace 1``: harness spans and a profile fold.

Two instruments, both driven from the benchmark's own files:

* :class:`SpanRecorder` wraps the public seams a workload calls through
  (``run_query``, ``drain``, ``handle``, ``evaluate``, ...) and records
  ``{id, name, start_ns, end_ns, parent, op_id}`` for each call.  The
  workloads are closed loops with one client, so calls nest in wall
  time even across threads and one shared stack links a server-side
  span to the client span that caused it.
* :func:`fold_profile` folds a ``cProfile`` run into the layer budget:
  ``tottime`` per module group, with the time of C functions and of
  library code (numpy wrappers, ``json``, ...) handed to whoever called
  them, so the rows sum to the profiled wall.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import threading
import time
from typing import Any, Callable

LAYERS = (
    "geo",
    "query",
    "core.planner",
    "core.plm",
    "core.graph",
    "core.eviction",
    "core.node",
    "core.cluster",
    "data",
    "storage",
    "dht",
    "sim",
    "obs",
    "transport.codec",
    "transport.framing",
    "transport.asyncio_net",
    "serve.http",
    "stdlib.http",
    "other",
)

#: ``repro/<path prefix>`` -> layer; first match wins, so files are
#: listed before the directory that holds them.
_REPRO_LAYERS = (
    ("core/planner.py", "core.planner"),
    ("core/aggregation.py", "core.planner"),
    ("core/plm.py", "core.plm"),
    ("core/eviction.py", "core.eviction"),
    ("core/node.py", "core.node"),
    ("core/cluster.py", "core.cluster"),
    ("core/", "core.graph"),  # graph, cell, keys, freshness
    ("system.py", "core.cluster"),
    ("replication/", "core.node"),
    ("faults/", "core.node"),
    ("geo/", "geo"),
    ("query/", "query"),
    ("data/", "data"),
    ("storage/", "storage"),
    ("dht/", "dht"),
    ("transport/codec.py", "transport.codec"),
    ("transport/framing.py", "transport.framing"),
    ("transport/asyncio_net.py", "transport.asyncio_net"),
    ("transport/", "sim"),  # base + sim_local: the simulated fabric
    ("sim/", "sim"),
    ("obs/", "obs"),
    ("serve/http.py", "serve.http"),
)

#: stdlib modules that are a layer of their own on some workload.
_STDLIB_LAYERS = (
    ("/asyncio/", "transport.asyncio_net"),
    ("/selectors.py", "transport.asyncio_net"),
    ("/http/", "stdlib.http"),
    ("/socketserver.py", "stdlib.http"),
    ("/socket.py", "stdlib.http"),
    ("/email/", "stdlib.http"),
)

_HERE = os.path.dirname(os.path.abspath(__file__))


def classify(func: tuple[str, int, str]) -> str | None:
    """Layer of one profiled function, or None for "charge my caller"."""
    filename = func[0].replace(os.sep, "/")
    marker = "/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        relative = filename[at + len(marker):]
        for prefix, layer in _REPRO_LAYERS:
            if relative.startswith(prefix):
                return layer
        return "other"
    if filename.startswith(_HERE.replace(os.sep, "/")):
        return "other"  # the harness itself
    for needle, layer in _STDLIB_LAYERS:
        if needle in filename:
            return layer
    return None


def fold_profile(stats: dict) -> tuple[dict[str, float], int]:
    """Fold ``pstats`` rows into ``(seconds per layer, total calls)``.

    A function :func:`classify` does not place hands each caller the
    share of its self time that pstats attributes to that caller; a
    caller that is itself unplaced passes it further up in proportion
    to its own callers' cumulative time.
    """
    memo: dict[tuple, dict[str, float]] = {}

    def shares(func: tuple, stack: frozenset) -> dict[str, float]:
        layer = classify(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(entry[3] for entry in callers.values())
        if func in stack or not callers or total <= 0.0:
            return {"other": 1.0}
        out: dict[str, float] = {}
        for caller, entry in callers.items():
            for layer, weight in shares(caller, stack | {func}).items():
                out[layer] = out.get(layer, 0.0) + weight * entry[3] / total
        memo[func] = out
        return out

    totals = {layer: 0.0 for layer in LAYERS}
    calls = 0
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        calls += ncalls
        layer = classify(func)
        if layer is not None:
            totals[layer] += tottime
        elif not callers:
            totals["other"] += tottime
        else:
            for caller, entry in callers.items():
                for target, weight in shares(caller, frozenset((func,))).items():
                    totals[target] += entry[2] * weight
    return totals, calls


class ThreadedProfiler:
    """``cProfile`` in the calling thread and in every thread born after.

    ``cProfile.Profile.enable`` hooks only the thread that calls it, so
    threads started while profiling (the HTTP server's per-connection
    handlers) get their own ``Profile`` through ``threading.setprofile``.

    With ``thread_cpu`` every profile runs on ``time.thread_time``: a
    thread blocked in ``recv`` or waiting for the CPU another thread
    holds accrues nothing, so the rows of a multi-threaded workload add
    up to CPU time instead of counting each wait once per waiter.  The
    clock is a system call, which inflates call-heavy layers a little
    more than the default wall clock does; single-threaded workloads
    keep the default.
    """

    def __init__(self, thread_cpu: bool = False) -> None:
        self._timer = (time.thread_time,) if thread_cpu else ()
        self.main = cProfile.Profile(*self._timer)
        self.others: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _bootstrap(self, *_event: Any) -> None:
        profile = cProfile.Profile(*self._timer)
        with self._lock:
            self.others.append(profile)
        profile.enable()

    def __enter__(self) -> "ThreadedProfiler":
        """Arm new threads; the caller enables ``main`` around each op."""
        threading.setprofile(self._bootstrap)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.main.disable()
        threading.setprofile(None)

    def folded(self) -> tuple[dict[str, float], int]:
        """Layer seconds and total calls over all profiled threads."""
        merged = pstats.Stats(self.main)
        for profile in self.others:
            merged.add(profile)
        return fold_profile(merged.stats)


class SpanRecorder:
    """In-memory spans around wrapped calls; written out at exit."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self._op_id = -1

    def _open(self, name: str, root: bool) -> dict[str, Any]:
        with self._lock:
            if root:
                self._op_id += 1
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "op_id": self._op_id,
                "start_ns": 0,
                "end_ns": 0,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
        span["start_ns"] = time.perf_counter_ns()
        return span

    def _close(self, span: dict[str, Any]) -> None:
        span["end_ns"] = time.perf_counter_ns()
        with self._lock:
            self._stack.remove(span["id"])

    def traced(self, fn: Callable, name: str, root: bool = False) -> Callable:
        """``fn`` with a span around every call; ``root`` starts a new op."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name, root)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def wrap(self, obj: Any, attribute: str, name: str) -> None:
        """Shadow ``obj.attribute`` with a traced version of itself."""
        setattr(obj, attribute, self.traced(getattr(obj, attribute), name))

    def self_times_ns(self) -> dict[str, int]:
        """Self time per span name: duration minus what children cover."""
        child_time = [0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end_ns"] - span["start_ns"]
        out: dict[str, int] = {}
        for span in self.spans:
            own = span["end_ns"] - span["start_ns"] - child_time[span["id"]]
            out[span["name"]] = out.get(span["name"], 0) + own
        return out
