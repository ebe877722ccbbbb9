"""Launcher for an N-process socket cluster (the ``repro serve`` fleet).

Uses the ``spawn`` start method: every child is a fresh interpreter that
re-imports :mod:`repro.serve.server` and regenerates its dataset from
the seed — no forked event-loop state, nothing shipped but the (small,
picklable) :class:`~repro.serve.server.NodeSpec`.

The launcher owns the wall-clock budget: startup, the whole replay, and
shutdown must finish inside ``config.serve.wall_clock_budget`` or the
fleet is terminated — the CI guard against a hung socket cluster.
"""

from __future__ import annotations

import multiprocessing as mp
import time

from repro.config import StashConfig
from repro.data.generator import DatasetSpec
from repro.errors import NetworkError
from repro.serve.server import NodeSpec, serve_node_entry

#: Wall-clock seconds a node server may take to bind and report ready (or
#: to answer the client's first ping) before the run is declared stuck.
STARTUP_TIMEOUT = 30.0


class ServeCluster:
    """Supervise one node-server process per cluster node."""

    def __init__(self, dataset: DatasetSpec, config: StashConfig):
        self.config = config
        self.dataset = dataset
        self.node_ids = tuple(
            f"node-{i}" for i in range(config.cluster.num_nodes)
        )
        self._ctx = mp.get_context("spawn")
        self._procs: list = []
        self._conns: list = []
        self._started_at = time.monotonic()
        self.addresses: dict[str, tuple[str, int]] = {}

    # -- wall-clock budget -------------------------------------------------

    def remaining_budget(self) -> float:
        """Wall seconds left before the launcher kills the fleet."""
        elapsed = time.monotonic() - self._started_at
        return self.config.serve.wall_clock_budget - elapsed

    def _check_budget(self, what: str) -> None:
        if self.remaining_budget() <= 0:
            self.terminate()
            raise NetworkError(
                f"serve wall-clock budget "
                f"({self.config.serve.wall_clock_budget}s) exhausted "
                f"during {what}"
            )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> dict[str, tuple[str, int]]:
        """Spawn every node server; returns the bound address map."""
        self._started_at = time.monotonic()
        for index in range(len(self.node_ids)):
            parent_conn, child_conn = self._ctx.Pipe()
            spec = NodeSpec(
                node_index=index,
                node_ids=self.node_ids,
                dataset=self.dataset,
                config=self.config,
            )
            proc = self._ctx.Process(
                target=serve_node_entry,
                args=(spec, child_conn),
                name=f"repro-serve-{self.node_ids[index]}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        for conn in self._conns:
            message = self._recv(conn, STARTUP_TIMEOUT, "startup")
            if message[0] != "ready":
                self.terminate()
                raise NetworkError(f"node server failed to start: {message!r}")
            _, node_id, host, port = message
            self.addresses[node_id] = (host, port)
        return dict(self.addresses)

    def broadcast_peers(self, addresses: dict[str, tuple[str, int]]) -> None:
        """Install the full address map (nodes + client) on every server."""
        for conn in self._conns:
            conn.send(("peers", addresses))
        for conn in self._conns:
            message = self._recv(conn, STARTUP_TIMEOUT, "peer setup")
            if message[0] != "serving":
                self.terminate()
                raise NetworkError(f"node server failed peer setup: {message!r}")

    def _recv(self, conn, timeout: float, what: str):
        self._check_budget(what)
        if not conn.poll(min(timeout, max(0.0, self.remaining_budget()))):
            self.terminate()
            raise NetworkError(f"node server unresponsive during {what}")
        try:
            return conn.recv()
        except EOFError:
            self.terminate()
            raise NetworkError(f"node server died during {what}") from None

    def stop(self) -> None:
        """Graceful stop; escalates to terminate on stragglers."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        deadline = time.monotonic() + 10.0
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        self.terminate()

    def terminate(self) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
