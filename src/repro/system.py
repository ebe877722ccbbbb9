"""The query client and the simulated cluster it drives.

:class:`QueryClient` is the client half of the protocol — route a query
to its coordinator, send ``evaluate``, turn the reply into a
:class:`~repro.query.model.QueryResult` — written, like
:class:`~repro.storage.node.StorageNode`, against an engine, a network
and a membership view, so the one implementation serves the simulator
and the socket transport alike.

:class:`DistributedSystem` builds the pieces every simulated variant
needs — the simulator, the DHT partitioner, the ingested storage
catalog, the network, the client — and provides the submit/run API.
Subclasses (:class:`~repro.baselines.basic.BasicSystem`,
:class:`~repro.core.cluster.StashCluster`,
:class:`~repro.baselines.elastic.ElasticSystem`) create their node types
and register their protocol handlers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Generator

import numpy as np

from repro.config import DEFAULT_CONFIG, StashConfig
from repro.data.observation import ObservationBatch
from repro.dht.partitioner import Partitioner, PrefixPartitioner
from repro.errors import QueryError
from repro.faults.gossip import GossipAgent, suspect_count, view_divergence
from repro.faults.membership import RPC_FAILED, Membership
from repro.faults.retry import Participant
from repro.geo.geohash import encode
from repro.obs.critical_path import attribute_span
from repro.obs.recorder import FlightRecorder, QueryContext
from repro.obs.tracer import Span, Tracer
from repro.query.model import PROVENANCE_KEYS, AggregationQuery, QueryResult
from repro.sim.engine import Event, Process, Simulator
from repro.sim.network import Network
from repro.storage.backend import StorageCatalog

#: Network id of the (single, aggregate) client endpoint.
CLIENT_ID = "client"


def coordinator_for(partitioner: Partitioner, query: AggregationQuery) -> str:
    """The node a client request is sent to.

    Requests land on the owner of the query's center geohash, mirroring
    geospatial request routing: interest concentrated on one region
    queues up on one node (the hotspot precondition of section VII).
    """
    lat, lon = query.bbox.center
    return partitioner.node_for(encode(lat, lon, partitioner.partition_precision))


class QueryClient(Participant):
    """The client half of the protocol, on any engine/network pair.

    Owns the request's tracer root span and recorder context, its role
    in the retry loop (when ``faults.active``) and the client's registry
    (``metrics``: the recorder's, so its histograms, the fault
    ``counters`` and the ``query`` series of ``(completion time,
    latency)`` points sit side by side).  ``membership`` is the client's
    liveness view — the base partitioner verbatim until a node is
    declared dead, then the repaired ring.
    """

    def __init__(self, sim: Any, network: Any, membership: Membership, config: StashConfig):
        super().__init__(sim, network, CLIENT_ID, membership, config)
        self.metrics = self.recorder.metrics
        #: Nothing but the client's fault counters is counted here.
        self.counters = self.metrics.counters

    def coordinator_for(self, query: AggregationQuery) -> str:
        """:func:`coordinator_for` under the client's membership view."""
        return coordinator_for(self.membership.partitioner, query)

    def _send(
        self,
        coordinator: str,
        query: AggregationQuery,
        ctx: QueryContext | None,
        root: Span | None,
    ) -> Event:
        """The one place ``evaluate`` is built."""
        return self.network.request(
            CLIENT_ID,
            coordinator,
            "evaluate",
            {"query": query, "ctx": ctx},
            size=512,
            parent=root,
        )

    def request(self, query: AggregationQuery) -> Generator[Event, Any, QueryResult]:
        """One client request for the whole query."""
        started = self.sim.now
        root = self.tracer.begin(
            "query", "compute", node=CLIENT_ID, query_id=query.query_id
        )
        ctx = self.recorder.context(query.query_id)
        if self.config.faults.active:
            # Each attempt re-resolves the coordinator (a declared death
            # re-routes the retry) and stamps its number on ctx, so the
            # recorder keys the outcome to the attempt that produced it.
            reply, ctx, coordinator = yield from self._retrying(
                "evaluate", lambda target, ctx: self._send(target, query, ctx, root),
                lambda: self.coordinator_for(query), self.config.faults.evaluate_timeout,
                ctx, root, bump=True,
            )
        else:
            # coordinator_for is a pure routing lookup (no events, no
            # randomness), so hoisting it for the recorder is free.
            coordinator = self.coordinator_for(query)
            reply = yield self._send(coordinator, query, ctx, root)
        latency = self.sim.now - started
        self.metrics.record("query", latency)
        failed = reply is RPC_FAILED
        if failed:
            # Every coordinator attempt failed: an explicit empty answer
            # (completeness 0) beats a hung client or a crashed run.  The
            # reply still carries the full provenance vocabulary so
            # downstream consumers (conformance harness, metrics) never
            # see a partial counter set.
            reply = {
                "cells": {},
                "provenance": {key: 0 for key in PROVENANCE_KEYS},
                "completeness": 0.0,
            }
        if not isinstance(reply, dict) or "cells" not in reply:
            raise QueryError(f"malformed evaluate reply: {reply!r}")
        completeness = float(reply.get("completeness", 1.0))
        if completeness < 1.0 and not failed:
            self.incident("degraded_answer", ctx, {"completeness": completeness}, node=coordinator)
        self.recorder.record_query(
            kind=query.kind,
            coordinator=coordinator,
            latency=latency,
            completeness=completeness,
            ctx=ctx,
            failed=failed,
        )
        attribution = None
        if root is not None:
            self.tracer.end(root)
            attribution = attribute_span(root)
        return QueryResult(
            query=query,
            cells=reply["cells"],
            latency=latency,
            provenance=reply.get("provenance", {}),
            attribution=attribution,
            completeness=completeness,
        )

    def _timed_out(self, kind: str, target: str, ctx: Any, attempt: int, span: Any) -> None:
        """The coordinator is declared dead after *each* timed-out attempt."""
        self.incident("client_timeout", ctx, node=target, counter="client_timeouts", span=span)
        if self._declare_dead(target):
            self.incident(
                "coordinator_declared_dead", ctx, node=target,
                counter="coordinators_declared_dead",
            )

    def _retry(
        self, kind: str, target: str, ctx: Any, attempt: int, backoff: float, span: Any
    ) -> None:
        detail = {"backoff_s": backoff}
        self.incident("client_retry", ctx, detail, node=target, counter="client_retries")

    def _gave_up(self, kind: str, target: str, ctx: Any, parent: Span | None) -> None:
        self.incident("client_gave_up", ctx, node=target, counter="client_gave_up")


class DistributedSystem(ABC):
    """A simulated cluster serving aggregation queries."""

    def __init__(
        self,
        dataset: ObservationBatch,
        config: StashConfig = DEFAULT_CONFIG,
        sim: Simulator | None = None,
    ):
        self.config = config
        self.sim = sim if sim is not None else Simulator()
        self.node_ids = [f"node-{i}" for i in range(config.cluster.num_nodes)]
        self.partitioner = PrefixPartitioner(
            self.node_ids, config.cluster.partition_precision
        )
        participants = self.node_ids + [CLIENT_ID]
        #: Every participant's liveness view.  Under gossip each has its
        #: own (converging through ``gossip_agents``); otherwise they all
        #: hold the one shared instance, which *is* the zero-hop gossip.
        self.memberships: dict[str, Membership]
        if config.gossip.enabled:
            self.memberships = {
                pid: Membership(self.partitioner, pid, config.gossip, participants)
                for pid in participants
            }
        else:
            self.memberships = dict.fromkeys(
                participants, Membership(self.partitioner)
            )
        self.gossip_agents: dict[str, GossipAgent] = {}
        #: The client's view: what the client routes through and what
        #: the CLI / gauges report.
        self.membership = self.memberships[CLIENT_ID]
        self.fault_injector: Any = None
        self.catalog = StorageCatalog(
            self.partitioner, block_precision=config.cluster.block_precision
        )
        self.catalog.ingest(dataset)
        self.attribute_names = dataset.attribute_names
        obs = config.observability
        self.tracer = Tracer(self.sim, enabled=obs.trace)
        self.recorder = FlightRecorder(
            self.sim, enabled=obs.flight_recorder, slo_targets=obs.slo_targets
        )
        self.network = Network(
            self.sim, config.cost, tracer=self.tracer, recorder=self.recorder
        )
        self.client = QueryClient(self.sim, self.network, self.membership, config)
        # Routing and the client's registry live on the client; the
        # system exposes them under its own names.
        self.coordinator_for = self.client.coordinator_for
        self.metrics = self.client.metrics
        self.fault_counters = self.client.counters
        self.nodes: dict[str, Any] = {}
        self._nodes_started = False

    # -- subclass surface ---------------------------------------------------

    @abstractmethod
    def _start_nodes(self) -> None:
        """Create and start this system's node processes."""

    def _start_gossip(self) -> None:
        """Spawn one gossip agent per participant (deterministic order)."""
        cfg = self.config.gossip
        for index, (pid, view) in enumerate(sorted(self.memberships.items())):
            agent = GossipAgent(
                self.sim,
                self.network,
                view,
                cfg,
                self.config.cost,
                agent_index=index,
                seed=self.config.cluster.seed,
            )
            self.gossip_agents[pid] = agent
            agent.start()

    def start(self) -> None:
        """Bring the cluster up; idempotent."""
        if not self._nodes_started:
            self._start_nodes()
            self._nodes_started = True
            if self.config.gossip.enabled:
                self._start_gossip()
            self._register_default_gauges()
            if self.config.faults.schedule:
                from repro.faults.injector import FaultInjector
                from repro.faults.schedule import FaultSchedule

                self.fault_injector = FaultInjector(
                    self, FaultSchedule(tuple(self.config.faults.schedule))
                )
                self.fault_injector.install()
            interval = self.config.observability.sample_interval
            if interval > 0:
                self.metrics.start(interval)

    def _register_default_gauges(self) -> None:
        """Each node's own gauges under its id, then the cluster-wide ones."""
        for node_id, node in sorted(self.nodes.items()):
            for name, fn in node.metrics.gauges.items():
                self.metrics.gauge(f"{node_id}.{name}", fn)
        self.metrics.gauge(
            "network.bytes_sent", lambda: float(self.network.bytes_sent)
        )
        self.metrics.gauge(
            "network.messages_sent", lambda: float(self.network.messages_sent)
        )
        self.metrics.gauge("cluster.hit_rate", self.cache_hit_rate)
        self.metrics.gauge(
            "cluster.live_nodes",
            lambda: float(len(self.membership.live_nodes())),
        )
        self.metrics.gauge(
            "network.messages_dropped",
            lambda: float(self.network.messages_dropped),
        )
        self.metrics.gauge("cluster.rpc_retries", self._fault_counter_total("rpc_retries"))
        self.metrics.gauge(
            "cluster.failovers", lambda: float(self.membership.failovers)
        )
        self.metrics.gauge(
            "cluster.degraded_answers",
            self._fault_counter_total("degraded_answers"),
        )
        if self.gossip_agents:
            node_views = [self.memberships[n] for n in self.node_ids]
            self.metrics.gauge(
                "gossip.view_divergence",
                lambda v=node_views: float(view_divergence(v)),
            )
            self.metrics.gauge(
                "gossip.suspects",
                lambda v=node_views: float(suspect_count(v)),
            )
            for name in (
                "repair_cells_promoted", "repair_cells_shipped", "handoff_cells_streamed"
            ):
                self.metrics.gauge(f"gossip.{name}", self._fault_counter_total(name))
        if self.config.overload.enabled:
            self.metrics.gauge(
                "cluster.requests_shed",
                self._fault_counter_total("requests_shed"),
            )
            self.metrics.gauge("cluster.breakers_open", self._breakers_open)
        if self.recorder.enabled:
            self.metrics.gauge(
                "recorder.queries", lambda: float(self.recorder.queries)
            )
            self.metrics.gauge(
                "recorder.slo_violations",
                lambda: float(self.recorder.slo_violations),
            )
            self.metrics.gauge(
                "recorder.events", lambda: float(len(self.recorder.events))
            )

    def _breakers_open(self) -> float:
        now = self.sim.now
        return float(
            sum(node.overload.breaker_open(now) for node in self.nodes.values())
        )

    def node_counter_total(self, name: str) -> int:
        """One counter summed over the nodes."""
        return sum(node.counters.get(name) for node in self.nodes.values())

    def cache_hit_rate(self) -> float:
        """Cells served from memory over all cell resolutions so far: cache,
        roll-up and (elastic) request-cache serves against populated cells
        and request-cache misses.  The ``cluster.hit_rate`` gauge."""
        total = self.node_counter_total
        served = (
            total("cells_served_from_cache")
            + total("cells_served_from_rollup")
            + total("request_cache_hits")
        )
        resolved = (
            served + total("cells_populated") + total("request_cache_misses")
        )
        return served / resolved if resolved else 0.0

    def _fault_counter_total(self, name: str):
        """A gauge callable summing one counter across nodes + client."""
        return lambda: float(
            self.fault_counters.get(name) + self.node_counter_total(name)
        )

    # -- client API -------------------------------------------------------------

    def submit(self, query: AggregationQuery) -> Process:
        """Submit one query; returns a process event yielding QueryResult."""
        self.start()
        return self.sim.process(self.client.request(query))

    def run_query(self, query: AggregationQuery) -> QueryResult:
        """Submit one query and run the simulation to its completion."""
        return self.sim.run(until=self.submit(query))

    def run_serial(self, queries: list[AggregationQuery]) -> list[QueryResult]:
        """Run queries one at a time (latency experiments)."""
        return [self.run_query(q) for q in queries]

    def run_concurrent(self, queries: list[AggregationQuery]) -> list[QueryResult]:
        """Fire all queries at once and run to completion (throughput)."""
        self.start()
        done = self.sim.all_of([self.submit(q) for q in queries])
        return self.sim.run(until=done)

    def run_open_loop(
        self,
        queries: list[AggregationQuery],
        rate: float,
        seed: int = 0,
    ) -> list[QueryResult]:
        """Open-loop load: Poisson arrivals at ``rate`` requests/second.

        Unlike :meth:`run_concurrent` (everything at t=0) this models a
        stream of independent users: exponential inter-arrival times, no
        back-pressure from slow responses — the regime where queueing
        delay actually builds up.
        """
        if rate <= 0:
            raise QueryError("arrival rate must be positive")
        self.start()
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / rate, len(queries))

        submissions: list = []

        def arrival_process():
            for query, gap in zip(queries, gaps):
                yield self.sim.timeout(float(gap))
                submissions.append(self.submit(query))

        self.sim.run(until=self.sim.process(arrival_process()))
        done = self.sim.all_of(submissions)
        return self.sim.run(until=done)

    def drain(self) -> None:
        """Run any background work (population, janitors) to quiescence."""
        self.sim.run()
