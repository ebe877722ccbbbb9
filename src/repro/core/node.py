"""The STASH node: cache-aware query evaluation over the storage node.

Each node plays three roles (paper sections IV-VII):

* **coordinator** for queries routed to it: plans the footprint over the
  DHT, gathers cached/rolled-up cells from owners, scans disk for the
  rest, and asynchronously populates the cache;
* **cell owner** for the portion of the STASH graph the DHT assigns it:
  serves ``fetch_cells``, applies freshness touches and dispersion,
  accepts ``populate`` inserts and enforces eviction;
* **replication participant**: detects its own hotspots, hands off hot
  cliques to antipode helpers, keeps a guest graph of cliques replicated
  *to* it, and serves rerouted ``evaluate_guest`` requests from it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Iterable

import numpy as np

from repro.config import StashConfig
from repro.core.eviction import EvictionPolicy
from repro.core.freshness import FreshnessTracker, query_ring
from repro.core.graph import StashGraph
from repro.core.keys import CellKey
from repro.core.planner import plan_query
from repro.data.block import BlockId
from repro.data.statistics import SummaryVector
from repro.faults.gossip import WIRE_SIZE_PER_ENTRY
from repro.faults.membership import RPC_SHED, rpc_ok
from repro.geo.resolution import ResolutionSpace
from repro.obs.recorder import QueryContext
from repro.obs.tracer import Span
from repro.query.model import AggregationQuery
from repro.replication.antipode import antipode_candidates
from repro.replication.clique import top_cliques
from repro.replication.routing import RoutingTable
from repro.sim.engine import Event
from repro.sim.network import Message
from repro.storage.node import Reply, StorageNode

#: Cap on cells one survivor promotes or ships per death/rejoin.
MAX_REPAIR_CELLS = 5_000
#: Capacity of a helper node's guest graph (cells).
GUEST_CAPACITY = 100_000
#: Routing-table entries older than this are purged (simulated seconds).
ROUTING_TTL = 180.0
#: NOT_OWNER re-route rounds per fetch leg before the coordinator forces
#: the final recipient to serve (block placement is static, so a forced
#: serve is always correct, merely non-local).
MAX_REDIRECTS = 2


class GuestCliqueRegistry:
    """Bookkeeping for cliques replicated *onto* this node.

    Maintains an inverted index member key -> {clique roots} so refreshing
    the cliques a query footprint touches is O(|footprint|) instead of
    O(cliques x members), and so removal can tell which members are still
    referenced by other (overlapping) cliques.
    """

    def __init__(self) -> None:
        #: root key string -> (member keys, last_used sim time)
        self.entries: dict[str, dict[str, Any]] = {}
        #: member key -> root key strings of every clique containing it
        self._member_roots: dict[CellKey, set[str]] = {}

    def _unindex(self, root: str) -> None:
        for member in self.entries[root]["members"]:
            roots = self._member_roots.get(member)
            if roots is not None:
                roots.discard(root)
                if not roots:
                    del self._member_roots[member]

    def add(self, root: CellKey, members: list[CellKey], now: float) -> list[CellKey]:
        """Register a clique; returns members orphaned by an overwrite.

        Re-replicating a root replaces its member list; old members not in
        the new list (and in no other clique) are returned so the caller
        can drop them from the guest graph instead of leaking them.
        """
        root_key = str(root)
        if root_key in self.entries:
            self._unindex(root_key)
            old_members = self.entries[root_key]["members"]
        else:
            old_members = []
        self.entries[root_key] = {"members": list(members), "last_used": now}
        for member in members:
            self._member_roots.setdefault(member, set()).add(root_key)
        new_members = set(members)
        return [
            member
            for member in old_members
            if member not in new_members and member not in self._member_roots
        ]

    def touch_covering(self, keys: set[CellKey], now: float) -> None:
        """Refresh last_used for every clique intersecting ``keys``."""
        touched: set[str] = set()
        for key in keys:
            touched.update(self._member_roots.get(key, ()))
        for root in touched:
            entry = self.entries.get(root)
            if entry is not None:
                entry["last_used"] = now

    def expired(self, now: float, ttl: float) -> list[str]:
        return [
            root
            for root, entry in self.entries.items()
            if now - entry["last_used"] > ttl
        ]

    def remove(self, root: str) -> list[CellKey]:
        """Drop a clique; returns the members no other clique references.

        Members shared with a still-registered overlapping clique are kept
        out of the result so callers do not evict cells that clique still
        serves.
        """
        self._unindex(root)
        members = self.entries.pop(root)["members"]
        return [m for m in members if m not in self._member_roots]

    def clear(self) -> None:
        self.entries.clear()
        self._member_roots.clear()


class StashNode(StorageNode):
    """A storage node extended with the STASH in-memory layer."""

    def __init__(
        self,
        sim,
        network,
        catalog,
        node_id: str,
        config: StashConfig,
        space: ResolutionSpace,
        attribute_names: list[str],
        node_index: int = 0,
        membership=None,
    ):
        super().__init__(sim, network, catalog, node_id, config, membership=membership)
        self.space = space
        self.attribute_names = list(attribute_names)
        self.graph = StashGraph(space, name=f"local:{node_id}")
        self.guest = StashGraph(space, name=f"guest:{node_id}")
        max_cells = config.eviction.max_cells
        self.metrics.gauge("cache_cells", lambda: float(len(self.graph)))
        self.metrics.gauge(
            "freshness_pressure", lambda: len(self.graph) / max_cells
        )
        self.metrics.gauge("guest_cells", lambda: float(len(self.guest)))
        self.guest_cliques = GuestCliqueRegistry()
        self.tracker = FreshnessTracker(config.freshness)
        self.eviction = EvictionPolicy(config.eviction)
        self.routing = RoutingTable(
            ttl=ROUTING_TTL,
            reroute_probability=config.replication.reroute_probability,
        )
        self.rng = np.random.default_rng(config.cluster.seed * 10_007 + node_index)
        self._handoff_in_progress = False
        self._last_handoff = -float("inf")
        self.handoffs_completed = 0
        #: Set iff epidemic membership is on (then ``self.membership`` is
        #: this node's own view, not one shared with the cluster).
        self._gossip = config.gossip if config.gossip.enabled else None

        self.register_handler("evaluate", self._handle_evaluate)
        self.register_handler("evaluate_guest", self._handle_evaluate_guest)
        self.register_handler("fetch_cells", self._handle_fetch_cells)
        self.register_handler("populate", self._handle_populate)
        self.register_handler("distress", self._handle_distress)
        self.register_handler("replicate", self._handle_replicate)
        self.register_handler(
            "repair", partial(self._absorb_cells, counter="repair_cells_received")
        )
        self.register_handler(
            "handoff", partial(self._absorb_cells, counter="handoff_cells_received")
        )

    # ------------------------------------------------------------------
    # fault-aware routing and lifecycle
    # ------------------------------------------------------------------

    def _group_by_owner(self, keys: Iterable[CellKey]) -> dict[str, list[CellKey]]:
        """Group cell keys by owning node, resolving each geohash once.

        Owners are read from the current (possibly repaired) ring.
        Ownership depends only on the geohash, and a footprint is a
        (spatial cover x time keys) product, so resolving per *geohash*
        instead of per cell cuts DHT lookups by the temporal width.
        """
        owner_memo: dict[str, str] = {}
        grouped: dict[str, list[CellKey]] = {}
        for key in keys:
            geohash = key.geohash
            owner = owner_memo.get(geohash)
            if owner is None:
                owner = owner_memo[geohash] = self.membership.node_for(geohash)
            grouped.setdefault(owner, []).append(key)
        return grouped

    def _owns(self) -> Callable[[str], bool]:
        """Whether this node owns a geohash under its current view, one
        lookup per partition prefix."""
        view, owned = self.membership.partitioner, {}
        cut = view.partition_precision

        def owns(geohash: str) -> bool:
            prefix = geohash[:cut]
            if prefix not in owned:
                owned[prefix] = view.node_for(geohash) == self.node_id
            return owned[prefix]

        return owns

    def _peer_live(self, node_id: str) -> bool:
        return self.membership.is_live(node_id)

    def crash(self) -> None:
        """Lose queues and every in-memory cache (fault injection)."""
        super().crash()
        self.graph.clear()
        self.guest.clear()
        self.guest_cliques.clear()
        self.routing.clear()
        self._handoff_in_progress = False

    # ------------------------------------------------------------------
    # shipping cells between nodes (handoff, repair, rejoin)
    # ------------------------------------------------------------------

    def _adopt_cells(
        self, cells: dict[CellKey, SummaryVector], counter: str
    ) -> Generator[Event, Any, None]:
        """Insert shipped cells into the local graph: charge, touch, count, evict."""
        inserted = self.graph.insert_many(cells)
        yield self.sim.timeout(len(inserted) * self.cost.cell_insert_cost)
        self.tracker.touch_cells(self.graph, inserted, self.sim.now)
        self.counters.increment(counter, len(inserted))
        self._enforce_capacity()

    def _enforce_capacity(self) -> None:
        """Evict down to the configured capacity after an insert batch."""
        evicted = self.eviction.enforce(self.graph, self.tracker, self.sim.now)
        if evicted:
            self.counters.increment("cells_evicted", len(evicted))

    # ------------------------------------------------------------------
    # hotspot detection (event-driven, paper VII-B-1)
    # ------------------------------------------------------------------

    def on_message_arrival(self, message: Message) -> None:
        if not self.config.enable_replication:
            return
        if self._handoff_in_progress:
            return
        repl = self.config.replication
        if self.pending_requests <= repl.hotspot_queue_threshold:
            return
        if self.sim.now - self._last_handoff < repl.cooldown:
            return
        self._handoff_in_progress = True
        self.counters.increment("hotspots_detected")
        self.sim.process(self._clique_handoff())

    def _clique_handoff(self) -> Generator[Event, Any, None]:
        """The decentralized handoff protocol (paper VII-B)."""
        repl = self.config.replication
        try:
            now = self.sim.now
            cliques = top_cliques(
                self.graph,
                self.tracker,
                now,
                depth=repl.clique_depth,
                max_cells=repl.max_replicated_cells,
                top_k=repl.top_k_cliques,
            )
            for clique in cliques:
                if not clique.members:
                    continue
                candidates = antipode_candidates(
                    clique.root.geohash,
                    self.membership.base,
                    exclude=self.node_id,
                    rng=self.rng,
                )
                helper = None
                for candidate in candidates:
                    if not self._peer_live(candidate):
                        continue
                    ack = yield self.request_resilient(
                        candidate,
                        "distress",
                        {"ncells": clique.size},
                        size=64,
                    )
                    # ack is True / False / RPC_FAILED / RPC_SHED; the
                    # sentinels raise on truth-testing, so compare by
                    # identity (only an explicit acceptance counts).
                    if ack is True:
                        helper = candidate
                        break
                if helper is None:
                    self.counters.increment("handoffs_no_helper")
                    continue
                payload_cells = {}
                for key in clique.members:
                    summary = self.graph.summary_of(key)
                    if summary is None:  # evicted mid-handoff
                        continue
                    payload_cells[key] = summary
                if not payload_cells:
                    continue
                ok = yield self.request_resilient(
                    helper,
                    "replicate",
                    {"root": clique.root, "cells": payload_cells},
                    size=self._wire_size(payload_cells),
                )
                if ok is True:
                    self.routing.add(
                        clique.root,
                        helper,
                        frozenset(payload_cells),
                        self.sim.now,
                    )
                    self.handoffs_completed += 1
                    self.counters.increment("handoffs_completed")
        finally:
            self._last_handoff = self.sim.now
            self._handoff_in_progress = False

    # ------------------------------------------------------------------
    # helper-side replication handlers
    # ------------------------------------------------------------------

    def _purge_guest(self) -> None:
        """Drop guest cliques unused beyond the TTL (paper VII-D)."""
        ttl = self.config.replication.guest_ttl
        for root in self.guest_cliques.expired(self.sim.now, ttl):
            for key in self.guest_cliques.remove(root):
                if self.guest.contains(key):
                    self.guest.remove(key)
            self.counters.increment("guest_cliques_purged")

    def _handle_distress(self, message: Message) -> Generator[Event, Any, Reply]:
        """Accept iff not hotspotted and the guest graph has room."""
        self._purge_guest()
        ncells = message.payload["ncells"]
        accept = (
            self.pending_requests <= self.config.replication.hotspot_queue_threshold
            and len(self.guest) + ncells <= GUEST_CAPACITY
        )
        yield self.sim.timeout(self.cost.cell_lookup_cost)
        return bool(accept), 16

    def _handle_replicate(self, message: Message) -> Generator[Event, Any, Reply]:
        root: CellKey = message.payload["root"]
        cells: dict[CellKey, SummaryVector] = message.payload["cells"]
        if len(self.guest) + len(cells) > GUEST_CAPACITY:
            return False, 16
        inserted = self.guest.insert_many(cells)
        yield self.sim.timeout(len(cells) * self.cost.cell_insert_cost)
        orphaned = self.guest_cliques.add(root, list(cells), self.sim.now)
        # A re-replicated root replaces its member list; members dropped
        # from it (and referenced by no other clique) would otherwise
        # leak in the guest graph until capacity starves all handoffs.
        for key in orphaned:
            if self.guest.contains(key):
                self.guest.remove(key)
        self.counters.increment("guest_cells_accepted", len(inserted))
        return True, 16

    def _handle_evaluate_guest(self, message: Message) -> Generator[Event, Any, Reply]:
        """Serve a rerouted query from the guest graph (paper VII-C)."""
        yield self.sim.timeout(self.cost.request_overhead)
        query: AggregationQuery = message.payload["query"]
        footprint = query.footprint()
        plan = plan_query(self.guest, footprint, self.attribute_names, attempt_rollup=False)
        yield self.sim.timeout(plan.lookups * self.cost.cell_lookup_cost)
        if plan.missing:
            # Replica incomplete (e.g. purged between routing and arrival):
            # fall back to a normal evaluation from here.
            ctx = message.payload.get("ctx")
            self.incident("guest_fallback", ctx, counter="guest_fallbacks")
            response = yield from self._evaluate_core(
                query, footprint, parent=message.span, ctx=ctx
            )
            response["provenance"]["rerouted"] = 1
            return self._cells_reply(response, response["cells"])
        self.guest_cliques.touch_covering(set(footprint), self.sim.now)
        # Match _evaluate_core's response contract exactly: the same
        # answer shaping (a rerouted query must not return wider attribute
        # sets than the same query served directly), and the reply
        # carries an explicit completeness.
        cells = self._answer_cells(query, plan.cached)
        self.counters.increment("guest_queries_served")
        response = {
            "cells": cells,
            "provenance": {
                "rerouted": 1,
                "cells_from_cache": len(plan.cached),
                "cells_from_rollup": 0,
                "cells_from_disk": 0,
                "disk_blocks_read": 0,
            },
            "completeness": 1.0,
        }
        return self._cells_reply(response, cells)

    # ------------------------------------------------------------------
    # owner-side cache handlers
    # ------------------------------------------------------------------

    def _fetch_cells_impl(
        self, payload: dict[str, Any], parent: Span | None = None
    ) -> Generator[Event, Any, dict[str, Any]]:
        keys: list[CellKey] = payload["cells"]
        plan = plan_query(
            self.graph,
            keys,
            self.attribute_names,
            attempt_rollup=self.config.enable_rollup,
        )
        cpu = (
            plan.lookups * self.cost.cell_lookup_cost
            + plan.merges * self.cost.cell_merge_cost
        )
        if self.tracer.enabled and cpu > 0:
            self.tracer.record(
                "fetch:plan",
                "compute",
                self.sim.now,
                self.sim.now + cpu,
                parent=parent,
                node=self.node_id,
                attrs={"lookups": plan.lookups, "merges": plan.merges},
            )
        yield self.sim.timeout(cpu)
        now = self.sim.now
        # The keys and their ring sit at the query's level: a level holding
        # no cell (a flushed graph) has nothing to touch or disperse to.
        query: AggregationQuery = payload["query"]
        if plan.cached or self.graph.level_size(self.graph.space.level_of(query.resolution)):
            ring = query_ring(query, self._owns())
            self.tracker.touch_cells(self.graph, keys, now, ring=ring)
        # Cache successful roll-ups: they are complete cells now.
        self.graph.insert_many(
            {key: rollup.summary for key, rollup in plan.rollup.items()}
        )
        if plan.rollup:
            # Rolled-up cells were absent during the touch above, so they
            # would start at zero freshness — immediate eviction bait
            # despite being created by this very access.  Credit them now
            # that they are resident.
            self.tracker.touch_cells(self.graph, list(plan.rollup), now)
        self.counters.increment("cells_served_from_cache", len(plan.cached))
        self.counters.increment("cells_served_from_rollup", len(plan.rollup))
        return {
            "found": plan.found,
            "missing": plan.missing,
            "stats": {"cached": len(plan.cached), "rollup": len(plan.rollup)},
        }

    def _handle_fetch_cells(self, message: Message) -> Generator[Event, Any, Reply]:
        yield self.sim.timeout(self.cost.request_overhead)
        if self._gossip is not None and not message.payload.get("force"):
            # Misroute tolerance: under diverging views a coordinator may
            # address keys we don't own in *our* view.  Instead of serving
            # a cold miss, answer NOT_OWNER with our view so the caller
            # can merge it and re-route (paper's zero-hop map, made
            # eventually consistent).
            owns = self._owns()
            if not all(owns(key.geohash) for key in message.payload["cells"]):
                self.counters.increment("fetch_not_owner")
                digest = self.membership.digest()
                return {"not_owner": digest}, len(digest) * WIRE_SIZE_PER_ENTRY
        response = yield from self._fetch_cells_impl(
            message.payload, parent=message.span
        )
        return self._cells_reply(response, response["found"])

    def _handle_populate(self, message: Message) -> Generator[Event, Any, None]:
        """Background cache population (paper VIII-C-2: separate thread)."""
        yield self.sim.timeout(self.cost.request_overhead)
        cells: dict[CellKey, SummaryVector] = message.payload["cells"]
        if self._gossip is not None:
            # Misdirected population (diverging views): caching cells we
            # don't own would strand them where no fetch will ever look.
            owned = self._group_by_owner(cells).get(self.node_id, [])
            kept = {key: cells[key] for key in owned}
            if len(kept) != len(cells):
                self.counters.increment(
                    "populate_misdirected", len(cells) - len(kept)
                )
            cells = kept
        inserted = len(self.graph.insert_many(cells))
        cpu = inserted * self.cost.cell_insert_cost
        if self.tracer.enabled and cpu > 0:
            self.tracer.record(
                "populate:insert",
                "compute",
                self.sim.now,
                self.sim.now + cpu,
                parent=message.span,
                node=self.node_id,
                attrs={"cells": inserted},
            )
        yield self.sim.timeout(cpu)
        self.tracker.touch_cells(self.graph, list(cells), self.sim.now)
        self.counters.increment("cells_populated", inserted)
        self._enforce_capacity()

    # ------------------------------------------------------------------
    # anti-entropy repair and rejoin handoff (gossip mode)
    # ------------------------------------------------------------------

    def on_peer_confirmed_dead(self, peer: str) -> None:
        """Membership callback: a peer's death was just confirmed here.

        Survivors holding guest replicas of the dead node's range promote
        or re-disperse them so the working set stays warm instead of
        cold-starting behind the repaired ring.
        """
        if self._gossip is None or not self._gossip.repair:
            return
        if self._workers_stale:  # we are down ourselves
            return
        self.sim.process(self._repair_after_death(peer))

    def on_peer_rejoined(self, peer: str) -> None:
        """Membership callback: a dead peer is back (new incarnation)."""
        if self._gossip is None or not self._gossip.repair:
            return
        if self._workers_stale:
            return
        self.sim.process(self._handoff_back(peer))

    def _repair_after_death(self, peer: str) -> Generator[Event, Any, None]:
        """Promote / re-disperse guest cells covering a dead node's range.

        Base ownership (``membership.base``) identifies the dead node's
        cells; our repaired view says where they live now.  Cells this
        node now owns are promoted into the local graph; the rest are
        shipped to their new owners as ``repair`` batches.  Guest copies
        stay behind (the TTL purge collects them) so a lost repair never
        loses data that was replicated.
        """
        promote: dict[CellKey, SummaryVector] = {}
        ship: dict[str, dict[CellKey, SummaryVector]] = {}
        count = 0
        for key, summary in self.guest.items():
            if count >= MAX_REPAIR_CELLS:
                break
            if self.membership.base.node_for(key.geohash) != peer:
                continue
            new_owner = self.membership.node_for(key.geohash)
            if new_owner == peer:
                continue
            if new_owner == self.node_id:
                promote[key] = summary
            else:
                ship.setdefault(new_owner, {})[key] = summary
            count += 1
        if promote:
            yield from self._adopt_cells(promote, "repair_cells_promoted")
        for owner, batch in sorted(ship.items()):
            if not self._peer_live(owner):
                continue
            ack = yield self.request_resilient(
                owner,
                "repair",
                {"cells": batch},
                size=self._wire_size(batch),
            )
            if ack is True:
                self.counters.increment("repair_cells_shipped", len(batch))

    def _handoff_back(self, peer: str) -> Generator[Event, Any, None]:
        """Stream a rejoined node's partition back to it.

        Any cell in our *local* graph whose base owner is the rejoined
        peer was adopted during its outage (repair promotion or interim
        population); ship it back as ``key -> summary`` (residency is
        completeness, so the peer needs nothing else), then drop our copy
        so ownership is single-homed again.
        """
        batch: dict[CellKey, SummaryVector] = {}
        for key, summary in self.graph.items():
            if len(batch) >= MAX_REPAIR_CELLS:
                break
            if self.membership.base.node_for(key.geohash) != peer:
                continue
            batch[key] = summary
        if not batch:
            return
        ack = yield self.request_resilient(
            peer,
            "handoff",
            {"cells": batch},
            size=self._wire_size(batch),
        )
        if ack is True:
            for key in batch:
                if self.graph.contains(key):
                    self.graph.remove(key)
            self.counters.increment("handoff_cells_streamed", len(batch))

    def _absorb_cells(
        self, message: Message, counter: str
    ) -> Generator[Event, Any, Reply]:
        """``repair`` / ``handoff``: adopt the cells a peer shipped us."""
        yield self.sim.timeout(self.cost.request_overhead)
        yield from self._adopt_cells(message.payload["cells"], counter)
        return True, 16

    # ------------------------------------------------------------------
    # coordinator role
    # ------------------------------------------------------------------

    def _handle_evaluate(self, message: Message) -> Generator[Event, Any, Reply]:
        query: AggregationQuery = message.payload["query"]
        ctx: QueryContext | None = message.payload.get("ctx")
        footprint = query.footprint()
        if self.config.enable_replication:
            # Routing-table check before full request processing: a
            # rerouted query costs the hotspotted node one lookup, not a
            # whole evaluation (paper VII-C).
            helper = self.routing.choose_reroute(footprint, self.sim.now, self.rng)
            # Liveness check AFTER choose_reroute: the rng draw happens
            # either way, so fault-free runs consume an identical stream.
            if helper is not None and not self._peer_live(helper):
                helper = None
            if helper is not None:
                yield self.sim.timeout(self.cost.cell_lookup_cost)
                detail = {"helper": helper}
                self.incident("rerouted_to_replica", ctx, detail, counter="queries_rerouted")
                self.network.send(
                    self.node_id,
                    helper,
                    "evaluate_guest",
                    {"query": query, "ctx": ctx},
                    size=512,
                    reply_to=message.reply_to,
                    parent=message.span,
                )
                return None  # forwarded: the helper answers the client
        yield self.sim.timeout(self.cost.request_overhead)
        response = yield from self._evaluate_core(
            query, footprint, parent=message.span, ctx=ctx
        )
        return self._cells_reply(response, response["cells"])

    def _evaluate_core(
        self,
        query: AggregationQuery,
        footprint: list[CellKey],
        parent: Span | None = None,
        ctx: QueryContext | None = None,
    ) -> Generator[Event, Any, dict[str, Any]]:
        """Footprint -> owners -> cache plan -> scans -> populate.

        Under fault injection a fetch leg may resolve to ``RPC_FAILED``;
        its keys fall through to the disk path, and cells whose backing
        blocks are unreachable are *excluded* from the answer, which then
        carries ``completeness < 1.0`` (degraded, never hung).
        """
        payloads = self._fetch_payloads(query, footprint, ctx)
        if self._gossip is not None:
            replies = yield self.sim.all_of(
                [
                    self.sim.process(self._fetch_leg(owner, payload, parent, depth=0))
                    for owner, payload in payloads.items()
                ]
            )
        else:
            replies = yield from self._scatter(
                "fetch_cells",
                [
                    (owner, payload, len(payload["cells"]) * 32)
                    for owner, payload in payloads.items()
                ],
                lambda payload: self._fetch_cells_impl(payload, parent=parent),
                parent=parent,
                ctx=ctx,
            )
        fetched = self._fold_fetch_replies(payloads, replies)
        found: dict[CellKey, SummaryVector] = fetched["found"]
        missing: list[CellKey] = fetched["missing"]
        provenance = {
            "cells_from_cache": fetched["stats"]["cached"],
            "cells_from_rollup": fetched["stats"]["rollup"],
            "cells_from_disk": 0,
            "disk_blocks_read": 0,
            "rerouted": 0,
        }

        unresolved: list[CellKey] = []
        if missing and self.overload is not None and self.overload.breaker_open(
            self.sim.now
        ):
            # Circuit open under sustained overload: skip the expensive
            # disk-resolution path and answer from what the cache gave
            # us.  The holes are reported unresolved (completeness < 1),
            # never fabricated, and degraded answers are never cached.
            detail = {"missing": len(missing)}
            self.incident("breaker_degraded", ctx, detail, counter="breaker_degraded")
            unresolved = missing
        elif missing:
            new_cells, unresolved = yield from self._resolve_missing(
                query, missing, provenance, parent=parent, ctx=ctx
            )
            found.update(new_cells)

        cells = self._answer_cells(query, found)
        completeness = 1.0
        if unresolved:
            provenance["cells_unresolved"] = len(unresolved)
            completeness = 1.0 - len(unresolved) / max(1, len(footprint))
            self.incident(
                "cells_unresolved", ctx,
                {"count": len(unresolved), "completeness": completeness},
                counter="degraded_answers",
            )
        return {
            "cells": cells,
            "provenance": provenance,
            "completeness": completeness,
        }

    def _fetch_payloads(
        self,
        query: AggregationQuery,
        cells: list[CellKey],
        ctx: QueryContext | None,
        depth: int = 0,
    ) -> dict[str, dict[str, Any]]:
        """Per-owner ``fetch_cells`` payloads for ``cells``, in owner order.

        Each owner gets the query, its share of the keys and the context
        of its leg (at re-route ``depth``); it derives its share of the
        dispersion ring from the query itself.
        """
        cells_by_owner = self._group_by_owner(cells)
        return {
            owner: {
                "query": query,
                "cells": cells_by_owner[owner],
                "ctx": None
                if ctx is None
                else ctx.with_(leg=owner, redirect_depth=depth),
            }
            for owner in sorted(cells_by_owner)
        }

    def _fold_fetch_replies(
        self, payloads: dict[str, dict[str, Any]], replies: list[Any]
    ) -> dict[str, Any]:
        """Fold per-owner fetch replies, in leg order, into one fetch response."""
        folded: dict[str, Any] = {
            "found": {},
            "missing": [],
            "stats": {"cached": 0, "rollup": 0},
        }
        for (owner, payload), reply in zip(payloads.items(), replies):
            if not rpc_ok(reply):
                # Owner unreachable (or shedding): treat its whole key
                # share as cache misses and try the disk path instead.
                self.incident(
                    "fetch_leg_shed" if reply is RPC_SHED else "fetch_leg_failed",
                    payload["ctx"],
                    {"owner": owner, "cells": len(payload["cells"])},
                    counter="fetch_legs_failed",
                )
                folded["missing"].extend(payload["cells"])
                continue
            folded["found"].update(reply["found"])
            folded["missing"].extend(reply["missing"])
            folded["stats"]["cached"] += reply["stats"]["cached"]
            folded["stats"]["rollup"] += reply["stats"]["rollup"]
        return folded

    @staticmethod
    def _answer_cells(
        query: AggregationQuery, cells: dict[CellKey, SummaryVector]
    ) -> dict[CellKey, SummaryVector]:
        """The cells an answer carries: known-empty dropped, attributes projected."""
        cells = {key: vec for key, vec in cells.items() if not vec.is_empty}
        if query.attributes is not None:
            cells = {
                key: vec.project(query.attributes) for key, vec in cells.items()
            }
        return cells

    def _fetch_leg(
        self,
        owner: str,
        payload: dict[str, Any],
        parent: Span | None,
        depth: int,
    ) -> Generator[Event, Any, Any]:
        """One fetch_cells leg under gossip: local, remote, or re-routed.

        A ``NOT_OWNER`` reply carries the responder's membership view;
        we merge it into our own (fresher evidence wins per peer), split
        the leg's keys by owner under the updated view, and recurse.
        Depth is bounded by ``MAX_REDIRECTS``; the final round is
        sent with ``force`` — block placement is static, so a forced
        serve is always *correct*, merely non-local.  Returns a normal
        fetch response dict, or an RPC sentinel for a whole-leg failure.
        """
        ctx: QueryContext | None = payload.get("ctx")
        if owner == self.node_id:
            response = yield self.sim.process(
                self._fetch_cells_impl(payload, parent=parent)
            )
            return response
        if depth >= MAX_REDIRECTS:
            payload = dict(payload, force=True)
            self.incident("force_serve", ctx, {"owner": owner, "depth": depth})
        reply = yield self.request_resilient(
            owner,
            "fetch_cells",
            payload,
            size=len(payload["cells"]) * 32,
            parent=parent,
            ctx=ctx,
        )
        if not rpc_ok(reply) or "not_owner" not in reply:
            return reply
        self.incident("redirect", ctx, {"from": owner, "depth": depth}, counter="fetch_redirects")
        self.membership.merge(reply["not_owner"], self.sim.now)
        payloads = self._fetch_payloads(payload["query"], payload["cells"], ctx, depth + 1)
        subs = yield self.sim.all_of(
            [
                self.sim.process(self._fetch_leg(sub, sub_payload, parent, depth + 1))
                for sub, sub_payload in payloads.items()
            ]
        )
        return self._fold_fetch_replies(payloads, subs)

    def _resolve_missing(
        self,
        query: AggregationQuery,
        missing: list[CellKey],
        provenance: dict[str, int],
        parent: Span | None = None,
        ctx: QueryContext | None = None,
    ) -> Generator[
        Event, Any, tuple[dict[CellKey, SummaryVector], list[CellKey]]
    ]:
        """Scan the backing blocks of missing cells; populate async.

        Scans always aggregate *all* attributes regardless of the query's
        attribute selection: cached cells must be reusable by any future
        query (selection is applied to the response, not the cache).

        Returns ``(new_cells, unresolved)``: cells whose backing blocks
        sit only on unreachable nodes cannot be computed — they are
        reported unresolved (degrading the answer) rather than fabricated
        as empty, and are never populated into the cache.
        """
        if query.attributes is not None:
            query = AggregationQuery(
                bbox=query.bbox,
                time_range=query.time_range,
                resolution=query.resolution,
                attributes=None,
            )
        needed: set[BlockId] = set()
        for key in missing:
            needed.update(self.catalog.blocks_for_cell(key))
        block_ids = sorted(needed)
        scan_legs = sorted(self.catalog.blocks_by_node(block_ids).items())
        partials = yield from self._scatter(
            "scan",
            [
                (node_id, {"query": query, "block_ids": ids, "ctx": ctx}, 1_024)
                for node_id, ids in scan_legs
            ],
            lambda leg: self.scan_locally(query, leg["block_ids"], parent=parent),
            parent=parent,
            ctx=ctx,
        )

        answered: list[dict[CellKey, SummaryVector]] = []
        unread_blocks: set[BlockId] = set()
        for (node_id, ids), cells in zip(scan_legs, partials):
            if not rpc_ok(cells):
                # Blocks on a dead node are unreadable until it restarts;
                # an overloaded node sheds the scan outright.  Either
                # way, every cell depending on them is degraded.
                self.incident(
                    "scan_leg_shed" if cells is RPC_SHED else "scan_leg_failed",
                    None if ctx is None else ctx.with_(leg=node_id),
                    {"owner": node_id, "blocks": len(ids)},
                    counter="scan_legs_failed",
                )
                unread_blocks.update(ids)
                continue
            answered.append(cells)
        scanned = yield from self._merge_partials(answered, parent)

        new_cells: dict[CellKey, SummaryVector] = {}
        unresolved: list[CellKey] = []
        for key in missing:
            value = scanned.get(key)
            if value is not None:
                new_cells[key] = value
                continue
            if unread_blocks and unread_blocks & set(
                self.catalog.blocks_for_cell(key)
            ):
                # Not scanned because its data was unreachable — an
                # honest hole in the answer, not a known-empty cell.
                unresolved.append(key)
            else:
                new_cells[key] = SummaryVector.empty(self.attribute_names)
        provenance["cells_from_disk"] = len(new_cells)
        provenance["disk_blocks_read"] = len(block_ids) - len(unread_blocks)

        # Fire-and-forget population on the owner nodes (separate thread
        # in the paper; here separate service-pool messages).  Unresolved
        # cells are never populated: caching an incomplete summary would
        # poison every later query with a silently wrong "complete" cell.
        for owner, keys in sorted(self._group_by_owner(new_cells).items()):
            self.network.send(
                self.node_id,
                owner,
                "populate",
                {"cells": {key: new_cells[key] for key in keys}},
                size=self._wire_size(keys),
                parent=parent,
            )
        return new_cells, unresolved
