"""The query flight recorder: per-query context, outcomes, and SLOs.

Two pieces make a query's story reconstructible after the fact:

* :class:`QueryContext` — an immutable trace context (query id, client
  attempt, leg, redirect depth) threaded through every hop a query
  takes: coordinator dispatch, fetch/scan RPCs, retry and failover,
  NOT_OWNER re-routes, and shed/degraded paths.  Every recorded event is
  keyed to exactly one query and one attempt.
* :class:`FlightRecorder` — the passive sink those events land in, plus
  mergeable per-class / per-node / cluster-wide latency histograms
  (:class:`~repro.obs.histogram.LatencyHistogram`) and SLO accounting.

Design constraints (shared with :class:`~repro.obs.tracer.Tracer`):

* **Near-zero overhead when disabled** — :meth:`FlightRecorder.context`
  returns ``None`` and every ``record_*`` call no-ops on a ``None``
  context; payloads never even carry a context when recording is off.
* **Passive** — the recorder never creates simulation events and never
  consumes randomness, so enabling it cannot change simulated results.
* **Exactly one terminal outcome per attempt** — a query attempt lands
  in exactly one of ``ok`` / ``degraded`` / ``failed``, deduplicated on
  ``(query_id, attempt)``.  Mid-flight incidents (sheds, redirects,
  timeouts, breaker opens) are *events*, not outcomes, so a shed fetch
  leg that is later force-served cannot double-count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.obs.histogram import LatencyHistogram
from repro.obs.registry import MetricsRegistry

#: The terminal states one query attempt can land in.
OUTCOMES = ("ok", "degraded", "failed")

#: Histogram key for the cluster-wide distribution.
CLUSTER_KEY = "cluster"


@dataclass(frozen=True)
class QueryContext:
    """Trace context for one query, carried in RPC payloads.

    Frozen so a context can be shared by reference across concurrent
    legs; derive per-leg variants with :meth:`with_`.
    """

    query_id: int
    #: Client-side attempt number (0-based; bumped by evaluate retries).
    attempt: int = 0
    #: The leg (target node) this context travelled on, "" at the root.
    leg: str = ""
    #: NOT_OWNER re-route depth of this leg (0 = first routing).
    redirect_depth: int = 0

    def with_(self, **kwargs: Any) -> "QueryContext":
        """A copy with some fields replaced (leg/attempt/depth)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class OutcomeEvent:
    """One recorded incident on a query's path, keyed to its context."""

    name: str
    at: float
    node: str | None
    query_id: int
    attempt: int
    leg: str
    redirect_depth: int
    detail: tuple | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "at": self.at,
            "node": self.node,
            "query_id": self.query_id,
            "attempt": self.attempt,
            "leg": self.leg,
            "redirect_depth": self.redirect_depth,
        }
        if self.detail:
            out.update(dict(self.detail))
        return out


class FlightRecorder:
    """Passive per-query observability sink over one simulator's clock."""

    def __init__(
        self,
        sim,
        enabled: bool = False,
        slo_targets: tuple = (),
        max_events: int = 1_000_000,
    ):
        self.sim = sim
        self.enabled = enabled
        #: ``(query_class, percentile, target_seconds)`` triples.  The
        #: per-query ``slo_violations`` counter increments whenever a
        #: query of a targeted class exceeds ``target_seconds``; the
        #: percentile is evaluated against the class histogram at report
        #: time.  Class ``"*"`` targets every query.
        self.slo_targets: tuple = tuple(slo_targets)
        self.max_events = max_events
        self.truncated = False
        #: The registry of the participant this recorder belongs to (the
        #: client's): its histograms are the recorder's.
        self.metrics = MetricsRegistry(sim)
        self.histograms: dict[str, LatencyHistogram] = self.metrics.histograms
        self.events: list[OutcomeEvent] = []
        self.outcome_counts: dict[str, int] = {}
        self.slo_violations = 0
        self.queries = 0
        self._terminal_seen: set[tuple[int, int]] = set()

    # -- context -----------------------------------------------------------

    def context(self, query_id: int) -> QueryContext | None:
        """A fresh root context, or ``None`` when recording is off.

        Callers propagate the ``None`` — downstream ``record_*`` calls
        no-op on it, so the disabled path allocates nothing.
        """
        if not self.enabled:
            return None
        return QueryContext(query_id=query_id)

    # -- events ------------------------------------------------------------

    def record_event(
        self,
        name: str,
        ctx: QueryContext | None,
        node: str | None = None,
        detail: dict[str, Any] | None = None,
    ) -> None:
        """Record a mid-flight incident (shed, redirect, timeout, ...)."""
        if not self.enabled or ctx is None:
            return
        if len(self.events) >= self.max_events:
            self.truncated = True
            return
        self.events.append(
            OutcomeEvent(
                name=name,
                at=self.sim.now,
                node=node,
                query_id=ctx.query_id,
                attempt=ctx.attempt,
                leg=ctx.leg,
                redirect_depth=ctx.redirect_depth,
                detail=None if detail is None else tuple(sorted(detail.items())),
            )
        )

    def events_for(self, query_id: int) -> list[OutcomeEvent]:
        return [event for event in self.events if event.query_id == query_id]

    # -- terminal outcomes -------------------------------------------------

    def record_query(
        self,
        kind: str,
        coordinator: str,
        latency: float,
        completeness: float,
        ctx: QueryContext | None,
        failed: bool = False,
    ) -> None:
        """Record one finished query attempt: histograms + outcome + SLO.

        Deduplicated on ``(query_id, attempt)``: the first terminal
        record for an attempt wins, so exactly one outcome counter
        increments per attempt no matter how many degraded/shed legs the
        attempt saw along the way.
        """
        if not self.enabled or ctx is None:
            return
        key = (ctx.query_id, ctx.attempt)
        if key in self._terminal_seen:
            return
        self._terminal_seen.add(key)
        self.queries += 1
        for hkey in (CLUSTER_KEY, f"class.{kind}", f"node.{coordinator}"):
            self.metrics.observe(hkey, latency)
        if failed:
            outcome = "failed"
        elif completeness < 1.0:
            outcome = "degraded"
        else:
            outcome = "ok"
        self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + 1
        for target_class, _percentile, target_seconds in self.slo_targets:
            if target_class in ("*", kind) and latency > target_seconds:
                self.slo_violations += 1
                self.record_event(
                    "slo_violation",
                    ctx,
                    node=coordinator,
                    detail={"class": kind, "latency_s": latency,
                            "target_s": target_seconds},
                )
                break

    # -- histograms --------------------------------------------------------

    def class_histograms(self) -> dict[str, LatencyHistogram]:
        return {
            key.split(".", 1)[1]: histogram
            for key, histogram in self.histograms.items()
            if key.startswith("class.")
        }

    def node_histograms(self) -> dict[str, LatencyHistogram]:
        return {
            key.split(".", 1)[1]: histogram
            for key, histogram in self.histograms.items()
            if key.startswith("node.")
        }

    # -- reporting ---------------------------------------------------------

    def slo_report(self) -> list[dict[str, Any]]:
        """Evaluate every SLO target against its class histogram."""
        out = []
        for target_class, q, target_seconds in self.slo_targets:
            if target_class == "*":
                histogram = self.histograms.get(CLUSTER_KEY)
            else:
                histogram = self.histograms.get(f"class.{target_class}")
            entry: dict[str, Any] = {
                "class": target_class,
                "percentile": q,
                "target_s": target_seconds,
            }
            if histogram is None or histogram.count == 0:
                entry["status"] = "no-data"
            else:
                lo, hi = histogram.percentile_bounds(q)
                entry["estimate_s"] = histogram.percentile_estimate(q)
                entry["bound_lo_s"] = lo
                entry["bound_hi_s"] = hi
                # Bucket-bound verdict: definitely met when even the
                # upper bound fits, definitely missed when even the
                # lower bound exceeds the target, else indeterminate at
                # this bucket resolution.
                if hi <= target_seconds:
                    entry["status"] = "met"
                elif lo > target_seconds:
                    entry["status"] = "missed"
                else:
                    entry["status"] = "borderline"
            out.append(entry)
        return out

    def report(self) -> dict[str, Any]:
        """JSON-ready summary: histograms, outcomes, SLO evaluation."""
        return {
            "queries": self.queries,
            "outcomes": {name: self.outcome_counts.get(name, 0) for name in OUTCOMES},
            "slo_violations": self.slo_violations,
            "slo": self.slo_report(),
            "events": len(self.events),
            "truncated": self.truncated,
            "histograms": {
                key: histogram.to_dict()
                for key, histogram in sorted(self.histograms.items())
            },
        }
