"""Query planning over one node's graph: cached / rolled-up / missing.

The owner-side half of the paper's evaluation strategy (IV-D, V-B):
given the footprint cells this node owns, split them into

* **cached** — resident in the graph (one O(1) lookup each),
* **rollup** — recomputable by merging resident finer cells,
* **missing** — require a disk scan of their backing blocks.

The plan carries cost drivers (lookups, merges) that the simulated node
converts into CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.aggregation import RollupResult, rollup_possible, try_rollup
from repro.core.graph import StashGraph
from repro.core.keys import CellKey
from repro.data.statistics import SummaryVector


@dataclass
class QueryPlan:
    """Result of planning one node's share of a query footprint."""

    #: Resident cells: key -> summary.
    cached: dict[CellKey, SummaryVector] = field(default_factory=dict)
    #: Rolled-up cells: key -> rollup outcome (summary + provenance).
    rollup: dict[CellKey, RollupResult] = field(default_factory=dict)
    #: Cells that need disk.
    missing: list[CellKey] = field(default_factory=list)
    #: Cost drivers.
    lookups: int = 0
    merges: int = 0

    @property
    def found(self) -> dict[CellKey, SummaryVector]:
        """All summaries resolvable without disk (cached + rolled up)."""
        out = dict(self.cached)
        for key, result in self.rollup.items():
            out[key] = result.summary
        return out

    @property
    def hit_fraction(self) -> float:
        total = len(self.cached) + len(self.rollup) + len(self.missing)
        if total == 0:
            return 1.0
        return (len(self.cached) + len(self.rollup)) / total

    def partition_ok(self, footprint: list[CellKey]) -> bool:
        """Whether cached/rollup/missing exactly partition ``footprint``.

        The planner's core invariant, exposed so the conformance harness
        and unit tests can assert it on arbitrary plans instead of
        re-deriving the three-way set algebra at every call site.
        """
        cached, rollup = set(self.cached), set(self.rollup)
        missing = set(self.missing)
        if cached & rollup or cached & missing or rollup & missing:
            return False
        if len(self.missing) != len(missing):
            return False  # duplicate missing entries
        return cached | rollup | missing == set(footprint)


def plan_query(
    graph: StashGraph,
    footprint: list[CellKey],
    attributes: list[str],
    attempt_rollup: bool = True,
) -> QueryPlan:
    """Plan evaluation of ``footprint`` against one graph.

    Invariant (property-tested): ``cached ∪ rollup ∪ missing`` equals the
    footprint exactly, with the three sets pairwise disjoint.
    """
    plan = QueryPlan()
    shape = None
    for key in footprint:
        key_shape = (len(key.geohash), len(key.time_key.components))
        if key_shape != shape:
            # A footprint is runs of one resolution: resolve the key's
            # level, and whether any roll-up child is resident, per run.
            shape = key_shape
            resident = graph.summaries_at(graph.level_of(key))
            rollup = attempt_rollup and rollup_possible(graph, key)
        summary = resident.get(key)
        if summary is not None:
            plan.cached[key] = summary
            continue
        if rollup:
            result = try_rollup(graph, key, attributes)
            if result is not None:
                plan.rollup[key] = result
                plan.merges += result.merges
                continue
        plan.missing.append(key)
    plan.lookups = len(footprint)
    return plan
