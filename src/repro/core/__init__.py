"""STASH core: the distributed in-memory hierarchical aggregation cache.

This is the paper's primary contribution (sections IV-VII): the Cell data
model, the level-organized graph with computed hierarchical/lateral edges
(residency in it is the paper's precision-level map: a cell is complete
iff it is resident), freshness-based replacement, the query planner that
reuses cached and recomputable cells, and the distributed cluster
front-end.
"""

from repro.core.keys import CellKey
from repro.core.cell import Cell
from repro.core.graph import StashGraph
from repro.core.freshness import FreshnessTracker
from repro.core.planner import QueryPlan, plan_query

__all__ = [
    "CellKey",
    "Cell",
    "StashGraph",
    "FreshnessTracker",
    "QueryPlan",
    "plan_query",
]
