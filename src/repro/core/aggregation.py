"""Roll-up recomputation: build missing cells from cached finer cells.

The collective cache answers a miss without disk if the missing cell can
be computed "from the existing cached values" (paper V-B).  Summary
statistics are a mergeable monoid, so a parent cell equals the merge of
any *complete* single-axis set of its children.  Completeness is
presence: the graph stores empty cells explicitly, so a parent is
recomputable iff every child key along one axis is resident.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.graph import StashGraph
from repro.core.keys import CellKey
from repro.data.statistics import SummaryVector


@dataclass(frozen=True)
class RollupResult:
    """A successfully rolled-up cell and its cost driver."""

    summary: SummaryVector
    merges: int
    axis: str


def merge_summaries(
    summaries: list[SummaryVector], attributes: list[str]
) -> SummaryVector:
    """Monoid-merge a complete set of child summaries into their parent.

    Empty children contribute nothing; an all-empty (or empty) set yields
    the explicit empty vector over ``attributes``.  This is the single
    merge site of the roll-up path — the conformance harness's mutation
    check (docs/testing.md) corrupts exactly this function to prove the
    oracle campaign catches a broken roll-up.
    """
    nonempty = [s for s in summaries if not s.is_empty]
    if not nonempty:
        return SummaryVector.empty(attributes)
    return SummaryVector.merge_all(nonempty)


def rollup_possible(graph: StashGraph, key: CellKey) -> bool:
    """Whether a finer level of ``key`` holds any cell.

    Without one no child can be resident, so :func:`try_rollup` cannot
    succeed for ``key`` or for any key of its resolution.
    """
    return any(graph.level_size(level) for _axis, level in graph.finer_levels(key))


def try_rollup(
    graph: StashGraph, key: CellKey, attributes: list[str]
) -> RollupResult | None:
    """Attempt to recompute ``key`` from cached children.

    Tries the spatial axis (32 children) then the temporal axis; returns
    None when neither is completely resident or the resolutions fall
    outside the graph's space.
    """
    for axis, level in graph.finer_levels(key):
        resident = graph.summaries_at(level)
        if not resident:
            continue  # nothing resident at the finer level: no child can be
        summaries = []
        for child in key.children(axis):
            summary = resident.get(child)
            if summary is None:
                break
            summaries.append(summary)
        else:
            summary = merge_summaries(summaries, attributes)
            return RollupResult(summary=summary, merges=len(summaries), axis=axis)
    return None
