"""Metamorphic relations: result-level invariants needing no oracle.

Each check runs two (or more) queries against a live cluster and
compares the *results against each other*, exploiting algebraic
structure the paper's hierarchical exploration relies on:

* **parent = merge(children)** along both refinement axes — the monoid
  invariant behind roll-up and drill-down (paper V-B);
* **pan/zoom overlap consistency** — two overlapping queries must agree
  on every shared cell (cached cells are full-extent aggregates, so the
  answer for a cell cannot depend on which query asked);
* **query-split additivity** — a bbox answer equals the union of a
  partition of it (footprints partition, cells are disjoint);
* **eviction independence** — answers identical before and after the
  most violent eviction possible (a full cache flush).

Checks skip (return ``[]``) instead of failing when a result is
explicitly degraded (``completeness < 1``): degraded answers are allowed
to omit cells, and oracle-backed conformance covers their correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.oracle.engine import DEFAULT_REL_TOL, reference_merge
from repro.query.model import AggregationQuery, QueryResult


@dataclass(frozen=True)
class RelationFailure:
    """One violated metamorphic relation."""

    relation: str
    query: AggregationQuery
    detail: str

    def __str__(self) -> str:
        return f"[{self.relation}] {describe_query(self.query)}: {self.detail}"


def describe_query(query: AggregationQuery) -> str:
    """Compact human-readable query description for reports."""
    box = query.bbox
    attrs = "*" if query.attributes is None else ",".join(query.attributes)
    return (
        f"bbox=({box.south:.4f},{box.north:.4f},{box.west:.4f},{box.east:.4f}) "
        f"time=[{query.time_range.start:.0f},{query.time_range.end:.0f}) "
        f"res={query.resolution} attrs={attrs}"
    )


def _run(cluster, query: AggregationQuery) -> QueryResult:
    result = cluster.run_query(query)
    cluster.drain()
    return result


def _cells_match(a, b) -> bool:
    return a.approx_equal(b, rel=DEFAULT_REL_TOL)


def check_parent_children(
    cluster, query: AggregationQuery, axis: str
) -> list[RelationFailure]:
    """Parent cells must equal the merge of their children along ``axis``.

    Runs ``query`` and the same extent one step finer on ``axis``; every
    parent cell in the coarse answer must equal the
    :func:`reference_merge` of its child cells in the fine answer, and a
    parent absent from the coarse answer must have no non-empty children.
    """
    finer = (
        query.resolution.finer_spatial()
        if axis == "spatial"
        else query.resolution.finer_temporal()
    )
    if finer is None or not cluster.space.contains(finer):
        return []
    parent_q = AggregationQuery(
        bbox=query.snapped_bbox(),
        time_range=query.snapped_time_range(),
        resolution=query.resolution,
        attributes=query.attributes,
    )
    child_q = parent_q.at_resolution(finer)
    coarse = _run(cluster, parent_q)
    fine = _run(cluster, child_q)
    if coarse.degraded or fine.degraded:
        return []
    attributes = (
        cluster.attribute_names
        if query.attributes is None
        else list(query.attributes)
    )
    failures: list[RelationFailure] = []
    for key in parent_q.footprint():
        children = key.children(axis)
        present = [fine.cells[c] for c in children if c in fine.cells]
        expected = reference_merge(present, attributes)
        actual = coarse.cells.get(key)
        if actual is None:
            if not expected.is_empty:
                failures.append(
                    RelationFailure(
                        f"parent-children:{axis}",
                        parent_q,
                        f"parent {key} absent but children hold "
                        f"{expected.count} observations",
                    )
                )
        elif not _cells_match(actual, expected):
            failures.append(
                RelationFailure(
                    f"parent-children:{axis}",
                    parent_q,
                    f"parent {key} != merge of its {axis} children "
                    f"(parent count {actual.count}, merged count "
                    f"{expected.count})",
                )
            )
    return failures


def check_pan_consistency(
    cluster, query: AggregationQuery, dlat: float, dlon: float
) -> list[RelationFailure]:
    """Two overlapping pans must agree on every shared footprint cell."""
    moved = query.panned(dlat, dlon)
    first = _run(cluster, query)
    second = _run(cluster, moved)
    if first.degraded or second.degraded:
        return []
    shared = set(query.footprint()) & set(moved.footprint())
    failures: list[RelationFailure] = []
    for key in sorted(shared, key=str):
        in_first = key in first.cells
        in_second = key in second.cells
        if in_first != in_second:
            failures.append(
                RelationFailure(
                    "pan-overlap",
                    query,
                    f"cell {key} {'present' if in_first else 'absent'} before "
                    f"pan but {'present' if in_second else 'absent'} after",
                )
            )
        elif in_first and not _cells_match(first.cells[key], second.cells[key]):
            failures.append(
                RelationFailure(
                    "pan-overlap", query, f"cell {key} changed value across pans"
                )
            )
    return failures


def check_split_additivity(cluster, query: AggregationQuery) -> list[RelationFailure]:
    """A bbox answer must equal the union of a partition of the bbox."""
    parts = query.split_spatial() or query.split_temporal()
    if not parts:
        return []
    whole_fp = set(query.footprint())
    part_fps = [set(p.footprint()) for p in parts]
    if (
        set.union(*part_fps) != whole_fp
        or sum(len(fp) for fp in part_fps) != len(whole_fp)
    ):
        return [
            RelationFailure(
                "split-additivity",
                query,
                "split sub-queries do not partition the footprint",
            )
        ]
    whole = _run(cluster, query)
    results = [_run(cluster, part) for part in parts]
    if whole.degraded or any(r.degraded for r in results):
        return []
    combined: dict = {}
    for result in results:
        combined.update(result.cells)
    failures: list[RelationFailure] = []
    if set(combined) != set(whole.cells):
        missing = {str(k) for k in set(whole.cells) - set(combined)}
        extra = {str(k) for k in set(combined) - set(whole.cells)}
        failures.append(
            RelationFailure(
                "split-additivity",
                query,
                f"cell sets differ: missing from parts {sorted(missing)[:3]}, "
                f"extra in parts {sorted(extra)[:3]}",
            )
        )
    else:
        for key, vec in whole.cells.items():
            if not _cells_match(vec, combined[key]):
                failures.append(
                    RelationFailure(
                        "split-additivity",
                        query,
                        f"cell {key} differs between whole and split answers",
                    )
                )
    return failures


def check_eviction_independence(
    cluster, query: AggregationQuery
) -> list[RelationFailure]:
    """Answers must be identical before and after a forced full eviction."""
    before = _run(cluster, query)
    cluster.flush_caches()
    after = _run(cluster, query.clone())
    if before.degraded or after.degraded:
        return []
    failures: list[RelationFailure] = []
    if set(before.cells) != set(after.cells):
        failures.append(
            RelationFailure(
                "eviction-independence",
                query,
                f"cell sets differ across eviction: "
                f"{len(before.cells)} before vs {len(after.cells)} after",
            )
        )
    else:
        for key, vec in before.cells.items():
            if not _cells_match(vec, after.cells[key]):
                failures.append(
                    RelationFailure(
                        "eviction-independence",
                        query,
                        f"cell {key} changed value across a cache flush",
                    )
                )
    return failures
