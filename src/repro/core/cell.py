"""The STASH Cell: vertex of the STASH graph (paper section IV-A).

A Cell is "the minimum unit of data storage in STASH": per-attribute
aggregated summary statistics for one spatiotemporal bin, labeled by its
:class:`~repro.core.keys.CellKey`, plus freshness bookkeeping used by the
replacement policy.  Edge information is not stored — it is computed from
the key (see :mod:`repro.core.keys`).

A resident cell is not an object: a :class:`~repro.core.graph.StashGraph`
level holds ``key -> SummaryVector`` and keeps the freshness triple in
numpy columns (:class:`~repro.core.graph.FreshnessColumns`).  A ``Cell``
is a cell by value: ``upsert`` copies one in and ``get`` / ``cells``
hand out detached snapshots, so writing to one changes no graph.

All exponential decay uses ``np.exp`` (scalar and array forms are
bit-identical) so the scalar scoring path and the vectorized eviction
kernel produce byte-equal scores.
"""

from __future__ import annotations

import numpy as np

from repro.core.keys import CellKey
from repro.data.statistics import SummaryVector
from repro.errors import CacheError


class Cell:
    """One aggregation bin and its freshness bookkeeping, by value;
    ``summary`` is immutable content."""

    __slots__ = ("key", "summary", "freshness", "last_touched", "access_count")

    def __init__(
        self,
        key: CellKey,
        summary: SummaryVector,
        freshness: float = 0.0,
        last_touched: float = 0.0,
        access_count: int = 0,
    ):
        self.key = key
        self.summary = summary
        #: Current freshness score (decayed access weight, paper V-C-1).
        self.freshness = freshness
        #: Simulated time of the last freshness update.
        self.last_touched = last_touched
        #: Number of direct accesses (diagnostics; freshness is the policy).
        self.access_count = access_count
        if summary.is_empty:
            # Empty cells are representable (a region with no observations)
            # but must still carry the attribute schema.
            if not summary.attributes:
                raise CacheError(f"cell {self.key} has no attributes")

    @property
    def count(self) -> int:
        """Number of raw observations aggregated into this cell."""
        return self.summary.count

    def decayed_freshness(self, now: float, decay_rate: float) -> float:
        """Freshness as of ``now`` without mutating the cell."""
        elapsed = max(0.0, now - self.last_touched)
        return self.freshness * float(np.exp(-decay_rate * elapsed))

    def __repr__(self) -> str:
        return (
            f"Cell(key={self.key!r}, summary={self.summary!r}, "
            f"freshness={self.freshness!r}, last_touched={self.last_touched!r}, "
            f"access_count={self.access_count!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cell):
            return NotImplemented
        return (
            self.key == other.key
            and self.summary == other.summary
            and self.freshness == other.freshness
            and self.last_touched == other.last_touched
            and self.access_count == other.access_count
        )
