"""The STASH Cell: vertex of the STASH graph (paper section IV-A).

A Cell is "the minimum unit of data storage in STASH": per-attribute
aggregated summary statistics for one spatiotemporal bin, labeled by its
:class:`~repro.core.keys.CellKey`, plus freshness bookkeeping used by the
replacement policy.  Edge information is not stored — it is computed from
the key (see :mod:`repro.core.keys`).

Freshness bookkeeping lives *in columns*: while a cell is resident in a
:class:`~repro.core.graph.StashGraph`, its ``(freshness, last_touched,
access_count)`` triple lives in per-level numpy arrays owned by the graph
(see :class:`~repro.core.graph.FreshnessColumns`), so the hot paths —
batched touches and whole-graph eviction scoring — are single vectorized
operations instead of per-cell Python attribute updates.  The ``Cell``
attributes below read/write through to the columns when attached and fall
back to instance storage for detached cells, so existing callers see the
same API either way.

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
    """One cached aggregation bin.

    ``freshness``, ``last_touched`` and ``access_count`` are mutable
    bookkeeping owned by the freshness tracker; ``summary`` is immutable
    content.
    """

    __slots__ = (
        "key",
        "summary",
        "_freshness",
        "_last_touched",
        "_access_count",
        "_columns",
    )

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
        self._freshness = freshness
        self._last_touched = last_touched
        self._access_count = access_count
        #: The graph-level column store this cell is resident in, or None.
        self._columns = None
        if summary.is_empty:
            # Empty cells are representable (a region with no observations)
            # but must still carry the attribute schema.
            if not summary.attributes:
                raise CacheError(f"cell {self.key} has no attributes")

    # -- column attachment (managed by StashGraph) -------------------------

    def _attach(self, columns) -> None:
        """Hand freshness bookkeeping to a graph's column store."""
        self._columns = columns

    def _detach(self, freshness: float, last_touched: float, access_count: int) -> None:
        """Take the final column values back into instance storage."""
        self._columns = None
        self._freshness = freshness
        self._last_touched = last_touched
        self._access_count = access_count

    # -- freshness bookkeeping (column-backed when resident) ---------------

    @property
    def freshness(self) -> float:
        """Current freshness score (decayed access weight, paper V-C-1)."""
        cols = self._columns
        if cols is not None:
            return float(cols.freshness[cols.slot_of[self.key]])
        return self._freshness

    @freshness.setter
    def freshness(self, value: float) -> None:
        cols = self._columns
        if cols is not None:
            cols.freshness[cols.slot_of[self.key]] = value
        else:
            self._freshness = value

    @property
    def last_touched(self) -> float:
        """Simulated time of the last freshness update."""
        cols = self._columns
        if cols is not None:
            return float(cols.last_touch[cols.slot_of[self.key]])
        return self._last_touched

    @last_touched.setter
    def last_touched(self, value: float) -> None:
        cols = self._columns
        if cols is not None:
            cols.last_touch[cols.slot_of[self.key]] = value
        else:
            self._last_touched = value

    @property
    def access_count(self) -> int:
        """Number of direct accesses (diagnostics; freshness is the policy)."""
        cols = self._columns
        if cols is not None:
            return int(cols.access_count[cols.slot_of[self.key]])
        return self._access_count

    @access_count.setter
    def access_count(self, value: int) -> None:
        cols = self._columns
        if cols is not None:
            cols.access_count[cols.slot_of[self.key]] = value
        else:
            self._access_count = value

    # -- content -----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of raw observations aggregated into this cell."""
        return self.summary.count

    def touched(self, amount: float, now: float, decay_rate: float) -> None:
        """Apply a freshness increment with exponential decay since last touch.

        ``decay_rate`` is ln(2) / half_life; see
        :class:`~repro.core.freshness.FreshnessTracker`.
        """
        elapsed = max(0.0, now - self.last_touched)
        self.freshness = self.freshness * float(np.exp(-decay_rate * elapsed)) + amount
        self.last_touched = now

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
