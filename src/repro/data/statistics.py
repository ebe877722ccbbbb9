"""Mergeable summary statistics (the contents of a STASH Cell).

Each attribute's summary is (count, sum, sum of squares, min, max); these
form a commutative monoid under :meth:`AttributeSummary.merge`, which is
what lets STASH:

* compute a parent cell from its children without touching raw data
  (roll-up, paper section V-B), and
* answer any aggregation query (count/mean/min/max/std) from cached cells.

Vectorized constructors aggregate whole observation batches with
``np.bincount``-style grouped reductions rather than per-record loops.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.errors import StatisticsError


class AttributeSummary(NamedTuple):
    """Summary statistics of one attribute over one spatiotemporal bin.

    A NamedTuple rather than a dataclass: immutable, and cheap enough to
    construct that the grouped-aggregation hot path (four of these per
    non-empty cell) stays object-bound rather than interpreter-bound.
    """

    count: int
    total: float
    total_sq: float
    minimum: float
    maximum: float

    # -- constructors -----------------------------------------------------

    @staticmethod
    def empty() -> "AttributeSummary":
        """The monoid identity."""
        return AttributeSummary(0, 0.0, 0.0, math.inf, -math.inf)

    @staticmethod
    def from_values(values: np.ndarray) -> "AttributeSummary":
        """Summary of a 1-D array of raw values."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return AttributeSummary.empty()
        return AttributeSummary(
            count=int(values.size),
            total=float(values.sum()),
            total_sq=float(np.square(values).sum()),
            minimum=float(values.min()),
            maximum=float(values.max()),
        )

    # -- monoid ------------------------------------------------------------

    def merge(self, other: "AttributeSummary") -> "AttributeSummary":
        """Combine two summaries of disjoint data (associative, commutative)."""
        return AttributeSummary(
            count=self.count + other.count,
            total=self.total + other.total,
            total_sq=self.total_sq + other.total_sq,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    # -- derived statistics ---------------------------------------------------

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise StatisticsError("mean of empty summary")
        return self.total / self.count

    @property
    def variance(self) -> float:
        """Population variance, clamped at 0 against fp cancellation."""
        if self.count == 0:
            raise StatisticsError("variance of empty summary")
        mean = self.mean
        return max(0.0, self.total_sq / self.count - mean * mean)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def approx_equal(self, other: "AttributeSummary", rel: float = 1e-9) -> bool:
        """Floating-point-tolerant equality (counts/extrema exact)."""
        if self.count != other.count:
            return False
        if self.count == 0:
            return other.count == 0
        return (
            math.isclose(self.total, other.total, rel_tol=rel, abs_tol=1e-9)
            and math.isclose(self.total_sq, other.total_sq, rel_tol=rel, abs_tol=1e-9)
            and self.minimum == other.minimum
            and self.maximum == other.maximum
        )


class SummaryVector:
    """Per-attribute summaries for one spatiotemporal bin.

    A thin immutable mapping ``attribute name -> AttributeSummary`` with a
    merge operation over matching attribute sets.  All attribute summaries
    in one vector share the same observation count.
    """

    __slots__ = ("_summaries",)

    def __init__(self, summaries: dict[str, AttributeSummary]):
        if not summaries:
            raise StatisticsError("SummaryVector needs at least one attribute")
        counts = {s.count for s in summaries.values()}
        if len(counts) != 1:
            raise StatisticsError(
                f"inconsistent counts across attributes: {sorted(counts)}"
            )
        self._summaries = dict(summaries)

    @classmethod
    def _trusted(cls, summaries: dict[str, AttributeSummary]) -> "SummaryVector":
        """Validation-free constructor for hot aggregation paths.

        Callers guarantee a non-empty dict with consistent counts (true
        by construction in :func:`grouped_summaries`, which derives every
        attribute's count from the same segment boundaries).
        """
        self = cls.__new__(cls)
        self._summaries = summaries
        return self

    # -- constructors --------------------------------------------------------

    @staticmethod
    def empty(attributes: list[str]) -> "SummaryVector":
        return SummaryVector({a: AttributeSummary.empty() for a in attributes})

    @staticmethod
    def from_arrays(arrays: dict[str, np.ndarray]) -> "SummaryVector":
        return SummaryVector(
            {name: AttributeSummary.from_values(v) for name, v in arrays.items()}
        )

    # -- mapping API -----------------------------------------------------------

    @property
    def attributes(self) -> list[str]:
        return sorted(self._summaries)

    @property
    def count(self) -> int:
        """Observation count (shared by all attributes)."""
        return next(iter(self._summaries.values())).count

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    def __getitem__(self, attribute: str) -> AttributeSummary:
        try:
            return self._summaries[attribute]
        except KeyError:
            raise StatisticsError(f"unknown attribute {attribute!r}") from None

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._summaries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SummaryVector):
            return NotImplemented
        return self._summaries == other._summaries

    def __repr__(self) -> str:
        return f"SummaryVector(count={self.count}, attrs={self.attributes})"

    # -- monoid ------------------------------------------------------------

    def merge(self, other: "SummaryVector") -> "SummaryVector":
        """Merge two vectors of disjoint data over the same attributes."""
        if set(self._summaries) != set(other._summaries):
            raise StatisticsError(
                f"attribute mismatch: {self.attributes} vs {other.attributes}"
            )
        return SummaryVector(
            {a: s.merge(other._summaries[a]) for a, s in self._summaries.items()}
        )

    @staticmethod
    def merge_all(vectors: list["SummaryVector"]) -> "SummaryVector":
        if not vectors:
            raise StatisticsError("merge_all of no vectors")
        out = vectors[0]
        for vec in vectors[1:]:
            out = out.merge(vec)
        return out

    def approx_equal(self, other: "SummaryVector", rel: float = 1e-9) -> bool:
        if set(self._summaries) != set(other._summaries):
            return False
        return all(
            s.approx_equal(other._summaries[a], rel=rel)
            for a, s in self._summaries.items()
        )

    def project(self, attributes: list[str] | tuple[str, ...]) -> "SummaryVector":
        """Restrict to a subset of attributes (client-requested slice).

        Cells always cache *every* attribute so they stay reusable by any
        later query; attribute selection is applied to responses only.
        """
        missing = [a for a in attributes if a not in self._summaries]
        if missing:
            raise StatisticsError(f"unknown attributes {missing}")
        if not attributes:
            raise StatisticsError("projection needs at least one attribute")
        return SummaryVector({a: self._summaries[a] for a in attributes})

    # -- rendering ------------------------------------------------------------

    def to_json_dict(self) -> dict[str, dict[str, float]]:
        """JSON-serializable form consumed by the front-end renderer."""
        out: dict[str, dict[str, float]] = {}
        for name, s in self._summaries.items():
            if s.is_empty:
                out[name] = {"count": 0}
            else:
                out[name] = {
                    "count": s.count,
                    "min": s.minimum,
                    "max": s.maximum,
                    "mean": s.mean,
                    "std": s.std,
                }
        return out


#: The reduction that folds each summary column, in column order
#: ``(sums, sumsqs, mins, maxs)``.
_COLUMN_FOLDS = (np.add, np.add, np.minimum, np.maximum)


def _run_starts(
    sorted_keys: np.ndarray, sorted_parts: np.ndarray | None = None
) -> np.ndarray:
    """First index of each run of equal keys in a sorted array — of equal
    (key, part) pairs when the keys' part numbers are given."""
    boundary = np.empty(sorted_keys.size, dtype=bool)
    boundary[:1] = True
    boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
    if sorted_parts is not None:
        boundary[1:] |= sorted_parts[1:] != sorted_parts[:-1]
    return np.flatnonzero(boundary)


class SummaryFrame:
    """Grouped summaries: many bins' statistics as parallel arrays.

    The array form of ``dict[bin, SummaryVector]``: ``ids`` holds the
    sorted distinct bin ids (packed uint64 from
    :mod:`repro.geo.binning`), ``counts`` the per-bin observation
    counts, and ``columns`` maps each attribute name to its
    ``(sums, sumsqs, mins, maxs)`` float64 arrays — all aligned with
    ``ids``.

    Frames are the unit the scan pipeline produces and merges: one scan
    leg groups all of its blocks' records in one pass
    (:meth:`partials`: one row per bin and source block, so an id
    repeats once per block that holds it), :meth:`merge_all` folds the
    rows of equal id, and per-bin :class:`SummaryVector` objects are
    materialized lazily only at the query/response boundary.  Merging
    sums each bin's partials in frame order and then row order; for two
    partials that is bitwise what ``SummaryVector.merge`` gives
    (``tests/data/test_summary_frame.py`` pins it), for more numpy's
    ``reduceat`` may associate the partials differently, so sums agree
    with a merge chain to rounding while counts and extrema are exact.
    """

    __slots__ = ("ids", "counts", "columns")

    def __init__(
        self,
        ids: np.ndarray,
        counts: np.ndarray,
        columns: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    ):
        self.ids = ids
        self.counts = counts
        self.columns = columns

    def __len__(self) -> int:
        return self.ids.size

    @property
    def attributes(self) -> list[str]:
        return sorted(self.columns)

    def __repr__(self) -> str:
        return f"SummaryFrame(bins={len(self)}, attrs={self.attributes})"

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_groups(
        group_keys: np.ndarray, arrays: dict[str, np.ndarray]
    ) -> "SummaryFrame":
        """Group raw values by key into a frame, fully vectorized.

        ``group_keys`` is an array of per-record bin ids; ``arrays``
        maps attribute names to same-length value arrays.  One stable
        argsort plus ``np.*.reduceat`` segment reductions per attribute
        — no per-record Python loop, and no per-bin object construction.
        """
        return SummaryFrame.partials(group_keys, arrays)

    @staticmethod
    def partials(
        group_keys: np.ndarray,
        arrays: dict[str, np.ndarray],
        parts: np.ndarray | None = None,
    ) -> "SummaryFrame":
        """Group raw values by (key, source part): the fused-scan kernel.

        ``parts`` is a non-decreasing per-record part number — the
        records of part 0, then part 1, ... as a scan leg concatenates
        its blocks.  The stable sort on the key leaves each key's
        records in part order and then in position order, so cutting
        segments where the key *or* the part changes reduces exactly
        the values, in exactly the order, that grouping each part on
        its own would.  The result holds one row per (key, part), ids
        non-decreasing with a key's rows in part order — the rows the
        per-part frames would stack up to — and :meth:`merge_all` folds
        them.  Without ``parts`` every key is one row
        (:meth:`from_groups`).
        """
        if not arrays:
            raise StatisticsError("grouped summaries need at least one attribute")
        group_keys = np.asarray(group_keys)
        n = group_keys.size
        for name, values in arrays.items():
            if np.asarray(values).shape != (n,):
                raise StatisticsError(
                    f"attribute {name!r} length mismatch with group keys"
                )
        if n == 0:
            return SummaryFrame(
                ids=group_keys,
                counts=np.empty(0, dtype=np.int64),
                columns={
                    name: tuple(np.empty(0, dtype=np.float64) for _ in range(4))
                    for name in arrays
                },
            )
        order = np.argsort(group_keys, kind="stable")
        sorted_keys = group_keys[order]
        # Segment boundaries: first index of each distinct (key, part).
        starts = _run_starts(sorted_keys, None if parts is None else parts[order])
        counts = np.diff(np.append(starts, n))

        columns: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        for name, values in arrays.items():
            v = np.asarray(values, dtype=np.float64)[order]
            sums = np.add.reduceat(v, starts)
            sq = np.add.reduceat(np.square(v), starts)
            mins = np.minimum.reduceat(v, starts)
            maxs = np.maximum.reduceat(v, starts)
            columns[name] = (sums, sq, mins, maxs)
        return SummaryFrame(ids=sorted_keys[starts], counts=counts, columns=columns)

    # -- monoid ------------------------------------------------------------

    def merge(self, other: "SummaryFrame") -> "SummaryFrame":
        """Column-wise merge of two frames over the same attributes."""
        return SummaryFrame.merge_all([self, other])

    @staticmethod
    def merge_all(frames: list["SummaryFrame"]) -> "SummaryFrame":
        """Merge frames in list order.

        Stacks every column and regroups with one stable sort: rows
        with equal ids — from different frames, or the per-part rows of
        one :meth:`partials` frame — stay in frame order and then row
        order, and ``reduceat`` folds each run (see the class docstring
        for what that pins).  One frame is already in id order and is
        returned as it is when no id repeats.
        """
        if not frames:
            raise StatisticsError("merge_all of no frames")
        names = set(frames[0].columns)
        for frame in frames[1:]:
            if set(frame.columns) != names:
                raise StatisticsError(
                    f"attribute mismatch: {frames[0].attributes} "
                    f"vs {frame.attributes}"
                )
        if len(frames) == 1:
            ids, order = frames[0].ids, slice(None)
            starts = _run_starts(ids)
            if starts.size == ids.size:
                return frames[0]
        else:
            ids = np.concatenate([f.ids for f in frames])
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            starts = _run_starts(ids)

        def fold(ufunc: np.ufunc, column: list[np.ndarray]) -> np.ndarray:
            return ufunc.reduceat(np.concatenate(column)[order], starts)

        counts = fold(np.add, [f.counts for f in frames])
        columns = {
            name: tuple(
                fold(ufunc, [f.columns[name][i] for f in frames])
                for i, ufunc in enumerate(_COLUMN_FOLDS)
            )
            for name in frames[0].columns
        }
        return SummaryFrame(ids=ids[starts], counts=counts, columns=columns)

    # -- materialization -----------------------------------------------------

    def vectors(self) -> list[SummaryVector]:
        """Materialize one :class:`SummaryVector` per bin, aligned with ``ids``.

        This is the lazy boundary: frames stay arrays through scan and
        merge; per-bin objects exist only once a response needs them.
        """
        # Python lists once, then one positional tuple build per summary:
        # per-element ndarray indexing or keyword construction would
        # dominate otherwise.
        counts = self.counts.tolist()
        names = list(self.columns)
        per_attribute = [
            map(
                AttributeSummary._make,
                zip(counts, sums.tolist(), sumsqs.tolist(), mins.tolist(), maxs.tolist()),
            )
            for sums, sumsqs, mins, maxs in self.columns.values()
        ]
        return [
            SummaryVector._trusted(dict(zip(names, summaries)))
            for summaries in zip(*per_attribute)
        ]

    def materialize(self) -> dict:
        """``{bin id: SummaryVector}`` for every bin in the frame."""
        return dict(zip(self.ids.tolist(), self.vectors()))


def grouped_summaries(
    group_keys: np.ndarray, arrays: dict[str, np.ndarray]
) -> dict[str, SummaryVector]:
    """Group raw values by key and summarize each group, vectorized.

    ``group_keys`` is an array of per-record bin ids; ``arrays`` maps
    attribute names to same-length value arrays.  Returns
    ``{key: SummaryVector}`` for each distinct key.

    Thin wrapper: builds a :class:`SummaryFrame` and materializes it
    immediately.  Paths that merge scans (``scan_blocks``) keep the
    frame instead and materialize once at the end.
    """
    return SummaryFrame.from_groups(group_keys, arrays).materialize()
