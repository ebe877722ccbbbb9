"""Mergeable log-bucketed latency histograms.

A :class:`LatencyHistogram` is a **summary monoid** (the histogram
counterpart of :class:`~repro.data.statistics.AttributeSummary`): bucket
boundaries are *fixed* powers of two shared by every instance, so
histograms recorded on different nodes, phases, or runs merge exactly —
merge is element-wise integer addition, which is associative and
commutative with :meth:`empty` as identity.  That is what lets the
flight recorder keep one histogram per query class and per node and
still produce the cluster-wide distribution as their exact merge.

Buckets span ``[2**MIN_EXP, 2**MAX_EXP)`` seconds in powers of two, with
one underflow bucket ``[0, 2**MIN_EXP)`` and one overflow bucket
``[2**MAX_EXP, inf)``.  Percentile queries return *bounds*: the true
percentile of the recorded sample provably lies within the returned
``[lo, hi]`` bucket interval (relative error is at most one octave), and
:meth:`percentile_estimate` reports the bucket midpoint as a point
estimate.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

#: Smallest resolved bucket boundary: 2**-20 s (~0.95 microseconds).
MIN_EXP = -20
#: Largest resolved bucket boundary: 2**12 s (~68 minutes).
MAX_EXP = 12
#: Underflow + one bucket per octave + overflow.
NUM_BUCKETS = (MAX_EXP - MIN_EXP) + 2


def bucket_index(value: float) -> int:
    """The bucket a (finite, non-negative) latency falls into."""
    if not 0.0 <= value < math.inf:  # also false for NaN
        raise ValueError(f"latency must be finite and non-negative, got {value}")
    if value < 2.0**MIN_EXP:
        return 0
    if value >= 2.0**MAX_EXP:
        return NUM_BUCKETS - 1
    # frexp: value = m * 2**e with 0.5 <= m < 1, so value in
    # [2**(e-1), 2**e) — e is the bucket's *upper* exponent.
    _, exponent = math.frexp(value)
    return exponent - MIN_EXP


def bucket_bounds(index: int) -> tuple[float, float]:
    """``[lo, hi)`` boundaries of one bucket (overflow hi is ``inf``)."""
    if not 0 <= index < NUM_BUCKETS:
        raise ValueError(f"bucket index {index} out of range")
    if index == 0:
        return (0.0, 2.0**MIN_EXP)
    if index == NUM_BUCKETS - 1:
        return (2.0**MAX_EXP, math.inf)
    return (2.0 ** (MIN_EXP + index - 1), 2.0 ** (MIN_EXP + index))


class LatencyHistogram:
    """Fixed-boundary log2 histogram of latencies (seconds).

    Counts are plain Python ints so merging never loses precision; the
    running ``total`` is a float sum kept for mean estimates.
    """

    __slots__ = ("counts", "count", "total")

    def __init__(self) -> None:
        self.counts: list[int] = [0] * NUM_BUCKETS
        self.count: int = 0
        self.total: float = 0.0

    # -- monoid ------------------------------------------------------------

    @classmethod
    def empty(cls) -> "LatencyHistogram":
        """The merge identity."""
        return cls()

    def observe(self, value: float) -> None:
        """Record one latency."""
        self.counts[bucket_index(value)] += 1
        self.count += 1
        self.total += value

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """The exact combination of two histograms (a new instance)."""
        out = LatencyHistogram()
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.count = self.count + other.count
        out.total = self.total + other.total
        return out

    @classmethod
    def merge_all(
        cls, histograms: Iterable["LatencyHistogram"]
    ) -> "LatencyHistogram":
        out = cls()
        for histogram in histograms:
            out = out.merge(histogram)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return self.counts == other.counts and self.count == other.count

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"LatencyHistogram(count={self.count}, mean={self.mean():.6g})"

    # -- estimates ---------------------------------------------------------

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile_bounds(self, q: float) -> tuple[float, float]:
        """Bucket bounds bracketing the true ``q``-th percentile.

        The linear-interpolated percentile of the recorded sample (see
        :func:`repro.stats.percentile`) lies between the order statistics
        at ranks ``floor`` and ``ceil`` of ``(count - 1) * q / 100``; the
        returned interval is the lower bound of the bucket holding the
        floor rank and the upper bound of the bucket holding the ceil
        rank, so it provably contains the true value.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            raise ValueError("percentile of an empty histogram")
        rank = (self.count - 1) * (q / 100.0)
        lo_rank = math.floor(rank)
        hi_rank = math.ceil(rank)
        lo_bucket = self._bucket_of_rank(lo_rank)
        hi_bucket = lo_bucket if hi_rank == lo_rank else self._bucket_of_rank(hi_rank)
        return (bucket_bounds(lo_bucket)[0], bucket_bounds(hi_bucket)[1])

    def _bucket_of_rank(self, rank: int) -> int:
        """The bucket containing the 0-based order statistic ``rank``."""
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if rank < seen:
                return index
        return NUM_BUCKETS - 1

    def percentile_estimate(self, q: float) -> float:
        """A point estimate: the midpoint of the percentile's bounds.

        For the overflow bucket (unbounded above) the lower bound is
        returned instead of an infinite midpoint.
        """
        lo, hi = self.percentile_bounds(q)
        if math.isinf(hi):
            return lo
        return (lo + hi) / 2.0

    def summary(
        self, percentiles: Iterable[float] = (50.0, 95.0, 99.0)
    ) -> dict[str, Any]:
        """Compact operator-facing digest: count, mean, point estimates.

        The shape the HTTP facade's ``/stats`` endpoint and the scale
        bench reports embed — estimates only (bucket midpoints), not the
        full sparse bucket list of :meth:`to_dict`.
        """
        out: dict[str, Any] = {"count": self.count, "mean_s": self.mean()}
        for q in percentiles:
            key = f"p{q:g}_s"
            out[key] = self.percentile_estimate(q) if self.count else None
        return out

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Sparse JSON form: only non-empty buckets are listed."""
        return {
            "min_exp": MIN_EXP,
            "max_exp": MAX_EXP,
            "count": self.count,
            "total_s": self.total,
            "buckets": {
                str(index): count
                for index, count in enumerate(self.counts)
                if count
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LatencyHistogram":
        if data.get("min_exp") != MIN_EXP or data.get("max_exp") != MAX_EXP:
            raise ValueError(
                "histogram bucket layout mismatch: "
                f"got [{data.get('min_exp')}, {data.get('max_exp')}], "
                f"expected [{MIN_EXP}, {MAX_EXP}]"
            )
        out = cls()
        for key, count in data.get("buckets", {}).items():
            index = int(key)
            if not 0 <= index < NUM_BUCKETS:
                raise ValueError(f"histogram bucket index {key!r} out of range")
            if type(count) is not int or count < 0:
                raise ValueError(f"histogram bucket {key} holds count {count!r}")
            out.counts[index] = count
        out.count = sum(out.counts)
        if data.get("count", out.count) != out.count:
            raise ValueError(
                f"histogram count {data['count']!r} is not the sum of its "
                f"buckets ({out.count})"
            )
        total = data.get("total_s", 0.0)
        if type(total) not in (int, float) or not 0.0 <= total < math.inf:
            raise ValueError(
                f"histogram total_s {total!r} is not a finite non-negative number"
            )
        out.total = float(total)
        return out
