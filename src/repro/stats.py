"""Shared statistical primitives used across the repository.

Before this module existed every consumer computed percentiles its own
way — ``np.percentile`` in the simulator's latency collector, ``np.quantile`` in
:mod:`repro.bench.faults`, and hand-rolled ``sorted[int(0.95 * n)]``
indexing in the CLI — three subtly different interpolation rules.  Every
percentile the repository reports now goes through :func:`percentile`,
so numbers from different reports are comparable.

The interpolation is the classic "linear" rule (NumPy's default): the
``q``-th percentile of ``n`` sorted values sits at fractional rank
``(n - 1) * q / 100`` and is linearly interpolated between the two
surrounding order statistics.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Accepts any iterable of numbers; raises ``ValueError`` on an empty
    input or a ``q`` outside ``[0, 100]``.  Matches ``np.percentile``'s
    default (``linear``) interpolation exactly.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[int(rank)]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def percentiles(values: Sequence[float], qs: Iterable[float]) -> list[float]:
    """Several percentiles of one sample, sorting it only once."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    out = []
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if len(ordered) == 1:
            out.append(ordered[0])
            continue
        rank = (len(ordered) - 1) * (q / 100.0)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            out.append(ordered[int(rank)])
        else:
            frac = rank - lo
            out.append(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)
    return out
