"""Freshness scoring and neighborhood dispersion (paper section V-C).

Freshness combines frequency and recency: every access adds
:data:`F_INC` after exponentially decaying the previous score, so
``freshness(t) = sum_i f_i * exp(-lambda * (t - t_i))`` — the product of
access count and a time-decay function the paper describes.  When a
region is accessed, a configurable fraction of :data:`F_INC` is *dispersed*
to the cells in its immediate spatiotemporal neighborhood (Fig. 3), so
hot regions are evicted as connected areas rather than ragged patches.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.config import FreshnessConfig
from repro.core.keys import CellKey

#: Freshness one access adds to a cell: the unit of the paper's "access
#: count".  Freshness is only compared with other freshness and with 0,
#: so its scale carries no behaviour.
F_INC = 1.0


class FreshnessTracker:
    """Applies freshness updates to cells of one node's graph.

    Updates are *batched*: an access hands its keys and its ring to
    :meth:`~repro.core.graph.StashGraph.touch_runs`, which applies the
    decay + increment of both as one vectorized column update per graph
    level instead of a Python loop over cells.  Scoring (:meth:`score`)
    stays a per-cell read for diagnostic callers; the eviction hot path
    scores the whole graph at once via
    :func:`repro.core.eviction.rank_victims`, which is bit-identical to
    this scalar form (both use ``np.exp``).
    """

    def __init__(self, config: FreshnessConfig):
        self.config = config
        if config.half_life <= 0:
            raise ValueError("half_life must be positive")
        self.decay_rate = math.log(2.0) / config.half_life

    def touch_cells(self, graph, keys: list[CellKey], now: float, ring: Sequence = ()) -> int:
        """An access: full :data:`F_INC` to each present cell of ``keys``,
        counted as an access, and the dispersion fraction of it to each
        present cell of ``ring`` (not counted), in one column update.

        Returns the number of cells actually touched (absent keys are
        skipped — only resident cells carry freshness).
        """
        dispersed = F_INC * self.config.dispersion_fraction
        runs = ((keys, F_INC, True), (ring, dispersed, False))
        return graph.touch_runs(runs, now, self.decay_rate)

    def disperse_to_neighborhood(self, graph, ring_keys: list[tuple], now: float) -> int:
        """:meth:`touch_cells` with no accessed cell: dispersion alone."""
        return self.touch_cells(graph, [], now, ring=ring_keys)

    def score(self, cell, now: float) -> float:
        """Current decayed freshness of a cell (no mutation)."""
        return cell.decayed_freshness(now, self.decay_rate)


def query_ring(query, owns: Callable[[str], bool] | None = None) -> list[tuple]:
    """The neighborhood ring of a query footprint, via box geometry.

    Because a query footprint is (rectangular spatial cover) x
    (contiguous temporal keys), its ring is the spatial perimeter ring
    crossed with the time keys, plus the cover crossed with the bins
    flanking them — O(perimeter + cover) instead of touching every
    cell's 10 lateral neighbors (the per-cell form is the reference in
    ``tests/reference.py``).  With ``owns``, a predicate on a geohash,
    only the keys whose geohash it accepts, in the same order: one
    owner's share of the ring.

    The keys are ``(geohash, TimeKey)`` pairs, not ``CellKey``s: a pair
    hashes and compares equal to the ``CellKey`` of its fields, so it
    finds the same graph slot for a tenth of the build cost.  They are
    probes only, never stored, sent or recorded.
    """
    time_keys = query.time_keys()
    perimeter, flanks = query.neighborhood()
    box = query.box_cells()
    if owns is not None:
        perimeter = [g for g in perimeter if owns(g)]
        box = [g for g in box if owns(g)]
    ring = [(g, t) for g in perimeter for t in time_keys]
    ring.extend((g, t) for g in box for t in flanks)
    return ring
