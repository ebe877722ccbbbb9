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

from repro.config import FreshnessConfig
from repro.core.keys import CellKey

#: Freshness one access adds to a cell: the unit of the paper's "access
#: count".  Freshness is only compared with other freshness and with 0,
#: so its scale carries no behaviour.
F_INC = 1.0


class FreshnessTracker:
    """Applies freshness updates to cells of one node's graph.

    Updates are *batched*: both touch flavors hand the whole key list to
    :meth:`~repro.core.graph.StashGraph.touch_batch`, which applies the
    decay + increment as one vectorized column update per graph level
    instead of a Python loop over cells.  Scoring (:meth:`score`) stays a
    per-cell read for diagnostic callers; the eviction hot path scores the
    whole graph at once via :func:`repro.core.eviction.rank_victims`,
    which is bit-identical to this scalar form (both use ``np.exp``).
    """

    def __init__(self, config: FreshnessConfig):
        self.config = config
        if config.half_life <= 0:
            raise ValueError("half_life must be positive")
        self.decay_rate = math.log(2.0) / config.half_life

    def touch_cells(self, graph, keys: list[CellKey], now: float) -> int:
        """Direct access: full :data:`F_INC` to each present cell.

        Returns the number of cells actually touched (absent keys are
        skipped — only resident cells carry freshness).
        """
        return graph.touch_batch(keys, F_INC, now, self.decay_rate, count_access=True)

    def disperse_to_neighborhood(
        self, graph, ring_keys: list[CellKey], now: float
    ) -> int:
        """Neighborhood dispersion: fraction of :data:`F_INC` to ring cells."""
        amount = F_INC * self.config.dispersion_fraction
        return graph.touch_batch(ring_keys, amount, now, self.decay_rate)

    def score(self, cell, now: float) -> float:
        """Current decayed freshness of a cell (no mutation)."""
        return cell.decayed_freshness(now, self.decay_rate)


def query_ring(query) -> list[CellKey]:
    """The neighborhood ring of a query footprint, via box geometry.

    Because a query footprint is (rectangular spatial cover) x
    (contiguous temporal keys), its ring is the spatial perimeter ring
    crossed with the time keys, plus the cover crossed with the two
    adjacent time bins — O(perimeter + cover) instead of touching every
    cell's 10 lateral neighbors (the per-cell form is the reference in
    ``tests/reference.py``).
    """
    time_keys = query.time_keys()
    ring = [CellKey(g, t) for g in query.grid_cover().ring() for t in time_keys]
    before = time_keys[0].step(-1)
    after = time_keys[-1].step(1)
    ring.extend(CellKey(g, t) for g in query.box_cells() for t in (before, after))
    return ring
