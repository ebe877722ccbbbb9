"""Cell replacement: evict lowest-freshness cells past the threshold.

"STASH Cell replacement involves evicting the Cells with the lowest
freshness score till the capacity goes below a safe limit" (paper V-C-2).
Combined with freshness dispersion, whole hot regions survive eviction
as connected areas.

Victim selection is vectorized: the graph's per-level freshness columns
are scored with one ``exp`` over a dense array (:func:`rank_victims`),
then only the boundary candidates pay the ``str(key)`` tie-break.  The
per-cell ranking it replaced lives on as the reference in
``tests/reference.py``; ``tests/core/test_vectorized_freshness.py``
pins the two to the same victim list.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.config import EvictionConfig
from repro.core.freshness import FreshnessTracker
from repro.core.graph import StashGraph
from repro.core.keys import CellKey
from repro.errors import CacheError


def rank_victims(
    graph: StashGraph, decay_rate: float, now: float, excess: int
) -> list[CellKey]:
    """The ``excess`` stalest cells, ordered by (decayed score, str(key)).

    Vectorized equivalent of ranking every cell by
    ``(tracker.score(cell, now), str(cell.key))`` and taking the first
    ``excess``: scores are computed columnwise, a partition finds the
    cut-off score, and only ties at the cut-off are broken by key string.
    """
    if excess <= 0:
        return []
    levels = list(graph.freshness_columns())
    if not levels:
        return []
    parts = []
    offsets = [0]
    for columns in levels:
        size = columns.size
        freshness = columns.freshness[:size]
        elapsed = np.maximum(0.0, now - columns.last_touch[:size])
        parts.append(freshness * np.exp(-decay_rate * elapsed))
        offsets.append(offsets[-1] + size)
    scores = parts[0] if len(parts) == 1 else np.concatenate(parts)
    total = scores.shape[0]
    excess = min(excess, total)

    def key_at(index: int) -> CellKey:
        level_index = bisect_right(offsets, index) - 1
        return levels[level_index].keys[index - offsets[level_index]]

    if excess == total:
        chosen = np.arange(total)
    else:
        cutoff = np.partition(scores, excess - 1)[excess - 1]
        below = np.flatnonzero(scores < cutoff)
        need = excess - below.shape[0]
        at_cutoff = np.flatnonzero(scores == cutoff)
        if need < at_cutoff.shape[0]:
            # Break score ties by the (score, str(key)) total order:
            # ascending key string.
            tied = sorted(at_cutoff.tolist(), key=lambda i: str(key_at(i)))[:need]
        else:
            tied = at_cutoff.tolist()
        chosen = np.concatenate([below, np.asarray(tied, dtype=np.intp)])
    ranked = sorted(
        ((float(scores[i]), str(key_at(i)), key_at(i)) for i in chosen.tolist()),
        key=lambda item: (item[0], item[1]),
    )
    return [key for _, _, key in ranked]


class EvictionPolicy:
    """Threshold/safe-limit eviction by decayed freshness."""

    def __init__(self, config: EvictionConfig):
        if config.max_cells < 1:
            raise CacheError("max_cells must be >= 1")
        if not 0.0 < config.safe_fraction <= 1.0:
            raise CacheError("safe_fraction must be in (0, 1]")
        self.config = config
        self.evictions = 0

    @property
    def safe_limit(self) -> int:
        return max(1, int(self.config.max_cells * self.config.safe_fraction))

    def over_threshold(self, graph: StashGraph) -> bool:
        return len(graph) > self.config.max_cells

    def enforce(
        self, graph: StashGraph, tracker: FreshnessTracker, now: float
    ) -> list[CellKey]:
        """Evict until at or below the safe limit; returns evicted keys.

        No-op when the graph is under the hard threshold.  Eviction order
        is ascending decayed freshness with deterministic key tie-break.
        """
        if not self.over_threshold(graph):
            return []
        excess = len(graph) - self.safe_limit
        victims = rank_victims(graph, tracker.decay_rate, now, excess)
        for key in victims:
            graph.remove(key)
        self.evictions += len(victims)
        return victims
