"""Antipode helper-node selection (paper section VII-B-3).

"We look for a spatiotemporal region that is diametrically on the other
side of the total spatial scope of the storage cluster ... Using a
Clique's geohash, we find its geohash antipode and then use the DHT's
partitioner to identify the antipode node."  If the antipode node
declines, the hotspotted node probes "another geohash region in a random
direction around the antipode geohash".
"""

from __future__ import annotations

import numpy as np

from repro.dht.partitioner import Partitioner
from repro.geo import geohash as gh

#: Max random fallback probes around the antipode when the antipode
#: node declines a distress request.
MAX_CANDIDATE_PROBES = 8


def antipode_candidates(
    root_geohash: str,
    partitioner: Partitioner,
    exclude: str,
    rng: np.random.Generator,
    max_probes: int = MAX_CANDIDATE_PROBES,
) -> list[str]:
    """Ordered candidate helper nodes for a clique.

    First the antipode node itself, then nodes owning cells in random
    directions around the antipode, deduplicated, never including
    ``exclude`` (the hotspotted node).
    """
    anti = gh.antipode(root_geohash)
    candidates: list[str] = []
    seen: set[str] = set()

    def consider(code: str) -> None:
        node = partitioner.node_for(code)
        if node != exclude and node not in seen:
            seen.add(node)
            candidates.append(node)

    consider(anti)
    # Random-direction walk around the antipode: widening ring probes.
    for probe in range(max_probes):
        radius = probe // 8 + 1
        dlat = int(rng.integers(-radius, radius + 1))
        dlon = int(rng.integers(-radius, radius + 1))
        if dlat == 0 and dlon == 0:
            continue
        shifted = gh.shift(anti, dlat, dlon)
        if shifted is not None:
            consider(shifted)
    return candidates
