"""Skewed workloads for the autoscaling experiments (paper section VIII-E).

:func:`hotspot_workload` is the Fig. 6d mix: many county-level requests
panning around a single random starting point — "the hotspot scenario of
sudden interest over a single region from multiple users".
:func:`zipf_region_workload` generalizes to a Zipf-distributed popularity
over several regions (the access-skew model the paper cites via Zipf's
law in section V-A).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.geo.bbox import BoundingBox
from repro.query.model import AggregationQuery
from repro.workload.navigation import COMPASS
from repro.workload.queries import QuerySize, random_query


def hotspot_workload(
    rng: np.random.Generator,
    domain: BoundingBox,
    num_requests: int,
    size: QuerySize = QuerySize.COUNTY,
    pan_fraction: float = 0.1,
) -> list[AggregationQuery]:
    """County-level requests panning around one random starting point."""
    if num_requests < 1:
        raise WorkloadError("num_requests must be >= 1")
    base = random_query(rng, size, domain)
    out = [base]
    query = base
    for _ in range(num_requests - 1):
        dlat_sign, dlon_sign = COMPASS[int(rng.integers(0, 8))]
        query = query.panned(
            dlat_sign * pan_fraction * query.bbox.height,
            dlon_sign * pan_fraction * query.bbox.width,
        )
        out.append(query)
    return out


def zipf_region_workload(
    rng: np.random.Generator,
    domain: BoundingBox,
    num_requests: int,
    num_regions: int = 10,
    zipf_s: float = 1.2,
    size: QuerySize = QuerySize.COUNTY,
    pan_fraction: float = 0.1,
) -> list[AggregationQuery]:
    """Requests spread over regions with Zipf-distributed popularity.

    Region ranks follow ``P(k) ~ 1/k^s``; within a region each request is
    a small pan off the region's base rectangle (temporal locality).
    """
    if num_regions < 1:
        raise WorkloadError("num_regions must be >= 1")
    if zipf_s <= 0:
        raise WorkloadError("zipf_s must be positive")
    bases = [random_query(rng, size, domain) for _ in range(num_regions)]
    weights = 1.0 / np.power(np.arange(1, num_regions + 1, dtype=float), zipf_s)
    weights /= weights.sum()
    picks = rng.choice(num_regions, size=num_requests, p=weights)
    out: list[AggregationQuery] = []
    for region in picks:
        base = bases[int(region)]
        dlat_sign, dlon_sign = COMPASS[int(rng.integers(0, 8))]
        jitter = float(rng.uniform(0, pan_fraction))
        out.append(
            base.panned(
                dlat_sign * jitter * base.bbox.height,
                dlon_sign * jitter * base.bbox.width,
            )
        )
    return out
