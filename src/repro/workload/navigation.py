"""Visual-navigation query sequences (paper sections VIII-C/D).

Each generator reproduces one of the paper's user-action simulations:

* :func:`pan_sequence` — a starting rectangle moved by a fraction of its
  extent in each of the 8 compass directions (Fig. 7c / 8a);
* :func:`dicing_sequence` — iterative dicing, shrinking (descending) or
  growing (ascending) the query area by 20 % per step (Fig. 7a/b, 8b/c);
* :func:`zoom_sequence` — drill-down / roll-up across spatial
  resolutions over a fixed area (Fig. 7d/e);
* :func:`pan_cloud` — the throughput mix: N random rectangles, each
  panned around repeatedly in random directions (Fig. 6b).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.query.model import AggregationQuery
from repro.workload.queries import QuerySize, random_box

#: The 8 compass directions as (dlat sign, dlon sign).
COMPASS = [
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
]


def pan_sequence(
    base: AggregationQuery, fraction: float, directions: int = 8
) -> list[AggregationQuery]:
    """Base query plus one pan of ``fraction`` in each compass direction."""
    if not 0.0 < fraction <= 1.0:
        raise WorkloadError(f"pan fraction must be in (0, 1], got {fraction}")
    if not 1 <= directions <= 8:
        raise WorkloadError("directions must be in [1, 8]")
    out = [base]
    for dlat_sign, dlon_sign in COMPASS[:directions]:
        out.append(
            base.panned(
                dlat_sign * fraction * base.bbox.height,
                dlon_sign * fraction * base.bbox.width,
            )
        )
    return out


def dicing_sequence(
    base: AggregationQuery,
    steps: int = 5,
    shrink_factor: float = 0.8,
    ascending: bool = False,
) -> list[AggregationQuery]:
    """Iterative dicing: ``steps`` queries shrinking the area by
    ``1 - shrink_factor`` per step (descending), or the same sequence in
    reverse (ascending).  The paper starts at country level and shrinks
    by 20 % per step (final area ~(5.2, 10.4) degrees after 5 steps).
    """
    if steps < 1:
        raise WorkloadError("steps must be >= 1")
    if not 0.0 < shrink_factor < 1.0:
        raise WorkloadError("shrink_factor must be in (0, 1)")
    descending = [base]
    query = base
    for _ in range(steps - 1):
        query = query.diced(shrink_factor)
        descending.append(query)
    return descending[::-1] if ascending else descending


def zoom_sequence(
    base: AggregationQuery,
    from_spatial: int,
    to_spatial: int,
) -> list[AggregationQuery]:
    """Drill-down (from < to) or roll-up (from > to) over a fixed area."""
    if from_spatial == to_spatial:
        raise WorkloadError("zoom needs distinct start and end resolutions")
    step = 1 if to_spatial > from_spatial else -1
    out = []
    for precision in range(from_spatial, to_spatial + step, step):
        out.append(
            base.at_resolution(
                Resolution(precision, base.resolution.temporal)
            )
        )
    return out


def pan_cloud(
    rng: np.random.Generator,
    size: QuerySize,
    domain: BoundingBox,
    num_centers: int,
    pans_per_center: int,
    pan_fraction: float = 0.1,
) -> list[AggregationQuery]:
    """The Fig. 6b throughput workload.

    ``num_centers`` random rectangles, each panned ``pans_per_center``
    times by ``pan_fraction`` in a random direction — "to replicate
    spatiotemporal locality of requests".  The paper used 100 x 100;
    benchmarks scale this down (see DESIGN.md).
    """
    from repro.workload.queries import random_query

    out: list[AggregationQuery] = []
    for _ in range(num_centers):
        box = random_box(rng, size, domain)
        q = random_query(rng, size, domain)
        query = AggregationQuery(
            bbox=box, time_range=q.time_range, resolution=q.resolution
        )
        out.append(query)
        for _ in range(pans_per_center - 1):
            dlat_sign, dlon_sign = COMPASS[int(rng.integers(0, 8))]
            query = query.panned(
                dlat_sign * pan_fraction * query.bbox.height,
                dlon_sign * pan_fraction * query.bbox.width,
            )
            out.append(query)
    return out
