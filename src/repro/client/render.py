"""Response rendering: JSON bodies and ASCII heatmaps.

The JSON form is what a Grafana-style panel would consume (paper VI-A);
the ASCII heatmap gives the examples a human-visible rendering of the
"set of pixel-level aggregations" without any plotting dependency.
"""

from __future__ import annotations

import json

from repro.errors import QueryError
from repro.geo.cover import covering_cells
from repro.geo.geohash import bbox as geohash_bbox
from repro.query.model import QueryResult

#: Shade ramp from sparse/low to dense/high.
SHADES = " .:-=+*#%@"


def render_json(result: QueryResult, indent: int | None = None) -> str:
    """Serialize a query result the way the backend answers the UI."""
    return json.dumps(result.to_json_dict(), indent=indent, sort_keys=True)


def render_ascii_heatmap(
    result: QueryResult,
    attribute: str,
    statistic: str = "mean",
    max_width: int = 72,
) -> str:
    """Draw the spatial distribution of one attribute as ASCII art.

    Cells across all temporal bins of the result are merged per spatial
    geohash; the grid is the query's spatial cover, one character per
    cell, shaded by the chosen statistic.
    """
    query = result.query
    spatial_cells = covering_cells(query.snapped_bbox(), query.resolution.spatial)
    if not spatial_cells:
        raise QueryError("query has no spatial cover")

    # Merge temporal bins per geohash.
    by_geohash: dict[str, list] = {}
    for key, vec in result.cells.items():
        by_geohash.setdefault(key.geohash, []).append(vec)

    values: dict[str, float] = {}
    for geohash, vecs in by_geohash.items():
        merged = vecs[0]
        for vec in vecs[1:]:
            merged = merged.merge(vec)
        summary = merged[attribute]
        if summary.is_empty:
            continue
        if statistic == "mean":
            values[geohash] = summary.mean
        elif statistic == "max":
            values[geohash] = summary.maximum
        elif statistic == "min":
            values[geohash] = summary.minimum
        elif statistic == "count":
            values[geohash] = float(summary.count)
        else:
            raise QueryError(f"unknown statistic {statistic!r}")

    # Grid dimensions from the row-major cover.
    souths = sorted({round(geohash_bbox(c).south, 9) for c in spatial_cells})
    nrows = len(souths)
    ncols = len(spatial_cells) // nrows

    lo = min(values.values(), default=0.0)
    hi = max(values.values(), default=1.0)
    span = (hi - lo) or 1.0

    # covering_cells is south-to-north rows; render north at the top.
    lines = []
    for row in range(nrows - 1, -1, -1):
        chars = []
        step = max(1, ncols // max_width)
        for col in range(0, ncols, step):
            geohash = spatial_cells[row * ncols + col]
            value = values.get(geohash)
            if value is None:
                chars.append(" ")
            else:
                shade = int((value - lo) / span * (len(SHADES) - 1))
                chars.append(SHADES[shade])
        lines.append("".join(chars))
    header = (
        f"{attribute} ({statistic})  "
        f"lo={lo:.2f} hi={hi:.2f}  {nrows}x{ncols} cells"
    )
    return "\n".join([header] + lines)
