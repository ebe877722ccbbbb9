"""Workload generators reproducing the paper's experimental query mixes."""

from repro.workload.queries import (
    QUERY_SIZE_EXTENTS,
    QuerySize,
    random_query,
    random_box,
)
from repro.workload.navigation import (
    dicing_sequence,
    pan_cloud,
    pan_sequence,
    zoom_sequence,
)
from repro.workload.hotspot import hotspot_workload, zipf_region_workload
from repro.workload.scale import (
    ScaleWorkloadSpec,
    SessionTable,
    run_closed_loop,
)

__all__ = [
    "ScaleWorkloadSpec",
    "SessionTable",
    "run_closed_loop",
    "QUERY_SIZE_EXTENTS",
    "QuerySize",
    "random_query",
    "random_box",
    "dicing_sequence",
    "pan_cloud",
    "pan_sequence",
    "zoom_sequence",
    "hotspot_workload",
    "zipf_region_workload",
]
