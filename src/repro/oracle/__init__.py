"""Ground-truth oracle and conformance harness (docs/testing.md).

The rest of the repository optimizes the query path; this package checks
it.  :class:`~repro.oracle.engine.BruteForceOracle` recomputes any
:class:`~repro.query.model.AggregationQuery` answer directly from the raw
observations with deliberately naive scalar code — no graph, no PLM, no
DHT, no cache, and none of the vectorized kernels the production path
uses.  :mod:`repro.oracle.conformance` replays randomized exploration
workloads through the full simulated cluster under every configuration
axis and reports divergences; :mod:`repro.oracle.metamorphic` checks
result-level relations (parent = merge(children), pan overlap, split
additivity, eviction independence) that need no oracle at all;
:mod:`repro.oracle.explorer` is the seeded schedule explorer its
``explore-*`` rows run on.
"""

from repro.oracle.conformance import (
    CampaignReport,
    Divergence,
    compare_result,
    minimize_failing_query,
    run_campaign,
)
from repro.oracle.engine import BruteForceOracle, reference_merge
from repro.oracle.explorer import ExploringSimulator

__all__ = [
    "BruteForceOracle",
    "CampaignReport",
    "Divergence",
    "ExploringSimulator",
    "compare_result",
    "minimize_failing_query",
    "reference_merge",
    "run_campaign",
]
