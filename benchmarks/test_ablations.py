"""Ablation benches: what each STASH mechanism individually buys.

Not figures from the paper — these isolate the design choices DESIGN.md
calls out (roll-up reuse, freshness dispersion, reroute probability,
and the future-work client prefetch).
"""

from conftest import run_once

from repro.bench.ablations import (
    ablation_cache_capacity,
    ablation_cluster_scaling,
    ablation_dispersion,
    ablation_prefetch,
    ablation_reroute_probability,
    ablation_rollup,
)
from repro.bench.reporting import report


def test_ablation_rollup(benchmark, scale):
    result = run_once(benchmark, ablation_rollup, scale)
    report(result)
    latency = result.series["latency_s"]
    disk = result.series["disk_blocks"]
    # Roll-up answers the coarse query entirely from cached finer cells.
    assert disk["rollup_on"] == 0
    assert disk["rollup_off"] > 0
    assert latency["rollup_on"] < latency["rollup_off"] * 0.5
    assert result.series["rollup_cells"]["rollup_on"] > 0


def test_ablation_dispersion(benchmark, scale):
    result = run_once(benchmark, ablation_dispersion, scale)
    report(result)
    latency = result.series["pan_latency_s"]
    cached = result.series["cells_from_cache"]
    # Dispersion keeps the hot region's halo resident through churn.
    assert cached["dispersion_0.35"] > cached["dispersion_0"]
    assert latency["dispersion_0.35"] < latency["dispersion_0"]


def test_ablation_reroute_probability(benchmark, scale):
    result = run_once(benchmark, ablation_reroute_probability, scale)
    report(result)
    qps = result.series["throughput_qps"]
    # Any rerouting beats none under a hotspot.
    assert qps["p=0.5"] > qps["p=0.0"]
    assert qps["p=0.25"] > qps["p=0.0"]


def test_ablation_cache_capacity(benchmark, scale):
    result = run_once(benchmark, ablation_cache_capacity, scale)
    report(result)
    hit = result.series["hit_rate"]
    latency = result.series["mean_latency_s"]
    labels = list(hit)
    # Hit rate grows (weakly) and latency falls (weakly) with capacity.
    for smaller, bigger in zip(labels, labels[1:]):
        assert hit[bigger] >= hit[smaller] - 1e-9
        assert latency[bigger] <= latency[smaller] + 1e-9
    # The extremes differ substantially.
    assert hit[labels[-1]] > hit[labels[0]] * 2
    assert latency[labels[-1]] < latency[labels[0]] * 0.5


def test_ablation_cluster_scaling(benchmark, scale):
    result = run_once(benchmark, ablation_cluster_scaling, scale)
    report(result)
    stash = result.series["stash"]
    basic = result.series["basic"]
    # STASH wins at every cluster size, and more nodes never hurt much:
    # the largest cluster beats the smallest for both systems.
    for size in stash:
        assert stash[size] > basic[size], size
    assert stash["32 nodes"] > stash["4 nodes"]
    assert basic["32 nodes"] > basic["4 nodes"]


def test_ablation_prefetch(benchmark, scale):
    result = run_once(benchmark, ablation_prefetch, scale)
    report(result)
    latency = result.series["avg_pan_latency_s"]
    # Momentum prefetch makes straight-line pans near-instant.
    assert latency["prefetch_on"] < latency["prefetch_off"] * 0.5
