"""Micro-benchmarks of the numerical hot kernels.

Not paper figures — these track the wall-clock performance of the
vectorized inner loops that make the simulation feasible at scale
(DESIGN.md section 8 / the HPC guides: vectorize the per-record work,
profile the rest).  Each benchmark sanity-checks the kernel's output;
bitwise equivalence with the reference implementations is pinned in
tier-1 (``tests/reference.py`` and the suites that import it).
"""

import pytest

from repro.data.generator import DatasetSpec, SyntheticNAMGenerator
from repro.data.statistics import grouped_summaries
from repro.geo.geohash import encode, encode_many
from repro.geo.temporal import TemporalResolution, bin_epochs
from repro.storage.backend import scan_blocks
from repro.data.block import partition_into_blocks


@pytest.fixture(scope="module")
def batch():
    spec = DatasetSpec(num_records=100_000, start_day=(2013, 2, 1), num_days=2)
    return SyntheticNAMGenerator(spec).generate()


def test_encode_many_100k(benchmark, batch):
    out = benchmark(encode_many, batch.lats, batch.lons, 6)
    assert out.shape == (len(batch),)
    # Spot-check against the scalar encoder.
    for i in (0, 1_000, 99_999):
        assert str(out[i]) == encode(batch.lats[i], batch.lons[i], 6)


def test_bin_epochs_100k(benchmark, batch):
    out = benchmark(bin_epochs, batch.epochs, TemporalResolution.HOUR)
    assert out.shape == (len(batch),)
    assert str(out[0]).count("-") == 3  # YYYY-MM-DD-hh


def test_grouped_summaries_100k(benchmark, batch):
    keys = batch.bin_ids(4, TemporalResolution.DAY)

    result = benchmark(grouped_summaries, keys, batch.attributes)
    total = sum(vec.count for vec in result.values())
    assert total == len(batch)


def test_columnar_bin_summarize_100k(benchmark, batch):
    """The full columnar scan pipeline: integer binning + SummaryFrame.

    Times bin->summarize end to end (encoding included) — the honest
    form of the scan kernel; materialization is deliberately excluded
    because the pipeline defers it to the query/response boundary.
    """
    from repro.data.statistics import SummaryFrame

    frame = benchmark(
        lambda: SummaryFrame.from_groups(
            batch.bin_ids(4, TemporalResolution.DAY), batch.attributes
        )
    )
    assert int(frame.counts.sum()) == len(batch)


def test_partition_into_blocks_100k(benchmark, batch):
    blocks = benchmark(partition_into_blocks, batch, 3)
    assert sum(len(b) for b in blocks.values()) == len(batch)


@pytest.fixture(scope="module")
def bench_graph():
    from repro.bench.kernels import build_bench_graph

    return build_bench_graph(20_000, seed=42)


def test_eviction_scoring_vectorized_20k(benchmark, bench_graph):
    from repro.core.eviction import rank_victims

    graph, tracker, _keys, now = bench_graph
    excess = len(graph) // 5

    victims = benchmark(rank_victims, graph, tracker.decay_rate, now, excess)
    assert len(victims) == excess


def test_touch_batch_512_of_20k(benchmark, bench_graph):
    graph, tracker, keys, now = bench_graph
    footprint = keys[:512]

    touched = benchmark(
        graph.touch_batch,
        footprint,
        tracker.config.f_inc,
        now,
        tracker.decay_rate,
        True,
    )
    assert touched == len(footprint)


def test_plan_query_512_of_20k(benchmark, bench_graph):
    from repro.core.planner import plan_query

    graph, _tracker, keys, _now = bench_graph
    footprint = keys[:512]

    plan = benchmark(plan_query, graph, footprint, ["temperature"])
    assert len(plan.found) == len(footprint)


def test_scan_kernel_one_query(benchmark, batch):
    from repro.geo.bbox import BoundingBox
    from repro.geo.resolution import Resolution
    from repro.geo.temporal import TimeKey
    from repro.query.model import AggregationQuery

    blocks = list(partition_into_blocks(batch, 3).values())
    query = AggregationQuery(
        bbox=BoundingBox(25, 50, -130, -70),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(4, TemporalResolution.DAY),
    )
    relevant = [
        b for b in blocks
        if b.block_id.day == "2013-02-02"
    ]

    cells, stats = benchmark(scan_blocks, relevant, query)
    assert stats.records_scanned == sum(len(b) for b in relevant)
    assert cells
