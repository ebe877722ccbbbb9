"""The fused scan is the per-block scan, bit for bit.

``scan_blocks`` concatenates a leg's blocks, filters and bins them once
and groups on (bin id, source block); ``SummaryFrame.merge_all`` folds
each cell's per-block rows.  These tests hold that to the composition it
replaced — every block filtered, binned and grouped on its own, the
per-block partials folded in block order
(``tests/reference.py::scan_blocks_per_block``) — on keys, key order,
``ScanStats`` and the *bytes* of every summary, not on ``approx_equal``.

docs/testing.md (Mutation check) records three ways of breaking the
kernel that this file must catch.
"""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.block import Block, BlockId
from repro.data.observation import ObservationBatch
from repro.data.statistics import SummaryFrame
from repro.errors import StatisticsError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey, TimeRange
from repro.query.model import AggregationQuery
from repro.storage import backend
from repro.storage.backend import ScanStats, scan_blocks
from tests.reference import scan_blocks_per_block, scan_blocks_reference
from tests.strategies import crowded_records, day_ranges, record_batches

FEBRUARY = TimeRange(
    TimeKey.of(2013, 2, 1).epoch_range().start,
    TimeKey.of(2013, 2, 4).epoch_range().end,
)


def cut(batch: ObservationBatch, cuts: list[int]) -> list[Block]:
    """Consecutive slices of ``batch`` as blocks; equal cuts give empty blocks."""
    edges = [0, *sorted(cuts), len(batch)]
    index = np.arange(len(batch))
    return [
        Block(
            block_id=BlockId(geohash="9w", day=f"2013-02-{1 + i % 28:02d}"),
            batch=batch.select(index[lo:hi]),
        )
        for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
    ]


def packed(cells: dict) -> list[tuple[str, str, bytes]]:
    """Every summary down to the bit, in cell order (``-0.0 != 0.0`` here)."""
    return [
        (str(key), name, struct.pack("<qdddd", *vector[name]))
        for key, vector in cells.items()
        for name in vector.attributes
    ]


def assert_fused_is_per_block(blocks: list[Block], query: AggregationQuery) -> dict:
    cells, stats = scan_blocks(blocks, query)
    expected = scan_blocks_per_block([block.batch for block in blocks], query)
    assert list(cells) == list(expected)
    assert packed(cells) == packed(expected)
    assert stats == ScanStats(
        blocks_read=len(blocks),
        bytes_read=sum(block.batch.nbytes for block in blocks),
        records_scanned=sum(len(block) for block in blocks),
    )
    return cells


@st.composite
def legs(draw):
    """A record set cut into 1-80 blocks and a query that clips it."""
    batch = draw(record_batches())
    blocks = draw(st.integers(1, 80))
    cuts = draw(
        st.lists(st.integers(0, len(batch)), min_size=blocks - 1, max_size=blocks - 1)
    )
    south = draw(st.floats(29.0, 33.0))
    west = draw(st.floats(-111.0, -105.0))
    time_range = draw(
        st.one_of(
            day_ranges(1, 4),
            st.builds(
                lambda start, hours: TimeRange(start, start + 3_600.0 * hours),
                st.floats(FEBRUARY.start, FEBRUARY.end - 86_400.0),
                st.floats(0.5, 30.0),
            ),
        )
    )
    query = AggregationQuery(
        bbox=BoundingBox(
            south,
            south + draw(st.floats(0.05, 5.0)),
            west,
            west + draw(st.floats(0.05, 7.0)),
        ),
        time_range=time_range,
        resolution=Resolution(
            draw(st.integers(2, 4)),
            draw(
                st.sampled_from(
                    [
                        TemporalResolution.MONTH,
                        TemporalResolution.DAY,
                        TemporalResolution.HOUR,
                    ]
                )
            ),
        ),
    )
    return cut(batch, cuts), query


def whole_region(precision: int, temporal: TemporalResolution) -> AggregationQuery:
    return AggregationQuery(
        bbox=BoundingBox(29.0, 35.0, -111.0, -103.0),
        time_range=FEBRUARY,
        resolution=Resolution(precision, temporal),
    )


class TestFusedScanIsPerBlockScan:
    @given(legs())
    @settings(max_examples=150, deadline=None)
    def test_same_cells_same_order_same_bytes(self, leg):
        blocks, query = leg
        assert_fused_is_per_block(blocks, query)

    @given(legs(), st.integers(1, 120))
    @settings(max_examples=60, deadline=None)
    def test_any_record_budget_gives_the_same_bytes(self, leg, budget):
        blocks, query = leg
        whole, _ = scan_blocks(blocks, query)
        with mock.patch.object(backend, "SCAN_RUN_RECORDS", budget):
            sizes = [len(block) for block in blocks]
            runs = list(backend._run_bounds(sizes))
            assert [start for start, _ in runs] == [0, *(stop for _, stop in runs)][:-1]
            assert runs[-1][1] == len(blocks)
            assert all(
                stop - start == 1 or sum(sizes[start:stop]) <= budget
                for start, stop in runs
            )
            assert_fused_is_per_block(blocks, query)
            chunked, _ = scan_blocks(blocks, query)
        assert packed(chunked) == packed(whole)

    def test_cell_spanning_many_blocks_is_folded_pairwise_not_chained(self):
        """64 blocks hold one month cell's records: from nine partials up
        ``reduceat`` sums pairwise, which a ``SummaryVector.merge`` chain
        (``scan_blocks_reference``) does not reproduce — the fused fold
        must."""
        batch = crowded_records(records=640, seed=3)
        blocks = cut(batch, list(range(10, 640, 10)))
        query = whole_region(2, TemporalResolution.MONTH)
        cells = assert_fused_is_per_block(blocks, query)
        assert len(blocks) == 64 and sum(v.count for v in cells.values()) == 640
        chained = scan_blocks_reference([block.batch for block in blocks], query)
        assert list(cells) == list(chained)
        assert all(cells[key].approx_equal(chained[key]) for key in cells)
        assert packed(cells) != packed(chained)

    @pytest.mark.parametrize("records_per_block", [1, 2])
    def test_one_and_two_record_blocks(self, records_per_block):
        batch = crowded_records(records=40, seed=5)
        blocks = cut(batch, list(range(records_per_block, 40, records_per_block)))
        for temporal in (TemporalResolution.MONTH, TemporalResolution.HOUR):
            assert_fused_is_per_block(blocks, whole_region(3, temporal))

    def test_empty_blocks_and_blocks_the_filter_empties(self):
        inside = crowded_records(records=30, seed=7)
        outside = ObservationBatch(
            lats=np.full(5, 50.0),
            lons=np.full(5, -80.0),
            epochs=np.full(5, FEBRUARY.start),
            attributes={"a": np.ones(5), "b": np.ones(5)},
        )
        empty = ObservationBatch.empty(("a", "b"))
        batches = [empty, inside, outside, empty, inside, outside]
        blocks = [
            Block(block_id=BlockId(geohash="9w", day=f"2013-02-0{i + 1}"), batch=b)
            for i, b in enumerate(batches)
        ]
        query = whole_region(3, TemporalResolution.DAY)
        cells = assert_fused_is_per_block(blocks, query)
        assert sum(vector.count for vector in cells.values()) == 60
        nothing, stats = scan_blocks([blocks[0], blocks[2]], query)
        assert nothing == {} and stats.blocks_read == 2 and stats.records_scanned == 5
        assert scan_blocks([], query) == ({}, ScanStats(0, 0, 0))

    def test_signed_zeros_and_duplicates_survive_bit_for_bit(self):
        n = 24
        batch = ObservationBatch(
            lats=np.full(n, 31.0),
            lons=np.full(n, -107.0),
            epochs=np.full(n, FEBRUARY.start + 10.0),
            attributes={
                "zeros": np.array([-0.0, 0.0] * (n // 2)),
                "negative_zeros": np.full(n, -0.0),
                "same": np.full(n, 0.1),
            },
        )
        for cuts in ([], [1], [12], list(range(1, n))):
            cells = assert_fused_is_per_block(
                cut(batch, cuts), whole_region(4, TemporalResolution.HOUR)
            )
            (vector,) = cells.values()
            assert np.signbit(vector["negative_zeros"].total)
            assert np.signbit(vector["negative_zeros"].maximum)

    def test_leg_just_below_and_just_above_the_record_budget(self):
        """At the shipped budget: 8 blocks of 8 192 records fill it exactly
        (one run); a ninth block tips the leg into a second run whose
        partial rows fold with the first's."""
        budget = backend.SCAN_RUN_RECORDS
        batch = crowded_records(records=budget + 64, seed=11)
        blocks = cut(batch, [*range(budget // 8, budget, budget // 8), budget])
        query = whole_region(2, TemporalResolution.DAY)
        below, above = blocks[:8], blocks
        assert list(backend._run_bounds([len(b) for b in below])) == [(0, 8)]
        assert list(backend._run_bounds([len(b) for b in above])) == [(0, 8), (8, 9)]
        assert_fused_is_per_block(below, query)
        assert_fused_is_per_block(above, query)

    def test_blocks_with_different_attributes_raise_statistics_error(self):
        first = crowded_records(records=10, seed=1)
        other = ObservationBatch(
            first.lats.copy(),
            first.lons.copy(),
            first.epochs.copy(),
            {"a": first.attributes["a"].copy(), "c": first.attributes["b"].copy()},
        )
        blocks = [
            Block(block_id=BlockId(geohash="9w", day="2013-02-01"), batch=first),
            Block(block_id=BlockId(geohash="9w", day="2013-02-02"), batch=other),
        ]
        query = whole_region(3, TemporalResolution.DAY)
        with pytest.raises(StatisticsError, match="different attributes"):
            scan_blocks(blocks, query)
        # Across two runs the mismatch surfaces in the fold instead.
        with mock.patch.object(backend, "SCAN_RUN_RECORDS", 10):
            with pytest.raises(StatisticsError, match="attribute mismatch"):
                scan_blocks(blocks, query)


class TestFrameKernel:
    """``partials`` + ``merge_all`` against ``from_groups`` per part +
    ``merge_all`` — the same composition through the public frame API."""

    @given(
        record_batches(max_records=200),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_partials_fold_to_the_per_part_frames_merged(self, batch, parts, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 6, len(batch)).astype(np.uint64)
        part_of = np.sort(rng.integers(0, parts, len(batch)))
        fused = SummaryFrame.partials(ids, batch.attributes, part_of)
        per_part = [
            SummaryFrame.from_groups(
                ids[part_of == part],
                {name: v[part_of == part] for name, v in batch.attributes.items()},
            )
            for part in range(parts)
        ]
        stacked = np.concatenate([frame.ids for frame in per_part])
        assert len(fused) == stacked.size and (np.sort(stacked) == fused.ids).all()
        folded = SummaryFrame.merge_all([fused])
        composed = SummaryFrame.merge_all(per_part)
        assert folded.ids.tobytes() == composed.ids.tobytes()
        assert folded.counts.tobytes() == composed.counts.tobytes()
        for name in batch.attributes:
            for got, want in zip(folded.columns[name], composed.columns[name]):
                assert got.tobytes() == want.tobytes()

    def test_a_frame_without_repeated_ids_merges_to_itself(self):
        frame = SummaryFrame.from_groups(
            np.array([3, 1, 3, 2], dtype=np.uint64), {"x": np.arange(4.0)}
        )
        assert SummaryFrame.merge_all([frame]) is frame

    def test_empty_frames_merge_to_an_empty_frame(self):
        empty = SummaryFrame.from_groups(
            np.array([], dtype=np.uint64), {"x": np.array([])}
        )
        merged = SummaryFrame.merge_all([empty, empty])
        assert len(merged) == 0 and merged.attributes == ["x"]
        assert merged.materialize() == {}
