"""Tests for block partitioning."""

import pytest

from repro.data.block import Block, BlockId, partition_into_blocks
from repro.data.generator import small_test_dataset
from repro.data.observation import ObservationBatch
from repro.errors import StorageError


@pytest.fixture(scope="module")
def batch():
    return small_test_dataset(num_records=3_000)


class TestBlockId:
    def test_str(self):
        bid = BlockId(geohash="9x", day="2013-02-02")
        assert str(bid) == "9x@2013-02-02"
        assert str(bid.time_key) == "2013-02-02"

    def test_ordering(self):
        a = BlockId("9x", "2013-02-01")
        b = BlockId("9x", "2013-02-02")
        assert a < b


class TestPartitioning:
    def test_partition_covers_all_records(self, batch):
        blocks = partition_into_blocks(batch, 2)
        assert sum(len(b) for b in blocks.values()) == len(batch)

    def test_blocks_validate(self, batch):
        blocks = partition_into_blocks(batch, 2)
        for block in blocks.values():
            block.validate()

    def test_block_ids_match_content(self, batch):
        blocks = partition_into_blocks(batch, 2)
        for bid, block in blocks.items():
            assert block.block_id == bid
            assert len(bid.geohash) == 2

    def test_partition_empty(self):
        assert partition_into_blocks(ObservationBatch.empty(), 2) == {}

    def test_partition_bad_precision(self, batch):
        with pytest.raises(StorageError):
            partition_into_blocks(batch, 0)

    def test_multiple_days_split(self, batch):
        blocks = partition_into_blocks(batch, 1)
        days = {bid.day for bid in blocks}
        assert len(days) > 1

    def test_validate_detects_wrong_cell(self, batch):
        blocks = partition_into_blocks(batch, 2)
        bid, block = next(iter(blocks.items()))
        other_bid = BlockId(geohash="zz", day=bid.day)
        bad = Block(block_id=other_bid, batch=block.batch)
        with pytest.raises(StorageError):
            bad.validate()

    def test_validate_detects_wrong_day(self, batch):
        blocks = partition_into_blocks(batch, 2)
        bid, block = next(iter(blocks.items()))
        bad = Block(
            block_id=BlockId(geohash=bid.geohash, day="2019-01-01"),
            batch=block.batch,
        )
        with pytest.raises(StorageError):
            bad.validate()

    def test_nbytes(self, batch):
        blocks = partition_into_blocks(batch, 2)
        total = sum(b.nbytes for b in blocks.values())
        assert total == batch.nbytes
