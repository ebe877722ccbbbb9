"""Storage blocks: the on-disk unit of the Galileo-like backend.

Galileo partitions data into blocks by geohash so geospatially proximate
points are colocated; "the granularity of the coverage of a data block is
determined by the length of geohash code managed by the nodes" (paper
section VI-C).  We partition on (geohash prefix, calendar day): each block
holds every observation whose position falls in one coarse geohash cell on
one day.  The paper's deployment used 2-character prefixes.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from repro.data.observation import ObservationBatch
from repro.errors import StorageError
from repro.geo.binning import decode_bin_ids
from repro.geo.geohash import bbox as geohash_bbox
from repro.geo.temporal import TemporalResolution, TimeKey


class BlockId(namedtuple("BlockId", "geohash day")):
    """Identity of one storage block: coarse geohash cell + day (the
    :class:`TimeKey` string form, e.g. '2013-02-02'); a tuple, so it
    hashes, compares and orders in C."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.geohash}@{self.day}"

    @property
    def time_key(self) -> TimeKey:
        return TimeKey.parse(self.day)


@dataclass(frozen=True)
class Block:
    """One immutable storage block."""

    block_id: BlockId
    batch: ObservationBatch

    def __len__(self) -> int:
        return len(self.batch)

    @functools.cached_property
    def nbytes(self) -> int:
        """Raw byte size driving simulated disk-read cost (the batch is
        immutable, so its arrays are summed once per block)."""
        return self.batch.nbytes

    def validate(self) -> None:
        """Check every record belongs to this block's cell and day.

        Used by tests and by the backend's ingest assertions; O(n) numpy
        work, never called on the query path.
        """
        if len(self.batch) == 0:
            return
        box = geohash_bbox(self.block_id.geohash)
        if not (
            bool((self.batch.lats >= box.south).all())
            and bool((self.batch.lats < box.north).all())
            and bool((self.batch.lons >= box.west).all())
            and bool((self.batch.lons < box.east).all())
        ):
            raise StorageError(f"records outside cell in block {self.block_id}")
        day_range = self.block_id.time_key.epoch_range()
        if not (
            bool((self.batch.epochs >= day_range.start).all())
            and bool((self.batch.epochs < day_range.end).all())
        ):
            raise StorageError(f"records outside day in block {self.block_id}")


def block_runs(
    batch: ObservationBatch, partition_precision: int
) -> tuple[np.ndarray, list[tuple[BlockId, int, int]]]:
    """Group a batch's records by (geohash prefix, day) block, vectorized.

    One grouped pass: compute per-record partition bin ids (packed
    uint64, see :mod:`repro.geo.binning`) and sort them once.  Returns
    the stable sort ``order`` and, per block, ``(block_id, start, end)``:
    the block's records are ``order[start:end]``, in batch order.  Bin
    ids sort exactly like composite ``'<prefix>@<day>'`` labels
    (ASCII-ascending alphabet, chronological day codes), so blocks come
    out in (geohash, day) order.  Each distinct day is rendered once.
    """
    if partition_precision < 1:
        raise StorageError("partition_precision must be >= 1")
    n = len(batch)
    if n == 0:
        return np.empty(0, dtype=np.intp), []
    ids = batch.bin_ids(partition_precision, TemporalResolution.DAY)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_ids[1:] != sorted_ids[:-1]
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], n)
    pairs = decode_bin_ids(
        sorted_ids[starts], partition_precision, TemporalResolution.DAY
    )
    day_of: dict[TimeKey, str] = {}
    runs = []
    for (geohash, key), start, end in zip(pairs, starts.tolist(), ends.tolist()):
        day = day_of.get(key)
        if day is None:
            day = day_of[key] = str(key)
        runs.append((BlockId(geohash, day), start, end))
    return order, runs


def partition_into_blocks(
    batch: ObservationBatch, partition_precision: int
) -> dict[BlockId, Block]:
    """Split a batch into (geohash prefix, day) blocks (:func:`block_runs`),
    each holding its own copy of its records."""
    order, runs = block_runs(batch, partition_precision)
    return {
        block_id: Block(block_id=block_id, batch=batch.select(order[start:end]))
        for block_id, start, end in runs
    }
