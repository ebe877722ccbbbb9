"""Storage catalog and the raw-scan aggregation kernel.

:class:`StorageCatalog` is the cluster's on-disk state: every block,
placed on its owning node by the DHT partitioner.  :func:`scan_blocks`
is the Galileo-side aggregation kernel — the expensive code path STASH
exists to avoid — and :func:`ground_truth_cells` is the single-threaded
oracle used throughout the test suite for result verification.
"""

from __future__ import annotations

import bisect
import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.keys import CellKey
from repro.data.block import Block, BlockId, block_runs
from repro.data.observation import ObservationBatch
from repro.data.statistics import SummaryFrame, SummaryVector
from repro.dht.partitioner import Partitioner
from repro.errors import StorageError
from repro.geo.binning import decode_bin_ids
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery

#: Records one fused scan pass, or one ingest's gather, holds at once.  A
#: leg with more is cut into consecutive block runs (:func:`scan_blocks`),
#: which bounds the concatenated transient (~150 bytes a record across the
#: seven rows, their filtered copy, the ids and the sort: ~10 MB) without
#: a setting to tune — the answer does not depend on where the cuts fall;
#: :meth:`StorageCatalog.ingest` gathers a large batch run by run alike.
SCAN_RUN_RECORDS = 1 << 16


@dataclass(frozen=True)
class ScanStats:
    """Cost drivers of one scan: what the simulation charges time for."""

    blocks_read: int
    bytes_read: int
    records_scanned: int


@functools.lru_cache(maxsize=1024)
def _day_labels(time_key: TimeKey) -> tuple[str, ...]:
    """Labels of the days whose blocks back a time key (``BlockId.day``).

    A pure function of the key, memoized because a footprint's dozens of
    cells share one to three time keys and every one of them asks.
    """
    resolution = time_key.resolution
    if resolution == TemporalResolution.HOUR:
        days = [time_key.parent()]
    elif resolution == TemporalResolution.DAY:
        days = [time_key]
    elif resolution == TemporalResolution.MONTH:
        days = time_key.children()
    else:  # YEAR
        days = [day for month in time_key.children() for day in month.children()]
    return tuple(str(day) for day in days)


class StorageCatalog:
    """All blocks in the cluster, placed by the partitioner.

    Blocks are (geohash, day) files at ``block_precision``; ownership is
    decided by the coarser DHT partition prefix of the block's geohash
    (Galileo's "many block files per node partition" layout).
    """

    def __init__(self, partitioner: Partitioner, block_precision: int | None = None):
        self.partitioner = partitioner
        if block_precision is None:
            block_precision = partitioner.partition_precision
        if block_precision < partitioner.partition_precision:
            raise StorageError(
                "block_precision must be >= the DHT partition precision"
            )
        self.block_precision = block_precision
        #: node id -> {block id -> block}
        self._by_node: dict[str, dict[BlockId, Block]] = {
            node: {} for node in partitioner.node_ids
        }
        self._block_index: dict[BlockId, str] = {}
        #: day -> sorted list of block geohashes (prefix range queries).
        self._day_index: dict[str, list[str]] = {}
        #: The attribute rows every block holds, in order; fixed by the
        #: first ingest.
        self._names: tuple[str, ...] | None = None
        #: Bumped by every ingest that places a record: an answer computed
        #: at an older generation may predate data the catalog now holds.
        self.generation = 0

    # -- ingest ------------------------------------------------------------

    def ingest(self, batch: ObservationBatch) -> list[BlockId]:
        """Partition a batch into blocks and place them.

        Re-ingesting data for an existing (geohash, day) block merges the
        batches (streaming append).  Returns the ids of every block
        created *or modified* — the set a caching layer must invalidate
        (paper IV-D: the PLM tracks up-to-date cells across updates).

        A batch whose attribute names differ from the catalog's is
        refused with :class:`~repro.errors.StorageError` before anything
        is placed: one block with another schema would fail every later
        scan that merges it, and a mismatch found half-way through the
        loop would leave blocks a caching layer was never told about.
        """
        known = self._names
        if len(batch) and known is not None and sorted(known) != batch.attribute_names:
            raise StorageError(
                f"batch attributes {batch.attribute_names} do not match the "
                f"catalog's {sorted(known)}"
            )
        order, runs = block_runs(batch, self.block_precision)
        if not runs:
            return []
        names = self._names = batch.names if known is None else known
        columns = batch.rows_in(names)
        self.generation += 1
        touched: list[BlockId] = []
        sizes = [end - start for _, start, end in runs]
        for first, last in _run_bounds(sizes):
            # The chunk's records in block order: one gather, then one
            # copy or concatenate per block.  Only bounded chunks are
            # gathered (a set-up ingest is the whole dataset), and no block
            # keeps a view of the gather.
            offset = runs[first][1]
            gathered = np.take(columns, order[offset : runs[last - 1][2]], axis=1)
            for block_id, start, end in runs[first:last]:
                records = gathered[:, start - offset : end - offset]
                node = self.partitioner.node_for(block_id.geohash)
                existing = self._by_node[node].get(block_id)
                if existing is not None:
                    records = np.concatenate(
                        (existing.batch.columns, records), axis=1
                    )
                else:
                    records = records.copy()
                    day_list = self._day_index.setdefault(block_id.day, [])
                    bisect.insort(day_list, block_id.geohash)
                block = Block(
                    block_id=block_id,
                    batch=ObservationBatch.from_columns(records, names),
                )
                self._by_node[node][block_id] = block
                self._block_index[block_id] = node
                touched.append(block_id)
        return sorted(touched)

    # -- lookup ------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self._block_index)

    @property
    def total_records(self) -> int:
        return sum(
            len(b) for blocks in self._by_node.values() for b in blocks.values()
        )

    def node_of(self, block_id: BlockId) -> str:
        try:
            return self._block_index[block_id]
        except KeyError:
            raise StorageError(f"unknown block {block_id}") from None

    def blocks_on(self, node_id: str) -> dict[BlockId, Block]:
        try:
            return self._by_node[node_id]
        except KeyError:
            raise StorageError(f"unknown node {node_id!r}") from None

    def get_block(self, block_id: BlockId) -> Block | None:
        node = self._block_index.get(block_id)
        return None if node is None else self._by_node[node][block_id]

    def blocks_for_query(self, query: AggregationQuery) -> list[BlockId]:
        """Existing blocks whose extent overlaps the (snapped) query."""
        from repro.geo.cover import covering_cells

        prefixes = set(
            covering_cells(query.snapped_bbox(), self.block_precision)
        )
        out: list[BlockId] = []
        for key in query.snapped_time_range().covering_keys(TemporalResolution.DAY):
            day = str(key)
            for geohash in self._day_index.get(day, ()):
                if geohash in prefixes:
                    out.append(BlockId(geohash=geohash, day=day))
        return sorted(out)

    def blocks_for_cell(self, key) -> list[BlockId]:
        """Existing blocks backing one cell (the PLM's block set).

        A cell finer than the block precision lives in exactly one block
        per covered day; a coarser cell spans every existing block whose
        geohash extends the cell's (found via a prefix range scan on the
        per-day index).
        """
        out: list[BlockId] = []
        geohash = key.geohash
        for day in _day_labels(key.time_key):
            day_list = self._day_index.get(day)
            if not day_list:
                continue
            if len(geohash) >= self.block_precision:
                prefix = geohash[: self.block_precision]
                index = bisect.bisect_left(day_list, prefix)
                if index < len(day_list) and day_list[index] == prefix:
                    out.append(BlockId(geohash=prefix, day=day))
            else:
                start = bisect.bisect_left(day_list, geohash)
                for candidate in day_list[start:]:
                    if not candidate.startswith(geohash):
                        break
                    out.append(BlockId(geohash=candidate, day=day))
        return out

    def blocks_by_node(self, block_ids: list[BlockId]) -> dict[str, list[BlockId]]:
        """Group block ids by owning node (the scatter plan)."""
        plan: dict[str, list[BlockId]] = {}
        for block_id in block_ids:
            plan.setdefault(self.node_of(block_id), []).append(block_id)
        return plan


def frame_to_cells(
    frame: SummaryFrame, resolution: Resolution
) -> dict[CellKey, SummaryVector]:
    """Materialize a frame of packed bin ids into per-cell summary vectors."""
    pairs = decode_bin_ids(frame.ids, resolution.spatial, resolution.temporal)
    return {
        CellKey(geohash=gh, time_key=key): vector
        for (gh, key), vector in zip(pairs, frame.vectors())
    }


def _in_snapped_extent(batch: ObservationBatch, query: AggregationQuery) -> np.ndarray:
    """Mask of the records inside the query's snapped box and time range
    (closed-open on every axis)."""
    box = query.snapped_bbox()
    time_range = query.snapped_time_range()
    return (
        (batch.lats >= box.south)
        & (batch.lats < box.north)
        & (batch.lons >= box.west)
        & (batch.lons < box.east)
        & (batch.epochs >= time_range.start)
        & (batch.epochs < time_range.end)
    )


def _run_bounds(sizes: list[int]) -> Iterator[tuple[int, int]]:
    """Cut blocks of these sizes into consecutive ``[start, stop)`` runs of
    at most :data:`SCAN_RUN_RECORDS` records (a larger block is a run of
    its own)."""
    start = records = 0
    for stop, size in enumerate(sizes):
        if stop > start and records + size > SCAN_RUN_RECORDS:
            yield start, stop
            start, records = stop, 0
        records += size
    if sizes:
        yield start, len(sizes)


def scan_blocks(
    blocks: list[Block], query: AggregationQuery
) -> tuple[dict[CellKey, SummaryVector], ScanStats]:
    """Aggregate raw blocks into query-resolution cells (full cell extents).

    Every block is read in full (you cannot seek inside a block).  The
    leg's blocks are concatenated in block order and scanned in one
    fused pass: one mask filters the records to the query's *snapped*
    extent, one :meth:`ObservationBatch.bin_ids` call bins them on
    packed integer ids, and :meth:`SummaryFrame.partials` groups them by
    (id, source block) with one stable sort; :meth:`SummaryFrame.merge_all`
    then folds each cell's per-block partials in block order — bit for
    bit what grouping every block on its own and merging the frames
    gives (``tests/storage/test_fused_scan.py``).
    :class:`SummaryVector` objects are materialized once at the end.  A
    leg above :data:`SCAN_RUN_RECORDS` is scanned run by run and its
    partial rows are folded together, which is the same fold over the
    same rows.  A (precision, resolution) pair outside the packed-id
    domain raises :class:`~repro.errors.TemporalError`
    (:func:`repro.geo.binning.bin_ids`); blocks whose attribute names
    differ raise :class:`~repro.errors.StatisticsError`.

    Scans never apply the query's attribute selection: cells cache
    *every* attribute so they stay reusable by any later query, and
    projection happens only on responses (``SummaryVector.project``).
    """
    precision = query.resolution.spatial
    resolution = query.resolution.temporal
    sizes = [len(block) for block in blocks]
    frames: list[SummaryFrame] = []
    for start, stop in _run_bounds(sizes):
        batch = ObservationBatch.concat_all(
            [block.batch for block in blocks[start:stop]]
        )
        mask = _in_snapped_extent(batch, query)
        kept = batch.select(mask)
        if len(kept) == 0:
            continue
        source = np.repeat(np.arange(stop - start), sizes[start:stop])
        frames.append(
            SummaryFrame.partials(
                kept.bin_ids(precision, resolution), kept.attributes, source[mask]
            )
        )
    stats = ScanStats(
        blocks_read=len(blocks),
        bytes_read=sum(block.nbytes for block in blocks),
        records_scanned=sum(sizes),
    )
    if not frames:
        return {}, stats
    return frame_to_cells(SummaryFrame.merge_all(frames), query.resolution), stats


def ground_truth_cells(
    batch: ObservationBatch, query: AggregationQuery
) -> dict[CellKey, SummaryVector]:
    """Oracle: aggregate a raw dataset directly (no blocks, no cluster).

    Used by tests to verify that every system variant — basic scan,
    cold STASH, hot STASH, rolled-up STASH, replicated STASH, the
    ElasticSearch baseline — produces identical answers.  Unlike
    :func:`scan_blocks` this sits at the *response* boundary, so it does
    apply the query's attribute selection to what it returns.
    """
    sub = batch.select(_in_snapped_extent(batch, query))
    if len(sub) == 0:
        return {}
    frame = SummaryFrame.from_groups(
        sub.bin_ids(query.resolution.spatial, query.resolution.temporal),
        sub.attributes,
    )
    out = frame_to_cells(frame, query.resolution)
    if query.attributes is not None:
        out = {key: vec.project(list(query.attributes)) for key, vec in out.items()}
    return out
