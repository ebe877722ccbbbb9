"""Tests for the storage catalog and the scan kernel."""

import numpy as np
import pytest

from repro.core.keys import CellKey
from repro.data.block import BlockId
from repro.data.generator import small_test_dataset
from repro.data.observation import ObservationBatch
from repro.data.statistics import SummaryVector
from repro.dht.partitioner import PrefixPartitioner
from repro.errors import StorageError, TemporalError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.storage import backend as backend_module
from repro.storage.backend import StorageCatalog, ground_truth_cells, scan_blocks
from tests.reference import boxes_intersect, scan_blocks_reference

NODES = [f"node-{i}" for i in range(6)]


@pytest.fixture(scope="module")
def batch():
    return small_test_dataset(num_records=8_000)


@pytest.fixture(scope="module")
def catalog(batch):
    cat = StorageCatalog(PrefixPartitioner(NODES, 2))
    cat.ingest(batch)
    return cat


def make_query(box=None, resolution=None, day=(2013, 2, 2)):
    return AggregationQuery(
        bbox=box or BoundingBox(30, 45, -115, -95),
        time_range=TimeKey.of(*day).epoch_range(),
        resolution=resolution or Resolution(3, TemporalResolution.DAY),
    )


class TestCatalog:
    def test_ingest_places_all_records(self, catalog, batch):
        assert catalog.total_records == len(batch)
        assert catalog.num_blocks > 1

    def test_every_block_on_its_partition_node(self, catalog):
        for node in NODES:
            for block_id in catalog.blocks_on(node):
                assert catalog.partitioner.node_for_partition(block_id.geohash) == node
                assert catalog.node_of(block_id) == node

    def test_reingest_merges(self, batch):
        cat = StorageCatalog(PrefixPartitioner(NODES, 2))
        half = len(batch) // 2
        idx = np.arange(len(batch))
        cat.ingest(batch.select(idx[:half]))
        cat.ingest(batch.select(idx[half:]))
        assert cat.total_records == len(batch)

    def test_append_is_one_concatenate_per_touched_block(self, batch, monkeypatch):
        """A batch touching B existing blocks: B ``np.concatenate`` calls
        and B batches built (the placed blocks'), not a sub-batch and a
        joined batch of seven arrays per block."""
        cat = StorageCatalog(PrefixPartitioner(NODES, 2))
        cat.ingest(batch)
        before = {block_id: cat.get_block(block_id).batch for block_id in self.ids(cat)}
        update = batch.select(np.arange(0, len(batch), 7))
        joins: list[int] = []
        built: list[int] = []
        real_concatenate = np.concatenate
        real_from_columns = ObservationBatch.from_columns

        def concatenate(arrays, *args, **kwargs):
            joins.append(len(arrays))
            return real_concatenate(arrays, *args, **kwargs)

        def from_columns(columns, names):
            built.append(columns.shape[1])
            return real_from_columns(columns, names)

        with monkeypatch.context() as patch:
            patch.setattr(np, "concatenate", concatenate)
            patch.setattr(ObservationBatch, "from_columns", from_columns)
            patch.setattr(ObservationBatch, "__init__", None)  # never called
            touched = cat.ingest(update)
        assert 20 <= len(touched) <= len(before)
        assert joins == [2] * len(touched)
        assert len(built) == len(touched)
        for block_id in touched:
            old, new = before[block_id], cat.get_block(block_id).batch
            records = batch.select(np.arange(0, len(batch), 7)).filter_bbox(
                BoundingBox(*self.box(block_id))
            )
            assert new.columns.base is None  # owns its records: pins nothing
            assert new.columns[:, : len(old)].tobytes() == old.columns.tobytes()
            added = new.columns[:, len(old) :]
            day = TimeKey.parse(block_id.day).epoch_range()
            mine = records.filter_time(day).columns
            assert added.tobytes() == mine.tobytes()

    @staticmethod
    def ids(cat):
        return [block_id for node in NODES for block_id in cat.blocks_on(node)]

    @staticmethod
    def box(block_id):
        from repro.geo.geohash import bbox

        cell = bbox(block_id.geohash)
        return cell.south, cell.north, cell.west, cell.east

    def test_large_batch_is_gathered_run_by_run(self, batch, catalog, monkeypatch):
        """A batch above ``SCAN_RUN_RECORDS`` places the same blocks."""
        monkeypatch.setattr(backend_module, "SCAN_RUN_RECORDS", 300)
        cut = StorageCatalog(PrefixPartitioner(NODES, 2))
        cut.ingest(batch)
        assert self.ids(cut) == self.ids(catalog)
        for block_id in self.ids(catalog):
            got = cut.get_block(block_id).batch
            assert got.columns.base is None
            assert got.columns.tobytes() == catalog.get_block(block_id).batch.columns.tobytes()

    def test_append_matches_attributes_by_name(self, batch):
        """A batch with another attribute insertion order is appended in
        the catalog's row order."""
        cat = StorageCatalog(PrefixPartitioner(NODES, 2))
        cat.ingest(batch)
        update = batch.select(np.arange(0, len(batch), 5))
        reversed_attributes = dict(reversed(list(update.attributes.items())))
        flipped = ObservationBatch(update.lats, update.lons, update.epochs, reversed_attributes)
        straight = StorageCatalog(PrefixPartitioner(NODES, 2))
        straight.ingest(batch)
        assert cat.ingest(flipped) == straight.ingest(update)
        for block_id in self.ids(straight):
            got, want = cat.get_block(block_id).batch, straight.get_block(block_id).batch
            assert got.names == want.names == batch.names
            assert got.columns.tobytes() == want.columns.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_epoch_is_refused(self, batch):
        cat = StorageCatalog(PrefixPartitioner(NODES, 2))
        epochs = batch.epochs.copy()
        epochs[17] = np.nan
        bad = ObservationBatch(batch.lats, batch.lons, epochs, batch.attributes)
        with pytest.raises(TemporalError, match="non-finite epochs"):
            cat.ingest(bad)
        assert cat.num_blocks == 0 and cat.generation == 0

    def test_unknown_block(self, catalog):
        with pytest.raises(StorageError):
            catalog.node_of(BlockId("zz", "1999-01-01"))
        assert catalog.get_block(BlockId("zz", "1999-01-01")) is None

    def test_unknown_node(self, catalog):
        with pytest.raises(StorageError):
            catalog.blocks_on("ghost")

    def test_blocks_for_query_overlap(self, catalog, batch):
        query = make_query()
        block_ids = catalog.blocks_for_query(query)
        assert block_ids
        snapped_box = query.snapped_bbox()
        for block_id in block_ids:
            assert block_id.day == "2013-02-02"
            from repro.geo.geohash import bbox as geohash_bbox

            assert boxes_intersect(geohash_bbox(block_id.geohash), snapped_box)

    def test_blocks_for_query_complete(self, catalog, batch):
        """Every record in the snapped extent lives in a selected block."""
        query = make_query()
        selected = set(catalog.blocks_for_query(query))
        sub = batch.filter_bbox(query.snapped_bbox()).filter_time(
            query.snapped_time_range()
        )
        from repro.data.block import partition_into_blocks

        needed = partition_into_blocks(sub, 2)
        assert set(needed).issubset(selected)

    def test_blocks_by_node_plan(self, catalog):
        block_ids = catalog.blocks_for_query(make_query())
        plan = catalog.blocks_by_node(block_ids)
        assert sum(len(v) for v in plan.values()) == len(block_ids)
        for node, ids in plan.items():
            for block_id in ids:
                assert catalog.node_of(block_id) == node



@pytest.fixture(scope="module")
def calendar_catalog():
    """Blocks at precision 2: one in each ``9?`` prefix on 2013-02-02, and
    one in ``9q`` on every day of 2013."""
    from repro.data.observation import ObservationBatch
    from repro.geo import geohash as gh

    points = [(gh.decode("9" + c), TimeKey.of(2013, 2, 2)) for c in gh.GEOHASH_ALPHABET]
    points += [
        (gh.decode("9q8y"), day)
        for month in TimeKey.of(2013).children()
        for day in month.children()
    ]
    cat = StorageCatalog(PrefixPartitioner(NODES, 2))
    cat.ingest(
        ObservationBatch(
            lats=np.array([lat for (lat, _), _ in points]),
            lons=np.array([lon for (_, lon), _ in points]),
            epochs=np.array([day.epoch_range().start + 43_200.0 for _, day in points]),
            attributes={"temperature": np.zeros(len(points))},
        )
    )
    return cat


class TestBlocksForCell:
    """The PLM's block set of a cell: every existing block it aggregates."""

    def test_fine_cell_single_day(self, calendar_catalog):
        key = CellKey("9q8y7", TimeKey.of(2013, 2, 2))
        assert calendar_catalog.blocks_for_cell(key) == [BlockId("9q", "2013-02-02")]

    def test_hour_cell_maps_to_day_block(self, calendar_catalog):
        key = CellKey("9q8y7", TimeKey.of(2013, 2, 2, 13))
        assert calendar_catalog.blocks_for_cell(key) == [BlockId("9q", "2013-02-02")]

    def test_month_cell_spans_days(self, calendar_catalog):
        blocks = calendar_catalog.blocks_for_cell(CellKey("9q8y", TimeKey.of(2013, 2)))
        assert len(blocks) == 28
        assert all(b.geohash == "9q" for b in blocks)

    def test_year_cell_spans_year(self, calendar_catalog):
        key = CellKey("9q8y", TimeKey.of(2013))
        assert len(calendar_catalog.blocks_for_cell(key)) == 365

    def test_coarse_cell_spans_prefixes(self, calendar_catalog):
        blocks = calendar_catalog.blocks_for_cell(CellKey("9", TimeKey.of(2013, 2, 2)))
        assert len(blocks) == 32
        assert all(b.geohash.startswith("9") for b in blocks)
        assert all(b.day == "2013-02-02" for b in blocks)
        # Only blocks that exist: nothing was ingested under "b".
        assert calendar_catalog.blocks_for_cell(CellKey("b", TimeKey.of(2013, 2, 2))) == []

    def test_exact_partition_precision(self, calendar_catalog):
        key = CellKey("9q", TimeKey.of(2013, 2, 2))
        assert calendar_catalog.blocks_for_cell(key) == [BlockId("9q", "2013-02-02")]

class TestScanKernel:
    def test_scan_matches_ground_truth(self, catalog, batch):
        query = make_query()
        block_ids = catalog.blocks_for_query(query)
        blocks = [catalog.get_block(b) for b in block_ids]
        cells, stats = scan_blocks(blocks, query)
        truth = ground_truth_cells(batch, query)
        assert set(cells) == set(truth)
        for key, vec in cells.items():
            assert vec.approx_equal(truth[key])

    def test_scan_stats(self, catalog):
        query = make_query()
        block_ids = catalog.blocks_for_query(query)
        blocks = [catalog.get_block(b) for b in block_ids]
        _, stats = scan_blocks(blocks, query)
        assert stats.blocks_read == len(blocks)
        assert stats.records_scanned == sum(len(b) for b in blocks)
        assert stats.bytes_read == sum(b.nbytes for b in blocks)

    def test_scan_empty_blocks(self, catalog):
        query = make_query()
        cells, stats = scan_blocks([], query)
        assert cells == {} and stats.blocks_read == 0

    def test_scan_ignores_attribute_selection(self, catalog, batch):
        """Scans aggregate *every* attribute regardless of the query's
        selection: cells cache full vectors so they stay reusable by any
        later query, and projection happens only at the response
        boundary (``SummaryVector.project``)."""
        query = AggregationQuery(
            bbox=BoundingBox(30, 45, -115, -95),
            time_range=TimeKey.of(2013, 2, 2).epoch_range(),
            resolution=Resolution(3, TemporalResolution.DAY),
            attributes=("temperature",),
        )
        block_ids = catalog.blocks_for_query(query)
        blocks = [catalog.get_block(b) for b in block_ids]
        cells, _ = scan_blocks(blocks, query)
        assert cells
        for vec in cells.values():
            assert vec.attributes == sorted(batch.attributes)
        # ground_truth_cells sits at the response boundary: it projects.
        truth = ground_truth_cells(batch, query)
        for key, vec in truth.items():
            assert vec.attributes == ["temperature"]
            assert vec.approx_equal(cells[key].project(["temperature"]))

    def test_scan_columnar_matches_scalar(self, catalog):
        """The bin-id + SummaryFrame scan is bitwise identical to the
        frozen string-label reference scan, cell order included."""
        query = make_query()
        block_ids = catalog.blocks_for_query(query)
        blocks = [catalog.get_block(b) for b in block_ids]
        cells, stats = scan_blocks(blocks, query)
        reference = scan_blocks_reference([b.batch for b in blocks], query)
        assert cells == reference
        assert list(cells) == list(reference)
        assert stats.records_scanned == sum(len(b) for b in blocks)

    def test_pair_outside_packed_domain_raises(self, catalog, batch):
        """Precision 9 at DAY needs 65 bits: the scan layer says so with
        a TemporalError naming the bit budget — there is no string-label
        detour behind it any more."""
        lat, lon, epoch = (
            float(column[0]) for column in (batch.lats, batch.lons, batch.epochs)
        )
        query = AggregationQuery(
            bbox=BoundingBox(lat - 1e-6, lat + 1e-6, lon - 1e-6, lon + 1e-6),
            time_range=TimeKey.from_epoch(
                epoch, TemporalResolution.DAY
            ).epoch_range(),
            resolution=Resolution(9, TemporalResolution.DAY),
        )
        blocks = [catalog.get_block(b) for b in catalog.blocks_for_query(query)]
        assert blocks
        with pytest.raises(TemporalError, match=r"65 bits .* max is 64"):
            scan_blocks(blocks, query)
        with pytest.raises(TemporalError, match=r"65 bits .* max is 64"):
            ground_truth_cells(batch, query)

    def test_ground_truth_no_matches(self, batch):
        query = make_query(day=(2013, 6, 6))  # outside February dataset
        assert ground_truth_cells(batch, query) == {}

    def test_cells_cover_full_cell_extents(self, catalog, batch):
        """A cell's summary covers its whole extent, not just the query box."""
        query = make_query(box=BoundingBox(34.9, 35.1, -105.1, -104.9))
        block_ids = catalog.blocks_for_query(query)
        blocks = [catalog.get_block(b) for b in block_ids]
        cells, _ = scan_blocks(blocks, query)
        for key, vec in cells.items():
            sub = batch.filter_bbox(key.bbox).filter_time(key.time_range)
            expected = SummaryVector.from_arrays(
                {name: values for name, values in sub.attributes.items()}
            )
            assert vec.approx_equal(expected)
