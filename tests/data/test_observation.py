"""Tests for observation batches."""

import pickle

import numpy as np
import pytest

from repro.data.generator import small_test_dataset
from repro.data.observation import ObservationBatch
from repro.errors import StatisticsError
from repro.geo.bbox import BoundingBox
from repro.geo.geohash import encode
from repro.geo.temporal import TemporalResolution, TimeKey
from tests.reference import bin_labels


@pytest.fixture(scope="module")
def batch():
    return small_test_dataset(num_records=2_000)


class TestConstruction:
    def test_shape_mismatch(self):
        with pytest.raises(StatisticsError):
            ObservationBatch(np.zeros(3), np.zeros(2), np.zeros(3))

    def test_attribute_shape_mismatch(self):
        with pytest.raises(StatisticsError):
            ObservationBatch(
                np.zeros(3), np.zeros(3), np.zeros(3), {"t": np.zeros(2)}
            )

    def test_columns_must_be_one_dimensional(self):
        """A 2-D column used to construct and then break ``catalog.ingest``
        with a raw numpy broadcast error."""
        square = np.zeros((2, 2))
        with pytest.raises(StatisticsError, match="1-D"):
            ObservationBatch(square, square, square, {"t": square})
        with pytest.raises(StatisticsError, match="1-D"):
            ObservationBatch(np.zeros(4), np.zeros(4), np.zeros(4), {"t": square})
        with pytest.raises(StatisticsError, match="1-D"):
            ObservationBatch(np.float64(1.0), np.float64(1.0), np.float64(1.0))

    def test_immutability(self, batch):
        with pytest.raises(ValueError):
            batch.lats[0] = 0.0
        with pytest.raises(ValueError):
            batch.columns[3, 0] = 0.0

    def test_one_array_of_rows(self, batch):
        assert batch.columns.dtype == np.float64
        assert batch.columns.shape == (3 + len(batch.names), len(batch))
        for row, values in enumerate((batch.lats, batch.lons, batch.epochs)):
            assert np.shares_memory(values, batch.columns)
            assert values.tobytes() == batch.columns[row].tobytes()

    def test_attributes_are_read_only_views_in_insertion_order(self):
        attributes = {"z": np.arange(3.0), "a": np.arange(3.0) + 10, "m": np.ones(3)}
        made = ObservationBatch(np.zeros(3), np.zeros(3), np.zeros(3), attributes)
        assert made.names == ("z", "a", "m")
        assert list(made.attributes) == ["z", "a", "m"]
        assert made.attribute_names == ["a", "m", "z"]
        for name, values in made.attributes.items():
            assert np.shares_memory(values, made.columns)
            assert not values.flags.writeable
            assert values.tobytes() == attributes[name].tobytes()
            with pytest.raises(ValueError):
                values[0] = 1.0

    def test_int64_epochs_become_exactly_equal_floats(self):
        epochs = np.array([0, 1_359_763_200, 1_359_849_599, 2**53], dtype=np.int64)
        made = ObservationBatch(np.zeros(4), np.zeros(4), epochs)
        assert made.epochs.dtype == np.float64
        assert [int(e) for e in made.epochs] == epochs.tolist()

    def test_pickle_round_trip(self, batch):
        copy = pickle.loads(pickle.dumps(batch))
        assert copy.names == batch.names
        assert copy.columns.tobytes() == batch.columns.tobytes()
        assert not copy.columns.flags.writeable
        assert copy.bin_ids(4, TemporalResolution.DAY).tobytes() == (
            batch.bin_ids(4, TemporalResolution.DAY).tobytes()
        )

    def test_empty(self):
        e = ObservationBatch.empty()
        assert len(e) == 0
        assert e.nbytes == 0

    def test_nbytes_positive(self, batch):
        assert batch.nbytes == batch.lats.nbytes * (3 + len(batch.attributes))


class TestFiltering:
    def test_filter_bbox(self, batch):
        box = BoundingBox(30, 45, -110, -90)
        sub = batch.filter_bbox(box)
        assert 0 < len(sub) < len(batch)
        assert (sub.lats >= 30).all() and (sub.lats < 45).all()
        assert (sub.lons >= -110).all() and (sub.lons < -90).all()

    def test_filter_bbox_preserves_attribute_alignment(self, batch):
        box = BoundingBox(30, 45, -110, -90)
        mask = (
            (batch.lats >= 30)
            & (batch.lats < 45)
            & (batch.lons >= -110)
            & (batch.lons < -90)
        )
        sub = batch.filter_bbox(box)
        np.testing.assert_array_equal(
            sub.attributes["temperature"], batch.attributes["temperature"][mask]
        )

    def test_filter_time(self, batch):
        day = TimeKey.of(2013, 2, 2).epoch_range()
        sub = batch.filter_time(day)
        assert len(sub) > 0
        assert all(day.start <= e < day.end for e in sub.epochs)

    def test_filters_compose(self, batch):
        box = BoundingBox(30, 45, -110, -90)
        day = TimeKey.of(2013, 2, 2).epoch_range()
        a = batch.filter_bbox(box).filter_time(day)
        b = batch.filter_time(day).filter_bbox(box)
        assert len(a) == len(b)
        np.testing.assert_array_equal(np.sort(a.epochs), np.sort(b.epochs))


class TestConcat:
    def test_concat_roundtrip(self, batch):
        half = len(batch) // 2
        idx = np.arange(len(batch))
        a, b = batch.select(idx[:half]), batch.select(idx[half:])
        combined = a.concat(b)
        assert len(combined) == len(batch)
        np.testing.assert_array_equal(combined.lats, batch.lats)

    def test_concat_attribute_mismatch(self):
        a = ObservationBatch(np.zeros(1), np.zeros(1), np.zeros(1), {"x": np.zeros(1)})
        b = ObservationBatch(np.zeros(1), np.zeros(1), np.zeros(1), {"y": np.zeros(1)})
        with pytest.raises(StatisticsError):
            a.concat(b)

    def test_concat_all_empty_list(self):
        assert len(ObservationBatch.concat_all([])) == 0

    def pieces(self, batch) -> list[ObservationBatch]:
        """Mixed sizes, empty pieces first, in the middle and last."""
        idx = np.arange(len(batch))
        edges = [0, 0, 1, 400, 400, 403, 1_500, len(batch), len(batch)]
        return [batch.select(idx[lo:hi]) for lo, hi in zip(edges, edges[1:])]

    def test_concat_all_equals_the_pairwise_chain(self, batch):
        pieces = self.pieces(batch)
        combined = ObservationBatch.concat_all(pieces)
        chained = pieces[0]
        for piece in pieces[1:]:
            chained = chained.concat(piece)
        for got, want, whole in zip(
            (combined.lats, combined.lons, combined.epochs),
            (chained.lats, chained.lons, chained.epochs),
            (batch.lats, batch.lons, batch.epochs),
        ):
            assert got.tobytes() == want.tobytes() == whole.tobytes()
        assert list(combined.attributes) == list(batch.attributes)
        for name, values in batch.attributes.items():
            assert combined.attributes[name].tobytes() == values.tobytes()
            assert chained.attributes[name].tobytes() == values.tobytes()
        assert not combined.lats.flags.writeable
        assert ObservationBatch.concat_all([batch]) is batch

    def test_concat_all_matches_attributes_by_name(self):
        """Two insertion orders join by name, in the first batch's order."""
        xy = {"x": np.array([1.0, 2.0]), "y": np.array([3.0, 4.0])}
        a = ObservationBatch(np.zeros(2), np.zeros(2), np.zeros(2), xy)
        yx = {"y": np.array([30.0]), "x": np.array([10.0])}
        b = ObservationBatch(np.ones(1), np.ones(1), np.ones(1), yx)
        joined = ObservationBatch.concat_all([a, b])
        assert joined.names == ("x", "y")
        assert joined.attributes["x"].tolist() == [1.0, 2.0, 10.0]
        assert joined.attributes["y"].tolist() == [3.0, 4.0, 30.0]
        flipped = ObservationBatch.concat_all([b, a])
        assert flipped.names == ("y", "x")
        assert flipped.attributes["x"].tolist() == [10.0, 1.0, 2.0]
        assert flipped.lats.tolist() == [1.0, 0.0, 0.0]

    def test_concat_all_attribute_mismatch(self, batch):
        odd = ObservationBatch(np.zeros(1), np.zeros(1), np.zeros(1), {"y": np.zeros(1)})
        with pytest.raises(StatisticsError, match="different attributes"):
            ObservationBatch.concat_all([batch, batch, odd])
        with pytest.raises(StatisticsError, match="different attributes"):
            ObservationBatch.concat_all([odd, batch])

    def test_concat_all_copies_each_column_once(self, batch, monkeypatch):
        """One ``np.concatenate`` however many batches and attributes: the
        chain copied everything accumulated so far for every batch
        (7 x (batches - 1) calls, quadratic bytes), and the per-column
        join made one call per column."""
        pieces = self.pieces(batch) * 10
        calls: list[int] = []
        real = np.concatenate

        def concatenate(arrays, *args, **kwargs):
            calls.append(len(arrays))
            return real(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", concatenate)
        combined = ObservationBatch.concat_all(pieces)
        monkeypatch.undo()
        assert len(combined) == 10 * len(batch)
        assert calls == [len(pieces)]


class TestBinKeys:
    def test_bin_keys_format(self, batch):
        keys = bin_labels(batch, 4, TemporalResolution.DAY)
        assert keys.shape == (len(batch),)
        gh_part, time_part = str(keys[0]).split("@")
        assert len(gh_part) == 4
        assert len(time_part) == len("2013-02-01")

    def test_bin_keys_match_scalar(self, batch):
        keys = bin_labels(batch, 3, TemporalResolution.MONTH)
        for i in [0, 17, 101]:
            expected_gh = encode(batch.lats[i], batch.lons[i], 3)
            expected_tk = str(
                TimeKey.from_epoch(batch.epochs[i], TemporalResolution.MONTH)
            )
            assert str(keys[i]) == f"{expected_gh}@{expected_tk}"

    def test_bin_keys_empty(self):
        assert bin_labels(ObservationBatch.empty(), 4, TemporalResolution.DAY).size == 0
