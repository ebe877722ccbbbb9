"""Tests for observation batches."""

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

    def test_immutability(self, batch):
        with pytest.raises(ValueError):
            batch.lats[0] = 0.0

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
        assert all(day.contains(e) for e in sub.epochs)

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

    def test_concat_all_attribute_mismatch(self, batch):
        odd = ObservationBatch(np.zeros(1), np.zeros(1), np.zeros(1), {"y": np.zeros(1)})
        with pytest.raises(StatisticsError, match="different attributes"):
            ObservationBatch.concat_all([batch, batch, odd])
        with pytest.raises(StatisticsError, match="different attributes"):
            ObservationBatch.concat_all([odd, batch])

    def test_concat_all_copies_each_column_once(self, batch, monkeypatch):
        """One ``np.concatenate`` per column however many batches: the
        chain copied everything accumulated so far for every batch
        (7 x (batches - 1) calls, quadratic bytes)."""
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
        assert calls == [len(pieces)] * (3 + len(batch.attributes))


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
