"""Packed integer bin ids vs the composite string labels (repro.geo.binning)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keys import CellKey
from repro.data.statistics import SummaryFrame
from repro.errors import TemporalError
from repro.geo.binning import (
    TEMPORAL_CODE_BITS,
    bin_ids,
    decode_bin_ids,
    supports_bin_ids,
)
from repro.geo.temporal import TemporalResolution, TimeKey
from tests.reference import bin_labels
from tests.strategies import lats, lons

#: Epochs inside the packed temporal range (1970 .. far future), away
#: from the float edge cases the encoders already reject.
epochs = st.floats(0.0, 3.0e9, allow_nan=False)
resolutions = st.sampled_from(list(TemporalResolution))


def _points(draw_count=st.integers(1, 48)):
    return st.lists(st.tuples(lats, lons, epochs), min_size=1, max_size=48)


class TestPacking:
    @given(_points(), st.integers(1, 8), resolutions)
    @settings(max_examples=60)
    def test_ids_map_one_to_one_to_cell_key_labels(self, points, precision, res):
        """Every packed id decodes to exactly the (geohash, TimeKey) pair
        the composite '<geohash>@<timekey>' reference label parses to — the ids
        are a lossless re-encoding of ``CellKey``."""
        la = np.array([p[0] for p in points])
        lo = np.array([p[1] for p in points])
        ep = np.array([p[2] for p in points])
        ids = bin_ids(la, lo, ep, precision, res)
        assert ids.dtype == np.uint64
        from repro.data.observation import ObservationBatch

        batch = ObservationBatch(la, lo, ep, {"x": np.zeros(len(points))})
        labels = bin_labels(batch, precision, res)
        for (geohash, time_key), label in zip(
            decode_bin_ids(ids, precision, res), labels.tolist()
        ):
            expected = CellKey.parse(str(label))
            assert geohash == expected.geohash
            assert time_key == expected.time_key

    @given(_points(), st.integers(1, 8), resolutions)
    @settings(max_examples=60)
    def test_id_order_matches_label_order(self, points, precision, res):
        """Sorting ids gives the same permutation as sorting the string
        labels — the invariant that keeps scan group order (and hence
        float summation order) identical to the reference path."""
        la = np.array([p[0] for p in points])
        lo = np.array([p[1] for p in points])
        ep = np.array([p[2] for p in points])
        ids = bin_ids(la, lo, ep, precision, res)
        from repro.data.observation import ObservationBatch

        batch = ObservationBatch(la, lo, ep, {"x": np.zeros(len(points))})
        labels = bin_labels(batch, precision, res)
        assert np.argsort(ids, kind="stable").tolist() == np.argsort(
            labels, kind="stable"
        ).tolist()
        # The frame grouped on these ids keeps every record: one row per
        # distinct label, counts summing to the input.
        frame = SummaryFrame.from_groups(ids, batch.attributes)
        assert len(frame) == len(set(labels.tolist()))
        assert int(frame.counts.sum()) == len(points)

    def test_empty_input(self):
        z = np.array([], dtype=np.float64)
        out = bin_ids(z, z, z, 4, TemporalResolution.DAY)
        assert out.size == 0 and out.dtype == np.uint64
        assert decode_bin_ids(out, 4, TemporalResolution.DAY) == []


class TestLimits:
    def test_supported_range(self):
        # The system's resolution space tops out at precision 8; the
        # packed scheme must cover it at every temporal resolution.
        for res in TemporalResolution:
            assert supports_bin_ids(8, res)
            assert 5 * 8 + TEMPORAL_CODE_BITS[res] <= 64

    def test_unsupported_precision_raises(self):
        assert not supports_bin_ids(12, TemporalResolution.HOUR)
        with pytest.raises(TemporalError):
            bin_ids(
                np.array([0.0]),
                np.array([0.0]),
                np.array([0.0]),
                12,
                TemporalResolution.HOUR,
            )

    def test_pre_epoch_instant_raises(self):
        with pytest.raises(TemporalError):
            bin_ids(
                np.array([0.0]),
                np.array([0.0]),
                np.array([-86_400.0]),  # 1969-12-31: negative temporal code
                4,
                TemporalResolution.DAY,
            )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_epoch_raises_before_the_cast(self, bad):
        """A NaN epoch was cast to datetime64 (a numpy RuntimeWarning) and
        reported as temporal code -9223372036854775808."""
        epochs = np.array([TimeKey.of(2013, 2, 2).epoch_range().start, bad])
        with pytest.raises(TemporalError, match="non-finite epochs"):
            bin_ids(np.zeros(2), np.zeros(2), epochs, 4, TemporalResolution.DAY)

    def test_known_value(self):
        # 2013-02-02 is day 15738 since the epoch; geohash of (0, 0) at
        # precision 1 is 's' (alphabet index 24).
        from repro.geo.geohash import GEOHASH_ALPHABET, encode

        assert encode(0.0, 0.0, 1) == "s"
        epoch = TimeKey.of(2013, 2, 2).epoch_range().start
        ids = bin_ids(
            np.array([0.0]),
            np.array([0.0]),
            np.array([epoch]),
            1,
            TemporalResolution.DAY,
        )
        bits = TEMPORAL_CODE_BITS[TemporalResolution.DAY]
        assert int(ids[0]) == (GEOHASH_ALPHABET.index("s") << bits) | 15_738
        [(geohash, key)] = decode_bin_ids(ids, 1, TemporalResolution.DAY)
        assert geohash == "s"
        assert key == TimeKey.of(2013, 2, 2)
