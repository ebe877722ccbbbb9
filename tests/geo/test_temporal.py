"""Unit and property tests for repro.geo.temporal."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TemporalError
from repro.geo.temporal import (
    NUM_TEMPORAL_RESOLUTIONS,
    TemporalResolution,
    TimeKey,
    TimeRange,
    bin_epoch_codes,
    time_key_of_code,
)
from tests.reference import (
    bin_epochs,
    covering_keys_reference,
    epoch_range_reference,
    from_epoch_reference,
    step_reference,
    temporal_neighbors,
    time_key_of_code_reference,
)
from tests.strategies import calendar_time_keys

resolutions = st.sampled_from(list(TemporalResolution))
epochs_2013 = st.floats(
    dt.datetime(2013, 1, 1, tzinfo=dt.timezone.utc).timestamp(),
    dt.datetime(2013, 12, 31, 23, tzinfo=dt.timezone.utc).timestamp(),
)


class TestResolutionEnum:
    def test_ordering(self):
        assert TemporalResolution.YEAR < TemporalResolution.MONTH
        assert TemporalResolution.DAY < TemporalResolution.HOUR

    def test_finer_coarser_chain(self):
        assert TemporalResolution.YEAR.finer == TemporalResolution.MONTH
        assert TemporalResolution.HOUR.finer is None
        assert TemporalResolution.YEAR.coarser is None
        assert TemporalResolution.HOUR.coarser == TemporalResolution.DAY

    def test_count(self):
        assert NUM_TEMPORAL_RESOLUTIONS == 4


class TestTimeKey:
    def test_of_and_str(self):
        key = TimeKey.of(2015, 3)
        assert str(key) == "2015-03"
        assert key.resolution == TemporalResolution.MONTH

    def test_parse_roundtrip(self):
        for text in ("2013", "2013-07", "2013-07-04", "2013-07-04-13"):
            assert str(TimeKey.parse(text)) == text

    def test_parse_invalid(self):
        with pytest.raises(TemporalError):
            TimeKey.parse("not-a-date")

    def test_invalid_components(self):
        with pytest.raises(TemporalError):
            TimeKey((2013, 13))
        with pytest.raises(TemporalError):
            TimeKey((2013, 2, 30))
        with pytest.raises(TemporalError):
            TimeKey(())

    def test_from_epoch(self):
        ts = dt.datetime(2015, 3, 14, 9, 26, tzinfo=dt.timezone.utc).timestamp()
        assert str(TimeKey.from_epoch(ts, TemporalResolution.DAY)) == "2015-03-14"
        assert str(TimeKey.from_epoch(ts, TemporalResolution.HOUR)) == "2015-03-14-09"

    def test_paper_example_neighbors(self):
        # Paper Fig. 1b: 2015-03's temporal neighbors are 2015-02, 2015-04.
        key = TimeKey.of(2015, 3)
        assert [str(k) for k in temporal_neighbors(key)] == ["2015-02", "2015-04"]

    def test_step_across_year(self):
        assert str(TimeKey.of(2015, 12).step(1)) == "2016-01"
        assert str(TimeKey.of(2015, 1).step(-1)) == "2014-12"

    def test_step_across_month_days(self):
        assert str(TimeKey.of(2013, 2, 28).step(1)) == "2013-03-01"

    def test_parent(self):
        assert TimeKey.of(2015, 3, 14).parent() == TimeKey.of(2015, 3)
        with pytest.raises(TemporalError):
            TimeKey.of(2015).parent()

    def test_children_month_counts(self):
        assert len(TimeKey.of(2013, 2).children()) == 28
        assert len(TimeKey.of(2012, 2).children()) == 29  # leap year
        assert len(TimeKey.of(2013).children()) == 12
        assert len(TimeKey.of(2013, 7, 4).children()) == 24

    def test_children_of_hour_fails(self):
        with pytest.raises(TemporalError):
            TimeKey.of(2013, 7, 4, 12).children()

    @given(epochs_2013, resolutions)
    def test_bin_contains_instant(self, epoch, res):
        key = TimeKey.from_epoch(epoch, res)
        bin_range = key.epoch_range()
        assert bin_range.start <= epoch < bin_range.end

    @given(epochs_2013, st.sampled_from(list(TemporalResolution)[1:]))
    def test_parent_encloses_child(self, epoch, res):
        key = TimeKey.from_epoch(epoch, res)
        parent_range = key.parent().epoch_range()
        child_range = key.epoch_range()
        assert parent_range.start <= child_range.start
        assert child_range.end <= parent_range.end

    @given(epochs_2013, st.sampled_from(list(TemporalResolution)[:-1]))
    def test_children_tile_parent(self, epoch, res):
        key = TimeKey.from_epoch(epoch, res)
        kids = key.children()
        total = sum(k.epoch_range().end - k.epoch_range().start for k in kids)
        whole = key.epoch_range()
        assert total == pytest.approx(whole.end - whole.start)
        # Consecutive children abut exactly.
        for a, b in zip(kids, kids[1:]):
            assert a.epoch_range().end == b.epoch_range().start

    @given(epochs_2013, resolutions, st.integers(-40, 40))
    @settings(max_examples=60)
    def test_step_inverse(self, epoch, res, n):
        key = TimeKey.from_epoch(epoch, res)
        assert key.step(n).step(-n) == key


class TestTimeRange:
    def test_empty_rejected(self):
        with pytest.raises(TemporalError):
            TimeRange(10, 10)

    def test_covering_keys_single_day(self):
        day = TimeKey.of(2013, 7, 4).epoch_range()
        keys = day.covering_keys(TemporalResolution.DAY)
        assert [str(k) for k in keys] == ["2013-07-04"]

    def test_covering_keys_span(self):
        rng = TimeRange(
            TimeKey.of(2013, 1, 30).epoch_range().start,
            TimeKey.of(2013, 2, 2).epoch_range().end,
        )
        keys = rng.covering_keys(TemporalResolution.DAY)
        assert [str(k) for k in keys] == [
            "2013-01-30",
            "2013-01-31",
            "2013-02-01",
            "2013-02-02",
        ]

    def test_from_keys(self):
        keys = [TimeKey.of(2013, 3), TimeKey.of(2013, 5)]
        rng = TimeRange.from_keys(keys)
        assert rng.start == TimeKey.of(2013, 3).epoch_range().start
        assert rng.end == TimeKey.of(2013, 5).epoch_range().end

    def test_from_keys_empty(self):
        with pytest.raises(TemporalError):
            TimeRange.from_keys([])


class TestVectorizedBinning:
    @given(st.lists(epochs_2013, min_size=1, max_size=50), resolutions)
    @settings(max_examples=40)
    def test_bin_epochs_matches_scalar(self, values, res):
        # Whole seconds only: sub-second values a float-ULP from a bin
        # boundary may legitimately round either way (datetime rounds to
        # microseconds, datetime64 truncates).
        values = [float(int(v)) for v in values]
        arr = np.array(values)
        binned = bin_epochs(arr, res)
        expected = [str(TimeKey.from_epoch(v, res)) for v in values]
        assert binned.tolist() == expected

    def test_bin_epochs_empty(self):
        assert bin_epochs(np.array([]), TemporalResolution.DAY).size == 0

    @given(st.lists(epochs_2013, min_size=1, max_size=50), resolutions)
    @settings(max_examples=40)
    def test_epoch_codes_name_same_bins_as_labels(self, values, res):
        """The integer codes are the label-free form of ``bin_epochs``:
        each code round-trips to the TimeKey whose string is the label."""
        from repro.geo.temporal import bin_epoch_codes, time_key_of_code

        arr = np.array([float(int(v)) for v in values])
        codes = bin_epoch_codes(arr, res)
        labels = bin_epochs(arr, res)
        assert codes.dtype == np.int64
        for code, label in zip(codes.tolist(), labels.tolist()):
            assert str(time_key_of_code(code, res)) == str(label)


class TestOrdinalArithmetic:
    """Day ordinals and bin codes against the ``datetime`` /
    ``timedelta`` / ``datetime64`` arithmetic they replaced
    (``tests/reference.py``), value for value."""

    @given(calendar_time_keys())
    @settings(max_examples=300)
    def test_epoch_range_equals_datetime_subtraction(self, key):
        got = key.epoch_range()
        assert (got.start.hex(), got.end.hex()) == tuple(
            v.hex() for v in epoch_range_reference(key)
        )
        assert type(got.start) is type(got.end) is float

    @given(calendar_time_keys(), st.integers(-40, 40) | st.sampled_from((-1, 1, 24, 366)))
    @settings(max_examples=300)
    def test_step_equals_timedelta(self, key, n):
        if not 400 < key.components[0] < 9600:  # room to step either way
            key = TimeKey((2012,) + key.components[1:])  # leap, for a 29th
        assert key.step(n) == step_reference(key, n)
        assert key.step(n).step(-n) == key

    @given(
        st.sampled_from(list(TemporalResolution)).flatmap(
            lambda res: st.tuples(
                st.integers(-(10 ** (2 + res)), 10 ** (3 + res)) | st.integers(-2, 2),
                st.just(res),
            )
        )
    )
    @settings(max_examples=300)
    def test_time_key_of_code_equals_datetime64(self, drawn):
        code, res = drawn
        key = time_key_of_code(code, res)
        assert key == time_key_of_code_reference(code, res)
        start = key.epoch_range().start
        assert bin_epoch_codes(np.array([start]), res).tolist() == [code]
        assert TimeKey.from_epoch(start, res) == from_epoch_reference(start, res) == key

    @given(
        calendar_time_keys(),
        st.floats(-3.0, 3.0),
        st.floats(1e-3, 5.0) | st.sampled_from((3600.0, 86400.0, 40 * 86400.0)),
        resolutions,
    )
    @settings(max_examples=300)
    def test_covering_keys_equal_the_stepping_loop_and_its_count(
        self, key, offset, length, res
    ):
        """Ranges starting a fraction either side of a bin edge — before
        1970 truncation rounds a fractional start *up* — and ending on,
        just before and just after one."""
        start = key.epoch_range().start + offset
        time_range = TimeRange(start, start + length)
        keys = time_range.covering_keys(res)
        assert keys == covering_keys_reference(time_range, res)
        assert time_range.key_count(res) == len(keys)

    def test_counting_builds_no_key(self, monkeypatch):
        built = []
        real = TimeKey.__new__
        monkeypatch.setattr(
            TimeKey, "__new__", lambda cls, parts: built.append(parts) or real(cls, parts)
        )
        assert TimeRange(0.0, 3e9).key_count(TemporalResolution.HOUR) == 833_334
        assert TimeRange(0.0, 3e9).key_count(TemporalResolution.YEAR) == 96
        assert built == []

    def test_the_calendar_ends_are_nameable(self):
        """Year 9999 has an end though no year follows it."""
        last = TimeKey.of(9999, 12, 31, 23)
        end = last.epoch_range().end
        for length in range(1, 5):
            key = TimeKey(last.components[:length])
            assert key.epoch_range().end == end
            with pytest.raises(TemporalError):
                key.step(1)
        first = TimeKey.of(1, 1, 1, 0)
        assert TimeKey.from_epoch(first.epoch_range().start, TemporalResolution.HOUR) == first
        with pytest.raises(TemporalError):
            first.step(-1)
        whole = TimeRange(first.epoch_range().start, end)
        assert whole.key_count(TemporalResolution.YEAR) == 9999

    @pytest.mark.parametrize(
        "instant", [-1e18, 1e18, 2.6e11, float("inf"), float("-inf"), float("nan")]
    )
    def test_an_instant_outside_the_calendar_is_a_temporal_error(self, instant):
        """Was ``OSError`` / ``OverflowError`` / ``ValueError``, by platform."""
        for res in TemporalResolution:
            with pytest.raises(TemporalError):
                TimeKey.from_epoch(instant, res)
        if instant > 0:
            for res in TemporalResolution:
                with pytest.raises(TemporalError):
                    TimeRange(0.0, instant).key_count(res)
                with pytest.raises(TemporalError):
                    TimeRange(0.0, instant).covering_keys(res)
        for res in TemporalResolution:
            with pytest.raises(TemporalError):
                time_key_of_code(10**12, res)
            with pytest.raises(TemporalError):
                time_key_of_code(-(10**12), res)
