"""Property tests for the mergeable log-bucketed latency histogram."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.histogram import (
    MAX_EXP,
    MIN_EXP,
    NUM_BUCKETS,
    LatencyHistogram,
    bucket_bounds,
    bucket_index,
)
from repro.stats import percentile

latencies = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
samples = st.lists(latencies, max_size=60)


def hist_of(values) -> LatencyHistogram:
    histogram = LatencyHistogram()
    for value in values:
        histogram.observe(value)
    return histogram


class TestBuckets:
    def test_underflow_and_overflow(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(2.0**MIN_EXP / 2) == 0
        assert bucket_index(2.0**MAX_EXP) == NUM_BUCKETS - 1
        assert bucket_index(1e9) == NUM_BUCKETS - 1

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bucket_index(-1e-9)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected_and_leaves_no_trace(self, value):
        h = hist_of([0.5])
        with pytest.raises(ValueError):
            h.observe(value)
        assert h.count == 1 and h.total == 0.5 and h.mean() == 0.5
        assert sum(h.counts) == 1

    @given(latencies)
    def test_value_lies_within_its_bucket(self, value):
        lo, hi = bucket_bounds(bucket_index(value))
        assert lo <= value < hi

    def test_boundary_goes_to_upper_bucket(self):
        # 2**k is the *lower* bound of bucket k+1, not in bucket k.
        index = bucket_index(0.5)
        lo, _hi = bucket_bounds(index)
        assert lo == 0.5

    def test_bounds_tile_the_line(self):
        previous_hi = 0.0
        for index in range(NUM_BUCKETS):
            lo, hi = bucket_bounds(index)
            assert lo == previous_hi
            previous_hi = hi
        assert math.isinf(previous_hi)


class TestMonoid:
    @given(samples, samples)
    def test_merge_commutative(self, a, b):
        assert hist_of(a).merge(hist_of(b)) == hist_of(b).merge(hist_of(a))

    @given(samples, samples, samples)
    def test_merge_associative(self, a, b, c):
        ha, hb, hc = hist_of(a), hist_of(b), hist_of(c)
        assert ha.merge(hb).merge(hc) == ha.merge(hb.merge(hc))

    @given(samples)
    def test_empty_is_identity(self, a):
        h = hist_of(a)
        assert h.merge(LatencyHistogram.empty()) == h
        assert LatencyHistogram.empty().merge(h) == h

    @given(samples, samples)
    def test_merge_equals_observing_concatenation(self, a, b):
        assert hist_of(a).merge(hist_of(b)) == hist_of(a + b)

    @given(st.lists(samples, max_size=5))
    def test_merge_all(self, chunks):
        merged = LatencyHistogram.merge_all(hist_of(c) for c in chunks)
        assert merged == hist_of([v for c in chunks for v in c])


class TestPercentileBounds:
    @given(
        st.lists(latencies, min_size=1, max_size=60),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_bounds_contain_exact_percentile(self, values, q):
        h = hist_of(values)
        lo, hi = h.percentile_bounds(q)
        exact = percentile(values, q)
        assert lo <= exact <= hi

    @given(st.lists(latencies, min_size=1, max_size=60))
    def test_estimate_within_bounds(self, values):
        h = hist_of(values)
        lo, hi = h.percentile_bounds(95.0)
        estimate = h.percentile_estimate(95.0)
        assert lo <= estimate <= (hi if not math.isinf(hi) else lo)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile_bounds(50.0)

    def test_bad_q_raises(self):
        with pytest.raises(ValueError):
            hist_of([1.0]).percentile_bounds(101.0)

    def test_overflow_estimate_is_finite(self):
        h = hist_of([2.0**MAX_EXP * 4])
        assert math.isfinite(h.percentile_estimate(50.0))


class TestSerialization:
    @given(samples)
    def test_round_trip(self, values):
        h = hist_of(values)
        restored = LatencyHistogram.from_dict(h.to_dict())
        assert restored == h
        assert restored.total == h.total

    def test_layout_mismatch_rejected(self):
        data = hist_of([1.0]).to_dict()
        data["min_exp"] = MIN_EXP - 1
        with pytest.raises(ValueError, match="layout mismatch"):
            LatencyHistogram.from_dict(data)

    #: What a peer can put on the wire in place of ``to_dict()``; each
    #: was accepted (or an ``IndexError``) before from_dict validated.
    MALFORMED = {
        "negative index": {"buckets": {"-1": 3}},
        "index past the overflow bucket": {"buckets": {"99": 1}},
        "index not a number": {"buckets": {"three": 1}},
        "negative count": {"buckets": {"3": -7}},
        "fractional count": {"buckets": {"3": 1.5}},
        "boolean count": {"buckets": {"3": True}},
        "count above its buckets": {"buckets": {"3": 1}, "count": 5},
        "count below its buckets": {"buckets": {"3": 2}, "count": 1},
        "negative total": {"buckets": {"3": 1}, "total_s": -0.5},
        "NaN total": {"buckets": {"3": 1}, "total_s": float("nan")},
        "infinite total": {"buckets": {"3": 1}, "total_s": float("inf")},
        "total not a number": {"buckets": {"3": 1}, "total_s": "1.0"},
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_dict_rejected(self, case):
        data = {"min_exp": MIN_EXP, "max_exp": MAX_EXP, **self.MALFORMED[case]}
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict(data)

    def test_count_and_total_may_be_omitted(self):
        data = {"min_exp": MIN_EXP, "max_exp": MAX_EXP, "buckets": {"3": 2}}
        h = LatencyHistogram.from_dict(data)
        assert h.count == 2 and h.total == 0.0

    def test_sparse_form(self):
        data = hist_of([0.25, 0.25]).to_dict()
        assert list(data["buckets"].values()) == [2]
