"""Property tests pinning SummaryFrame / grouped_summaries to a
per-record Python reference (and to the frozen scalar implementation)."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.statistics import (
    AttributeSummary,
    SummaryFrame,
    SummaryVector,
    grouped_summaries,
)
from repro.errors import StatisticsError
from tests.reference import grouped_summaries_scalar

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
key_pool = st.sampled_from(["9q8@2013-02-01", "9q8@2013-02-02", "dr5@2013-02-01", "x"])


@st.composite
def grouped_inputs(draw, min_records=0, identical_keys=False):
    n = draw(st.integers(min_records, 40))
    if identical_keys:
        keys = [draw(key_pool)] * n
    else:
        keys = draw(st.lists(key_pool, min_size=n, max_size=n))
    num_attrs = draw(st.integers(1, 3))
    arrays = {
        f"attr{i}": np.array(
            draw(st.lists(finite, min_size=n, max_size=n)), dtype=np.float64
        )
        for i in range(num_attrs)
    }
    return np.array(keys, dtype="U32") if n else np.array([], dtype="U32"), arrays


def reference(keys, arrays):
    """Per-record pure-Python reference: fsum totals, running extrema."""
    out = {}
    for i, key in enumerate(keys.tolist()):
        group = out.setdefault(key, {name: [] for name in arrays})
        for name, values in arrays.items():
            group[name].append(float(values[i]))
    return {
        key: SummaryVector(
            {
                name: AttributeSummary(
                    count=len(vals),
                    total=math.fsum(vals),
                    total_sq=math.fsum(v * v for v in vals),
                    minimum=min(vals),
                    maximum=max(vals),
                )
                for name, vals in group.items()
            }
        )
        for key, group in out.items()
    }


def assert_matches_reference(result, expected):
    assert set(result) == set(expected)
    for key, vec in result.items():
        assert vec.approx_equal(expected[key]), f"mismatch at {key}"


class TestAgainstReference:
    @given(grouped_inputs())
    @settings(max_examples=80)
    def test_grouped_summaries_matches_per_record_reference(self, inputs):
        keys, arrays = inputs
        assert_matches_reference(grouped_summaries(keys, arrays), reference(keys, arrays))

    @given(grouped_inputs(min_records=1, identical_keys=True))
    @settings(max_examples=30)
    def test_single_group_all_identical_keys(self, inputs):
        keys, arrays = inputs
        result = grouped_summaries(keys, arrays)
        assert len(result) == 1
        assert_matches_reference(result, reference(keys, arrays))

    def test_negative_values(self):
        keys = np.array(["a", "a", "b"])
        arrays = {"x": np.array([-5.0, -7.0, -1.5])}
        result = grouped_summaries(keys, arrays)
        assert result["a"]["x"] == AttributeSummary(2, -12.0, 74.0, -7.0, -5.0)
        assert result["b"]["x"] == AttributeSummary(1, -1.5, 2.25, -1.5, -1.5)

    def test_empty_attribute_dict_raises(self):
        """A group with no attributes would be an invalid SummaryVector
        (the old implementation silently built broken vectors here)."""
        with pytest.raises(StatisticsError):
            grouped_summaries(np.array(["a"]), {})
        with pytest.raises(StatisticsError):
            SummaryFrame.from_groups(np.array(["a"]), {})

    def test_length_mismatch_raises(self):
        with pytest.raises(StatisticsError):
            grouped_summaries(np.array(["a", "b"]), {"x": np.array([1.0])})

    def test_no_records_yields_no_groups(self):
        result = grouped_summaries(np.array([], dtype="U8"), {"x": np.array([])})
        assert result == {}


class TestScalarEquivalence:
    @given(grouped_inputs())
    @settings(max_examples=80)
    def test_bitwise_identical_to_frozen_scalar(self, inputs):
        """Same stable sort, same reduceat segments, same summation
        order: the columnar kernel reproduces the scalar one exactly —
        not just approximately — including group iteration order."""
        keys, arrays = inputs
        columnar = grouped_summaries(keys, arrays)
        scalar = grouped_summaries_scalar(keys, arrays)
        assert columnar == scalar
        assert list(columnar) == list(scalar)


class TestFrameMerge:
    @given(grouped_inputs(min_records=1), st.integers(0, 40))
    @settings(max_examples=60)
    def test_merge_of_splits_matches_whole(self, inputs, cut):
        """Summarizing two halves and merging the frames equals (to fp
        tolerance; counts/extrema exactly) summarizing the whole — the
        monoid law scan_blocks relies on when combining per-block frames."""
        keys, arrays = inputs
        cut = min(cut, keys.size)
        left = SummaryFrame.from_groups(
            keys[:cut], {n: v[:cut] for n, v in arrays.items()}
        )
        right = SummaryFrame.from_groups(
            keys[cut:], {n: v[cut:] for n, v in arrays.items()}
        )
        merged = left.merge(right).materialize()
        whole = SummaryFrame.from_groups(keys, arrays).materialize()
        assert set(merged) == set(whole)
        for key, vec in merged.items():
            assert vec.approx_equal(whole[key])
            assert vec.count == whole[key].count

    @given(grouped_inputs(min_records=1))
    @settings(max_examples=40)
    def test_merge_matches_vector_merge_chain_bitwise(self, inputs):
        """Frame merge accumulates partials in the same left-to-right
        order as chaining SummaryVector.merge, so the results are
        bitwise identical — the property that lets the columnar scan
        replace the per-cell merge loop without changing any answer."""
        keys, arrays = inputs
        cut = keys.size // 2
        parts = [
            (keys[:cut], {n: v[:cut] for n, v in arrays.items()}),
            (keys[cut:], {n: v[cut:] for n, v in arrays.items()}),
        ]
        frames = [SummaryFrame.from_groups(k, a) for k, a in parts if k.size]
        via_frames = SummaryFrame.merge_all(frames).materialize()
        via_vectors = {}
        for k, a in parts:
            for key, vec in grouped_summaries_scalar(k, a).items():
                existing = via_vectors.get(key)
                via_vectors[key] = vec if existing is None else existing.merge(vec)
        assert via_frames == via_vectors

    def test_merge_attribute_mismatch_raises(self):
        a = SummaryFrame.from_groups(np.array(["k"]), {"x": np.array([1.0])})
        b = SummaryFrame.from_groups(np.array(["k"]), {"y": np.array([1.0])})
        with pytest.raises(StatisticsError):
            a.merge(b)

    def test_merge_all_empty_raises(self):
        with pytest.raises(StatisticsError):
            SummaryFrame.merge_all([])

    def test_frame_repr_and_len(self):
        frame = SummaryFrame.from_groups(
            np.array(["a", "b", "a"]), {"x": np.array([1.0, 2.0, 3.0])}
        )
        assert len(frame) == 2
        assert frame.attributes == ["x"]
        assert "bins=2" in repr(frame)


def keyword_vectors(frame: SummaryFrame) -> list[SummaryVector]:
    """The keyword-argument materialization ``vectors()`` replaced: one
    ``AttributeSummary(count=..., total=..., ...)`` per bin and attribute,
    indexed element by element."""
    counts = frame.counts.tolist()
    columns = {
        name: tuple(column.tolist() for column in c) for name, c in frame.columns.items()
    }
    return [
        SummaryVector._trusted(
            {
                name: AttributeSummary(
                    count=counts[i],
                    total=cols[0][i],
                    total_sq=cols[1][i],
                    minimum=cols[2][i],
                    maximum=cols[3][i],
                )
                for name, cols in columns.items()
            }
        )
        for i in range(len(counts))
    ]


def summary_bits(vector: SummaryVector) -> list[tuple[str, type, bytes]]:
    """Attribute order, summary type and the exact bits of every field."""
    return [
        (name, type(s), struct.pack("<qdddd", *s))
        for name, s in vector._summaries.items()
    ]


class TestPositionalMaterialization:
    """``vectors()`` builds summaries positionally; it must equal the
    keyword build bit for bit and keep the frame's attribute order (the
    codec's ``cells`` node lowers a vector's attributes in that order)."""

    @given(grouped_inputs(), st.integers(1, 6))
    @settings(max_examples=60)
    def test_equals_the_keyword_build(self, inputs, num_attrs):
        keys, arrays = inputs
        base = next(iter(arrays.values()))
        # Names out of sorted order, so insertion order is what is checked.
        names = [f"a{(7 * i) % num_attrs}x{i}" for i in range(num_attrs)][::-1]
        wide = {name: base * (i + 1) for i, name in enumerate(names)}
        frame = SummaryFrame.from_groups(keys, wide)
        got, want = frame.vectors(), keyword_vectors(frame)
        assert [summary_bits(v) for v in got] == [summary_bits(v) for v in want]
        for vector in got:
            assert list(vector._summaries) == names

    def test_empty_summaries_and_negative_zero(self):
        """A merged-in empty row keeps its ±inf extrema and a −0.0 total
        keeps its sign."""
        empty = SummaryFrame(
            ids=np.array([3, 5], dtype=np.uint64),
            counts=np.array([0, 2], dtype=np.int64),
            columns={
                name: (
                    np.array([0.0, -0.0]),
                    np.array([0.0, 0.0]),
                    np.array([math.inf, -0.0]),
                    np.array([-math.inf, -0.0]),
                )
                for name in ("z", "a", "m")
            },
        )
        got, want = empty.vectors(), keyword_vectors(empty)
        assert [summary_bits(v) for v in got] == [summary_bits(v) for v in want]
        assert got[0]["a"] == AttributeSummary.empty() and got[0].is_empty
        assert math.copysign(1.0, got[1]["m"].total) == -1.0
        assert list(got[1]._summaries) == ["z", "a", "m"]

    def test_no_rows(self):
        frame = SummaryFrame.from_groups(np.array([], dtype=np.int64), {"t": np.array([])})
        assert frame.vectors() == [] == keyword_vectors(frame)
