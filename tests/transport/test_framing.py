"""Length-prefixed framing: incremental parsing over arbitrary chunking."""

import itertools
import struct
import tracemalloc

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keys import CellKey
from repro.data.observation import OBSERVATION_ATTRIBUTES
from repro.data.statistics import AttributeSummary, SummaryVector
from repro.geo.geohash import GEOHASH_ALPHABET
from repro.geo.temporal import TimeKey
from repro.query.model import AggregationQuery
from repro.transport.codec import CodecError
from repro.transport.framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FramingError,
    encode_frame,
)

from tests import strategies


def test_single_frame_roundtrip():
    decoder = FrameDecoder()
    frames = decoder.feed(encode_frame({"t": "msg", "x": (1, 2)}))
    assert frames == [{"t": "msg", "x": (1, 2)}]
    assert decoder.pending_bytes == 0


def test_multiple_frames_one_chunk():
    data = encode_frame(1) + encode_frame("two") + encode_frame([3.0])
    assert FrameDecoder().feed(data) == [1, "two", [3.0]]


def test_partial_reads_byte_by_byte():
    payloads = [{"i": i, "blob": "x" * 50} for i in range(3)]
    data = b"".join(encode_frame(p) for p in payloads)
    decoder = FrameDecoder()
    out = []
    for i in range(len(data)):
        out.extend(decoder.feed(data[i : i + 1]))
    assert out == payloads
    assert decoder.pending_bytes == 0


def test_partial_header_then_rest():
    data = encode_frame({"k": "v"})
    decoder = FrameDecoder()
    assert decoder.feed(data[:2]) == []  # half a header
    assert decoder.pending_bytes == 2
    assert decoder.feed(data[2:]) == [{"k": "v"}]


def test_frame_split_mid_body():
    data = encode_frame(list(range(100)))
    decoder = FrameDecoder()
    assert decoder.feed(data[:10]) == []
    assert decoder.feed(data[10:-1]) == []
    assert decoder.feed(data[-1:]) == [list(range(100))]


def test_trailing_bytes_buffered_across_frames():
    a, b = encode_frame("a"), encode_frame("b")
    decoder = FrameDecoder()
    # First frame plus half the second in one chunk.
    out = decoder.feed(a + b[: len(b) // 2])
    assert out == ["a"]
    assert decoder.pending_bytes > 0
    assert decoder.feed(b[len(b) // 2 :]) == ["b"]


def test_oversized_header_rejected():
    bad = struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x"
    with pytest.raises(FramingError, match="corrupt"):
        FrameDecoder().feed(bad)


def test_oversized_body_rejected_on_encode(monkeypatch):
    import repro.transport.framing as framing

    monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 8)
    with pytest.raises(FramingError, match="exceeds"):
        framing.encode_frame("a much longer payload than eight bytes")


def widest_reply(n: int) -> dict:
    """An ``evaluate`` reply of ``n`` cells with the longest keys a cell
    can have (precision 12, hourly) and nine-digit counts."""
    hour = TimeKey.of(2013, 2, 2, 7)
    tails = itertools.product(GEOHASH_ALPHABET, repeat=4)
    rng = np.random.default_rng(0)
    cells = {}
    for tail in itertools.islice(tails, n):
        totals = rng.random(2 * len(OBSERVATION_ATTRIBUTES)).tolist()
        cells[CellKey("9q8y7x2w" + "".join(tail), hour)] = SummaryVector(
            {
                name: AttributeSummary(999_999_999, totals[2 * i], totals[2 * i + 1], 0.0, 1.0)
                for i, name in enumerate(OBSERVATION_ATTRIBUTES)
            }
        )
    provenance = {"cells_from_cache": n, "cells_from_disk": 0}
    return {"cells": cells, "provenance": provenance, "completeness": 1.0}


def test_a_full_footprint_reply_fits_one_frame():
    """One node may own a whole footprint, so the widest reply of
    ``MAX_FOOTPRINT_CELLS`` cells must fit a frame.  Measured at 1 000 and
    2 000 cells and extrapolated linearly (the ``cells`` node is columns,
    so size is affine in the cell count)."""
    small, large = (len(encode_frame(widest_reply(n))) for n in (1_000, 2_000))
    per_cell = (large - small) / 1_000
    assert 200 < per_cell < 256
    full = small + per_cell * (AggregationQuery.MAX_FOOTPRINT_CELLS - 1_000)
    assert full <= MAX_FRAME_BYTES


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_chunking_yields_the_same_frames(data):
    """Byte-at-a-time, split headers, many frames per chunk: the decoder
    cuts by offset inside one buffer and must not care."""
    payloads = data.draw(st.lists(strategies.wire_values(), max_size=6))
    stream = b"".join(encode_frame(payload) for payload in payloads)
    decoder = FrameDecoder()
    out = []
    for chunk in data.draw(strategies.chunkings(stream)):
        out.extend(decoder.feed(chunk))
    assert out == payloads
    assert decoder.pending_bytes == 0


#: Peak traced allocation allowed per byte fed: the buffer, one resize's
#: old and new copies, and ``bytearray``'s over-allocation.
ALLOCATION_FACTOR = 4
ALLOCATION_SLACK = 64 * 1024


def test_a_claimed_frame_costs_the_bytes_fed_not_the_bytes_claimed():
    """A header may claim up to ``MAX_FRAME_BYTES`` (512 MB) and then
    trickle: the decoder holds what arrived, and reserves nothing for
    what was promised."""
    decoder = FrameDecoder()
    decoder.feed(encode_frame("warm"))
    header = struct.pack(">I", MAX_FRAME_BYTES - 1)
    chunk = b"x" * 4096
    tracemalloc.start()
    try:
        assert decoder.feed(header) == []
        for _ in range(64):
            assert decoder.feed(chunk) == []
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fed = len(header) + 64 * len(chunk)
    assert decoder.pending_bytes == fed
    assert peak <= ALLOCATION_FACTOR * fed + ALLOCATION_SLACK


def test_error_consumes_the_frames_before_it():
    """A bad frame raises out of ``feed``; what the same call had already
    cut is gone from the buffer (the caller drops the connection)."""
    decoder = FrameDecoder()
    with pytest.raises(CodecError):
        decoder.feed(encode_frame("ok") + struct.pack(">I", 2) + b"\xff\xfe" + b"tail")
    assert decoder.pending_bytes == len(b"tail")
