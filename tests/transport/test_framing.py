"""Length-prefixed framing: incremental parsing over arbitrary chunking."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_error_consumes_the_frames_before_it():
    """A bad frame raises out of ``feed``; what the same call had already
    cut is gone from the buffer (the caller drops the connection)."""
    decoder = FrameDecoder()
    with pytest.raises(CodecError):
        decoder.feed(encode_frame("ok") + struct.pack(">I", 2) + b"\xff\xfe" + b"tail")
    assert decoder.pending_bytes == len(b"tail")
