"""Length-prefixed framing for the socket transport.

Each frame is a 4-byte big-endian length followed by one codec-encoded
payload.  :class:`FrameDecoder` is an incremental parser: feed it
whatever chunk the socket produced (half a header, three frames and a
tail, ...) and it yields every complete frame — the standard defense
against TCP's stream semantics.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import ReproError
from repro.transport import codec

_HEADER = struct.Struct(">I")

#: Upper bound on one frame's body.  Far above any real payload (large
#: query answers are a few MB); guards against a corrupt or hostile
#: header committing us to a multi-GB allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class FramingError(ReproError):
    """Malformed frame: oversized or truncated."""


def encode_frame(value: Any) -> bytes:
    """One payload -> header + body bytes."""
    body = codec.encode(value)
    if len(body) > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame parser over an arbitrary chunking of the stream."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Any]:
        """Absorb a chunk; return every frame it completed (maybe none)."""
        buffer = self._buffer
        buffer += data
        out: list[Any] = []
        offset = 0
        try:
            # Frames are cut by offset out of one view — one copy per body,
            # one ``del`` per call however many frames the chunk held.
            with memoryview(buffer) as view:
                size = len(view)
                while size - offset >= _HEADER.size:
                    (length,) = _HEADER.unpack_from(view, offset)
                    if length > MAX_FRAME_BYTES:
                        raise FramingError(
                            f"frame header claims {length} bytes "
                            f"(max {MAX_FRAME_BYTES}); corrupt stream?"
                        )
                    start = offset + _HEADER.size
                    if size - start < length:
                        break
                    offset = start + length
                    out.append(codec.decode(bytes(view[start:offset])))
        finally:
            del buffer[:offset]
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)
