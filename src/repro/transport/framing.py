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
from repro.query.model import AggregationQuery
from repro.transport import codec

_HEADER = struct.Struct(">I")

#: Upper bound on one frame's body, derived from the largest legitimate
#: message: an ``evaluate`` / ``fetch_cells`` reply or a ``populate``
#: payload carries at most one footprint, ``MAX_FOOTPRINT_CELLS`` cells,
#: and one node can own all of them (ownership is by partition prefix).
#: A ``cells`` node takes 202.6 B per cell at precision 4 and 239.7 B at
#: the longest key (precision 12, hourly, nine-digit counts; four
#: attributes), so 256 B per cell bounds it: 512 MB.  Repair batches
#: (``MAX_REPAIR_CELLS``) and gossip digests are far smaller.  A larger
#: header is a corrupt or hostile stream.
MAX_FRAME_BYTES = AggregationQuery.MAX_FOOTPRINT_CELLS * 256


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
