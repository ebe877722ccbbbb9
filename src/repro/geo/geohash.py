"""Geohash encoding/decoding and topology (paper sections IV-A, IV-B).

Geohashes [Niemeyer 1999] are the spatial index of both Galileo and STASH:
a base-32 string where each added character splits the cell 32 ways
(8 x 4 or 4 x 8 alternating), so prefix truncation is spatial parentage.

Hot paths (binning millions of observations) use the vectorized
:func:`encode_many` (strings) or :func:`spatial_codes` (raw interleaved
uint64 bit-codes, the integer form the scan pipeline bins on); the
scalar functions serve topology queries (children, shift, antipode)
on individual cells.  Both interleave the two bin indices through one
byte-spread table (:data:`_SPREAD`): a byte of index becomes 16 bits of
code in one lookup, so an axis costs one gather up to precision 3 (8
bits), two up to 6, four at 12 — whatever the array length.

Coordinate contract: every encoder — scalar and vectorized — rejects
non-finite (NaN / ±inf) and out-of-range coordinates with
:class:`~repro.errors.GeohashError`.  NaN comparisons are all-False, so
without the explicit finiteness check a NaN would sail through a
min/max range test and turn into a garbage geohash via integer casting.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GeohashError
from repro.geo.bbox import BoundingBox

#: Canonical geohash base-32 alphabet (no a, i, l, o).
GEOHASH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"
_CHAR_TO_VAL = {c: i for i, c in enumerate(GEOHASH_ALPHABET)}
#: Ten bits of bit-code -> the two characters that spell them.
_PAIRS = tuple(a + b for a in GEOHASH_ALPHABET for b in GEOHASH_ALPHABET)

#: Maximum precision supported (60 bits fits comfortably in uint64).
MAX_PRECISION = 12

#: Byte -> its 8 bits moved to the even positions of 16 (a zero after
#: each), as Python ints for the scalar path and uint64 for the gathers.
_SPREAD = tuple(
    sum(((byte >> bit) & 1) << (2 * bit) for bit in range(8)) for byte in range(256)
)
_SPREAD_U64 = np.array(_SPREAD, dtype=np.uint64)
#: The inverse: 16 bits with the odd positions clear -> the byte.
_COMPACT = {spread: byte for byte, spread in enumerate(_SPREAD)}


def _bit_counts(precision: int) -> tuple[int, int]:
    """(lon_bits, lat_bits) for a geohash of the given length.

    Geohash interleaves bits starting with longitude, so odd total bit
    counts give longitude one extra bit.
    """
    total = 5 * precision
    lon_bits = (total + 1) // 2
    lat_bits = total // 2
    return lon_bits, lat_bits


def _check_precision(precision: int) -> None:
    if not 1 <= precision <= MAX_PRECISION:
        raise GeohashError(
            f"precision must be in [1, {MAX_PRECISION}], got {precision}"
        )


def cell_dimensions(precision: int) -> tuple[float, float]:
    """(height_degrees, width_degrees) of one cell at ``precision``."""
    _check_precision(precision)
    lon_bits, lat_bits = _bit_counts(precision)
    return 180.0 / (1 << lat_bits), 360.0 / (1 << lon_bits)


def encode(lat: float, lon: float, precision: int) -> str:
    """Encode a point to a geohash string of the given length.

    Non-finite (NaN / ±inf) coordinates raise :class:`GeohashError`.
    """
    _check_precision(precision)
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise GeohashError(f"non-finite coordinate: ({lat}, {lon})")
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise GeohashError(f"coordinate out of range: ({lat}, {lon})")
    lon_bits, lat_bits = _bit_counts(precision)
    # Closed-open binning; clamp the exact top edge into the last cell.
    lat_idx = min(int((lat + 90.0) / 180.0 * (1 << lat_bits)), (1 << lat_bits) - 1)
    lon_idx = min(int((lon + 180.0) / 360.0 * (1 << lon_bits)), (1 << lon_bits) - 1)
    return _from_indices(lat_idx, lon_idx, precision)


def _spread(table, idx, bits: int):
    """``idx`` (below ``2 ** bits``) with a zero bit after each of its bits.

    One table lookup per byte of index, most significant first; works on
    a Python int with :data:`_SPREAD` and on an integer array with
    :data:`_SPREAD_U64`.
    """
    shift = (bits - 1) & ~7
    out = table[idx >> shift]
    while shift:
        shift -= 8
        out = (out << 16) | table[(idx >> shift) & 0xFF]
    return out


def _compact(code: int, bits: int) -> int:
    """Inverse of :func:`_spread`: the ``bits`` even-position bits of ``code``."""
    return sum(
        _COMPACT[(code >> (2 * shift)) & 0x5555] << shift for shift in range(0, bits, 8)
    )


def _from_indices(lat_idx: int, lon_idx: int, precision: int) -> str:
    """Build the geohash string from integer lat/lon bin indices."""
    lon_bits, lat_bits = _bit_counts(precision)
    lon = _spread(_SPREAD, lon_idx, lon_bits)
    lat = _spread(_SPREAD, lat_idx, lat_bits)
    # The code's first bit is longitude, so its last is longitude exactly
    # when the bit count (5 per character) is odd.
    interleaved = (lon | lat << 1) if precision & 1 else (lon << 1 | lat)
    return label_of_code(interleaved, precision)


def _to_indices(geohash: str) -> tuple[int, int]:
    """(lat_idx, lon_idx) integer bin indices of a geohash cell."""
    precision = len(geohash)
    _check_precision(precision)
    interleaved = geohash_to_code(geohash)
    lon_bits, lat_bits = _bit_counts(precision)
    odd = precision & 1
    return (
        _compact(interleaved >> odd, lat_bits),
        _compact(interleaved >> (1 - odd), lon_bits),
    )


def decode(geohash: str) -> tuple[float, float]:
    """Center (lat, lon) of the geohash cell."""
    box = bbox(geohash)
    return box.center


def bbox(geohash: str) -> BoundingBox:
    """Bounding box of the geohash cell."""
    precision = len(geohash)
    lat_idx, lon_idx = _to_indices(geohash)
    height, width = cell_dimensions(precision)
    south = -90.0 + lat_idx * height
    west = -180.0 + lon_idx * width
    # Guard the top edge against float rounding past the globe bounds.
    return BoundingBox(
        south=south,
        north=min(90.0, south + height),
        west=west,
        east=min(180.0, west + width),
    )


def children(geohash: str) -> list[str]:
    """All 32 one-character extensions (the spatial children)."""
    if len(geohash) >= MAX_PRECISION:
        raise GeohashError(f"geohash {geohash!r} is at max precision")
    return [geohash + c for c in GEOHASH_ALPHABET]


def shift(geohash: str, dlat_cells: int, dlon_cells: int) -> str | None:
    """Cell ``dlat_cells`` north and ``dlon_cells`` east, or None off-globe."""
    precision = len(geohash)
    lat_idx, lon_idx = _to_indices(geohash)
    lon_bits, lat_bits = _bit_counts(precision)
    row = lat_idx + dlat_cells
    if not 0 <= row < (1 << lat_bits):
        return None
    col = (lon_idx + dlon_cells) % (1 << lon_bits)
    return _from_indices(row, col, precision)


def antipode(geohash: str) -> str:
    """Geohash (same precision) of the diametrically opposite cell.

    Used by the clique-handoff helper selection (paper section VII-B-3):
    replicas of a hotspotted region are placed on the node owning the
    region "on the diametrically opposite side of the globe".
    """
    lat, lon = decode(geohash)
    anti_lat = -lat
    anti_lon = lon + 180.0 if lon < 0 else lon - 180.0
    return encode(anti_lat, anti_lon, len(geohash))


def encode_many(
    lats: np.ndarray, lons: np.ndarray, precision: int
) -> np.ndarray:
    """Vectorized geohash encoding.

    Returns an array of fixed-width unicode geohash strings.  Non-finite
    (NaN / ±inf) coordinates raise :class:`GeohashError` — the range
    check alone would not catch NaN (all its comparisons are False) and
    an integer cast of NaN produces garbage codes.  Everything is array
    arithmetic (no Python-level per-point loop): two bin-index columns,
    a table-driven interleave (:func:`_interleave_many`), one base-32
    slice per character.
    """
    return codes_to_geohashes(spatial_codes(lats, lons, precision), precision)


def spatial_codes(
    lats: np.ndarray, lons: np.ndarray, precision: int
) -> np.ndarray:
    """Vectorized geohash *bit-codes*: the interleaved uint64 form.

    The code is the geohash string's base-32 value (5 bits per
    character, lon bit first), so codes order exactly like same-precision
    geohash strings and convert losslessly via
    :func:`codes_to_geohashes` / :func:`geohash_to_code`.  This is the
    integer spatial key of the scan pipeline: binning
    sorts these uint64 codes instead of strings.

    Non-finite (NaN / ±inf) or out-of-range coordinates raise
    :class:`GeohashError`.
    """
    _check_precision(precision)
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape:
        raise GeohashError("lats and lons must have identical shapes")
    if lats.size:
        if not (bool(np.isfinite(lats).all()) and bool(np.isfinite(lons).all())):
            raise GeohashError("non-finite coordinates in spatial encoding")
        if (
            float(lats.min()) < -90.0
            or float(lats.max()) > 90.0
            or float(lons.min()) < -180.0
            or float(lons.max()) > 180.0
        ):
            raise GeohashError("coordinates out of range in spatial encoding")
    lon_bits, lat_bits = _bit_counts(precision)
    lat_idx = np.minimum(
        ((lats + 90.0) / 180.0 * (1 << lat_bits)).astype(np.intp),
        (1 << lat_bits) - 1,
    )
    lon_idx = np.minimum(
        ((lons + 180.0) / 360.0 * (1 << lon_bits)).astype(np.intp),
        (1 << lon_bits) - 1,
    )
    return _interleave_many(lat_idx, lon_idx, precision)


def _interleave_many(
    lat_idx: np.ndarray, lon_idx: np.ndarray, precision: int
) -> np.ndarray:
    """Interleave integer bin indices into uint64 geohash bit-codes.

    The two index arrays only need to broadcast against each other: a
    column of rows against a row of columns yields the whole grid.
    """
    lon_bits, lat_bits = _bit_counts(precision)
    lon = _spread(_SPREAD_U64, lon_idx, lon_bits)
    lat = _spread(_SPREAD_U64, lat_idx, lat_bits)
    return (lon | lat << 1) if precision & 1 else (lon << 1 | lat)


def codes_to_geohashes(codes: np.ndarray, precision: int) -> np.ndarray:
    """Convert uint64 geohash bit-codes back to base-32 strings."""
    _check_precision(precision)
    codes = np.asarray(codes, dtype=np.uint64)
    # Slice the interleaved value into 5-bit base-32 symbols.
    alphabet = np.frombuffer(GEOHASH_ALPHABET.encode("ascii"), dtype=np.uint8)
    out_bytes = np.empty(codes.shape + (precision,), dtype=np.uint8)
    for i in range(precision):
        shift_amt = np.uint64(5 * (precision - 1 - i))
        out_bytes[..., i] = alphabet[
            ((codes >> shift_amt) & np.uint64(0x1F)).astype(np.intp)
        ]
    return out_bytes.view(f"S{precision}").reshape(codes.shape).astype(f"U{precision}")


def label_of_code(code: int, precision: int) -> str:
    """The geohash string of one interleaved bit-code.

    The scalar inverse of :func:`geohash_to_code`, and for one code what
    :func:`codes_to_geohashes` is for an array: a geohash is its code
    read five bits at a time, here ten (two characters) per lookup in
    :data:`_PAIRS`.  A code outside ``[0, 32 ** precision)`` raises
    :class:`GeohashError`.
    """
    shift = 5 * precision
    # One test on the way through: a code too wide or negative (which
    # shifts down to -1) leaves bits above its 5 * precision.
    if not 1 <= precision <= MAX_PRECISION or code >> shift:
        _check_precision(precision)
        raise GeohashError(f"bit-code {code} is not a precision-{precision} cell")
    label = ""
    if precision & 1:
        shift -= 5
        label = GEOHASH_ALPHABET[code >> shift]
    while shift:
        shift -= 10
        label += _PAIRS[(code >> shift) & 0x3FF]
    return label


def geohash_to_code(geohash: str) -> int:
    """The interleaved bit-code of one geohash string (base-32 value)."""
    code = 0
    for ch in geohash:
        try:
            code = (code << 5) | _CHAR_TO_VAL[ch]
        except KeyError:
            raise GeohashError(
                f"invalid geohash character {ch!r} in {geohash!r}"
            ) from None
    return code
