"""Integer bin ids for the scan->bin->summary pipeline.

A bin id packs one spatiotemporal cell into a single uint64::

    id = (spatial_code << TEMPORAL_CODE_BITS[resolution]) | temporal_code

where ``spatial_code`` is the interleaved geohash bit-code
(:func:`repro.geo.geohash.spatial_codes`, 5 bits per character) and
``temporal_code`` is the integer epoch bin
(:func:`repro.geo.temporal.bin_epoch_codes`, e.g. days since 1970 at
DAY).  Grouping observations then means sorting uint64s instead of
composite ``"<geohash>@<timekey>"`` strings — an order-of-magnitude
cheaper factorization for the same bins.

Ordering is preserved: the geohash alphabet is ASCII-ascending and ISO
time labels sort chronologically, so sorting bin ids yields exactly the
same group order as sorting composite string labels would
(``tests/reference.py`` keeps the label builder so the suites can pin
that).

The packing needs ``5 * precision + TEMPORAL_CODE_BITS[resolution]``
bits, and a (precision, resolution) pair that needs more than 64 is
outside what the scan layer supports: :func:`bin_ids` raises
:class:`~repro.errors.TemporalError` for it.  Precision 8 fits at every
temporal resolution, which is why
:class:`~repro.geo.resolution.ResolutionSpace` stops there.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TemporalError
from repro.geo.geohash import label_of_code, spatial_codes
from repro.geo.temporal import (
    TemporalResolution,
    TimeKey,
    bin_epoch_codes,
    time_key_of_code,
)

#: Bits reserved for the temporal code at each resolution.  Sized so the
#: representable range is generous (4096 years; ~65k months / ~1.4M days /
#: ~1.9M hours since 1970) while leaving spatial room for geohash
#: precision 8 even at HOUR.
TEMPORAL_CODE_BITS: dict[TemporalResolution, int] = {
    TemporalResolution.YEAR: 12,
    TemporalResolution.MONTH: 16,
    TemporalResolution.DAY: 20,
    TemporalResolution.HOUR: 24,
}


def supports_bin_ids(precision: int, resolution: TemporalResolution) -> bool:
    """True if (precision, resolution) bins fit the packed uint64 scheme."""
    return 5 * precision + TEMPORAL_CODE_BITS[resolution] <= 64


def bin_ids(
    lats: np.ndarray,
    lons: np.ndarray,
    epochs: np.ndarray,
    precision: int,
    resolution: TemporalResolution,
) -> np.ndarray:
    """Vectorized spatiotemporal binning to packed uint64 bin ids.

    Raises :class:`~repro.errors.TemporalError` if the pair is
    outside the packed domain (see :func:`supports_bin_ids`) or any epoch falls
    outside the representable temporal range (pre-1970 instants have
    negative temporal codes and cannot be packed).  Coordinate
    validation (non-finite / out-of-range) is inherited from
    :func:`~repro.geo.geohash.spatial_codes`.
    """
    bits = TEMPORAL_CODE_BITS[resolution]
    if not supports_bin_ids(precision, resolution):
        raise TemporalError(
            f"bin ids need {5 * precision + bits} bits for precision "
            f"{precision} at {resolution.name}; max is 64"
        )
    spatial = spatial_codes(lats, lons, precision)
    temporal = bin_epoch_codes(epochs, resolution)
    if temporal.size:
        lo = int(temporal.min())
        hi = int(temporal.max())
        if lo < 0 or hi >= (1 << bits):
            raise TemporalError(
                f"temporal code out of packed range [0, 2^{bits}) at "
                f"{resolution.name}: [{lo}, {hi}]"
            )
    return (spatial << np.uint64(bits)) | temporal.astype(np.uint64)


def decode_bin_ids(
    ids: np.ndarray, precision: int, resolution: TemporalResolution
) -> list[tuple[str, TimeKey]]:
    """Unpack bin ids to (geohash string, TimeKey) pairs, in array order.

    The inverse of :func:`bin_ids` for ids it produced.  Callers build
    :class:`~repro.core.keys.CellKey` objects from the pairs — this
    module stays below ``core`` in the import graph.
    """
    bits = TEMPORAL_CODE_BITS[resolution]
    mask = (1 << bits) - 1
    # Scans see few distinct temporal bins: decode each code once.
    key_of: dict[int, TimeKey] = {}
    pairs = []
    for bin_id in np.asarray(ids, dtype=np.uint64).tolist():
        code = bin_id & mask
        key = key_of.get(code)
        if key is None:
            key = key_of[code] = time_key_of_code(code, resolution)
        pairs.append((label_of_code(bin_id >> bits, precision), key))
    return pairs
