"""Reference twins of production kernels, and test-only tools — do not optimise.

Each reference twin here is the implementation a faster production path
replaced, moved out of ``src/`` verbatim so production has exactly one
implementation of each step while every bitwise-equivalence assertion
keeps its oracle:

* ``bin_labels`` pins ``repro.geo.binning.bin_ids``
  (tests/geo/test_binning.py, tests/data/test_observation.py);
* ``grouped_summaries_scalar`` pins ``SummaryFrame.from_groups`` /
  ``grouped_summaries`` (tests/data/test_summary_frame.py);
* ``scan_blocks_reference`` pins ``repro.storage.backend.scan_blocks``
  (tests/storage/test_backend.py) and the elastic shard scan
  (tests/baselines/test_elastic.py);
* ``scan_blocks_per_block`` pins the fused scan — ``scan_blocks`` with
  ``SummaryFrame.partials`` / ``merge_all`` — to the per-block scan it
  replaced, bit for bit (tests/storage/test_fused_scan.py);
* ``rank_victims_scalar`` pins ``repro.core.eviction.rank_victims``
  (tests/core/test_vectorized_freshness.py);
* ``neighborhood_ring`` over ``lateral_neighbors`` (``spatial_neighbors``
  + ``temporal_neighbors``, which wrap at the antimeridian) pins
  ``repro.core.freshness.query_ring`` (tests/core/test_ring_equivalence.py,
  tests/core/test_graph_plm.py) and ``repro.geo.cover.GridCover.ring``
  (tests/geo/test_cover.py); the geo and key tests check the edges
  themselves (tests/geo/test_geohash.py, tests/core/test_keys.py);
* ``interleave_reference`` pins the byte-spread table behind
  ``repro.geo.geohash._interleave_many`` / ``_from_indices`` /
  ``_to_indices`` (tests/geo/test_geohash.py);
* ``cover_codes_reference`` / ``cover_cells_reference`` /
  ``cover_ring_reference`` pin ``repro.geo.cover.GridCover.cells`` /
  ``ring`` and, through ``codes_to_geohashes``,
  ``repro.geo.geohash.label_of_code`` (tests/geo/test_cover.py,
  tests/geo/test_geohash.py);
* ``epoch_range_reference`` / ``step_reference`` /
  ``from_epoch_reference`` / ``time_key_of_code_reference`` /
  ``covering_keys_reference`` pin the
  ordinal calendar arithmetic of ``repro.geo.temporal`` to ``datetime``
  (tests/geo/test_temporal.py);
* ``extent_overlaps_reference`` pins
  ``repro.core.graph.StashGraph.invalidate_extents`` /
  ``stale_extents`` (tests/core/test_invalidate_extents.py,
  tests/core/test_live_ingest.py);
* ``TimeKeyTwin`` / ``CellKeyTwin`` / ``BlockIdTwin`` / ``ResolutionTwin``
  — the frozen dataclasses the four key classes were — pin their
  named-tuple replacements' hash, equality, order, text forms and
  validation (tests/test_key_twins.py).

The test-only tools are helpers no entry point calls, moved out of
``src/`` so that ``src/`` is what production runs
(tests/test_module_reachability.py):

* ``slot_maps_mirror_levels`` checks that a graph's freshness slot maps
  hold exactly its resident cells, level by level
  (tests/core/test_cache_state_machine.py, tests/core/test_plm_reinsert.py,
  tests/core/test_cache_consistency.py, tests/core/test_invalidate_extents.py,
  tests/core/test_live_ingest.py, tests/faults/test_gossip_cluster.py,
  tests/audit.py);
* ``bin_epochs`` labels epochs by string (tests/geo/test_temporal.py and
  ``bin_labels`` above);
* ``global_box`` / ``box_area`` / ``box_contains`` / ``boxes_intersect``
  / ``box_intersection`` / ``box_union`` / ``overlap_fraction`` are the
  box relations the geo, query, workload and session tests assert with
  (tests/geo/test_bbox.py tests them);
* ``num_spatial`` / ``num_levels`` / ``resolution_at`` /
  ``all_resolutions`` walk a ``ResolutionSpace`` level by level
  (tests/geo/test_resolution.py, tests/core/test_graph_plm.py).

These are safety code: slow on purpose, simple enough to audit by eye.
A speed-up here defeats the point — the mutation-check procedure in
docs/testing.md relies on them sharing no logic with production.
"""

from __future__ import annotations

import datetime as dt
import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.keys import CellKey
from repro.data.statistics import AttributeSummary, SummaryVector
from repro.errors import CacheError, ResolutionError, StatisticsError, TemporalError
from repro.geo import geohash as gh
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution, ResolutionSpace
from repro.geo.geohash import MAX_PRECISION, codes_to_geohashes, encode_many
from repro.geo.temporal import _DT64_UNITS, TemporalResolution, TimeKey, TimeRange


@dataclass(frozen=True, slots=True, order=True)
class TimeKeyTwin:
    """(Was ``repro.geo.temporal.TimeKey``: identity and validation.)"""

    components: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.components)
        if not 1 <= n <= 4:
            raise TemporalError(f"TimeKey needs 1-4 components, got {n}")
        year = self.components[0]
        month = self.components[1] if n > 1 else 1
        day = self.components[2] if n > 2 else 1
        hour = self.components[3] if n > 3 else 0
        try:
            dt.datetime(year, month, day, hour)
        except (ValueError, OverflowError) as exc:
            raise TemporalError(f"invalid TimeKey {self.components}: {exc}") from exc

    def __str__(self) -> str:
        fmts = ("{:04d}", "{:02d}", "{:02d}", "{:02d}")
        return "-".join(f.format(c) for f, c in zip(fmts, self.components))

    @staticmethod
    def parse(text: str) -> "TimeKeyTwin":
        try:
            parts = tuple(int(p) for p in text.split("-"))
        except ValueError as exc:
            raise TemporalError(f"cannot parse TimeKey from {text!r}") from exc
        return TimeKeyTwin(parts)


@dataclass(frozen=True, slots=True, order=True)
class CellKeyTwin:
    """(Was ``repro.core.keys.CellKey``: identity.)"""

    geohash: str
    time_key: TimeKeyTwin

    def __str__(self) -> str:
        return f"{self.geohash}@{self.time_key}"

    @staticmethod
    def parse(text: str) -> "CellKeyTwin":
        try:
            geohash, time_text = text.split("@", 1)
        except ValueError:
            raise CacheError(f"cannot parse CellKey from {text!r}") from None
        return CellKeyTwin(geohash=geohash, time_key=TimeKeyTwin.parse(time_text))


@dataclass(frozen=True, slots=True, order=True)
class BlockIdTwin:
    """(Was ``repro.data.block.BlockId``: identity.)"""

    geohash: str
    day: str

    def __str__(self) -> str:
        return f"{self.geohash}@{self.day}"


@dataclass(frozen=True, slots=True, order=True)
class ResolutionTwin:
    """(Was ``repro.geo.resolution.Resolution``: identity and validation.)"""

    spatial: int
    temporal: TemporalResolution

    def __post_init__(self) -> None:
        if not 1 <= self.spatial <= MAX_PRECISION:
            raise ResolutionError(f"spatial precision {self.spatial} out of range")

    def __str__(self) -> str:
        return f"s{self.spatial}/{self.temporal.name.lower()}"


def interleave_reference(
    lat_idx: np.ndarray, lon_idx: np.ndarray, precision: int
) -> np.ndarray:
    """Interleave integer bin indices into uint64 geohash bit-codes, one
    bit position at a time.  (Was ``geohash._interleave_many``.)"""
    total = 5 * precision
    lon_bits, lat_bits = (total + 1) // 2, total // 2
    interleaved = np.zeros(lat_idx.shape, dtype=np.uint64)
    # Even bit positions (from MSB, position 0) come from longitude.
    for i in range(lon_bits):
        bit = (lon_idx >> np.uint64(lon_bits - 1 - i)) & np.uint64(1)
        interleaved |= bit << np.uint64(total - 1 - 2 * i)
    for i in range(lat_bits):
        bit = (lat_idx >> np.uint64(lat_bits - 1 - i)) & np.uint64(1)
        interleaved |= bit << np.uint64(total - 2 - 2 * i)
    return interleaved


def cover_codes_reference(cover) -> np.ndarray:
    """A cover's bit-codes, row-major: every (row, column) pair of the
    grid interleaved as arrays.  (Was ``GridCover.codes``.)"""
    rows = np.arange(cover.lat_lo, cover.lat_hi + 1, dtype=np.uint64)
    cols = np.arange(cover.lon_lo, cover.lon_hi + 1, dtype=np.uint64)
    grid_rows, grid_cols = np.meshgrid(rows, cols, indexing="ij")
    return interleave_reference(grid_rows, grid_cols, cover.precision).ravel()


def cover_cells_reference(cover) -> list[str]:
    """A cover's geohash strings through the array pipeline.  (Was
    ``GridCover.cells``.)"""
    return codes_to_geohashes(cover_codes_reference(cover), cover.precision).tolist()


def cover_ring_reference(cover) -> list[str]:
    """The ring just outside a cover: one (row, column) index pair per
    ring cell, interleaved and labelled as arrays.  (Was
    ``GridCover.ring``.)"""
    total = 5 * cover.precision
    lon_bits, lat_bits = (total + 1) // 2, total // 2
    full = range(max(0, cover.lon_lo - 1), min(1 << lon_bits, cover.lon_hi + 2))
    sides = [col for col in (cover.lon_lo - 1, cover.lon_hi + 1) if col in full]
    rows: list[int] = []
    cols: list[int] = []
    for row in range(max(0, cover.lat_lo - 1), min(1 << lat_bits, cover.lat_hi + 2)):
        row_cols = sides if cover.lat_lo <= row <= cover.lat_hi else full
        rows += [row] * len(row_cols)
        cols += row_cols
    codes = interleave_reference(
        np.array(rows, dtype=np.uint64), np.array(cols, dtype=np.uint64), cover.precision
    )
    return codes_to_geohashes(codes, cover.precision).tolist()


def _utc(*args: int) -> dt.datetime:
    return dt.datetime(*args, tzinfo=dt.timezone.utc)


def _start_datetime(key: TimeKey) -> dt.datetime:
    return _utc(*(key.components + (1, 1)[len(key.components) - 1 :]))


def epoch_range_reference(key: TimeKey) -> tuple[float, float]:
    """A bin's [start, end) by ``datetime`` subtraction.  (Was
    ``TimeKey.start_datetime`` / ``end_datetime`` / ``epoch_range``.)"""
    res = key.resolution
    c = key.components
    start = _start_datetime(key)
    if res == TemporalResolution.YEAR:
        end = _utc(c[0] + 1, 1, 1)
    elif res == TemporalResolution.MONTH:
        end = _utc(c[0] + 1, 1, 1) if c[1] == 12 else _utc(c[0], c[1] + 1, 1)
    elif res == TemporalResolution.DAY:
        end = start + dt.timedelta(days=1)
    else:
        end = start + dt.timedelta(hours=1)
    return start.timestamp(), end.timestamp()


def step_reference(key: TimeKey, n: int) -> TimeKey:
    """The bin ``n`` steps on, by ``timedelta``.  (Was ``TimeKey.step``.)"""
    res = key.resolution
    c = key.components
    if res == TemporalResolution.YEAR:
        return TimeKey((c[0] + n,))
    if res == TemporalResolution.MONTH:
        total = c[0] * 12 + (c[1] - 1) + n
        return TimeKey((total // 12, total % 12 + 1))
    delta = dt.timedelta(days=n) if res == TemporalResolution.DAY else dt.timedelta(hours=n)
    moved = _start_datetime(key) + delta
    return TimeKey((moved.year, moved.month, moved.day, moved.hour)[: res + 1])


def from_epoch_reference(epoch_seconds: float, resolution: TemporalResolution) -> TimeKey:
    """The bin holding an instant, by ``datetime.fromtimestamp``.  (Was
    ``TimeKey.from_epoch``.)"""
    at = dt.datetime.fromtimestamp(int(epoch_seconds), tz=dt.timezone.utc)
    return TimeKey((at.year, at.month, at.day, at.hour)[: resolution + 1])


def time_key_of_code_reference(code: int, resolution: TemporalResolution) -> TimeKey:
    """One bin code through ``np.datetime64``.  (Was
    ``temporal.time_key_of_code``.)"""
    unit = {"YEAR": "Y", "MONTH": "M", "DAY": "D", "HOUR": "h"}[resolution.name]
    seconds = int(np.datetime64(int(code), unit).astype("datetime64[s]").astype(np.int64))
    return from_epoch_reference(float(seconds), resolution)


def covering_keys_reference(
    time_range: TimeRange, resolution: TemporalResolution
) -> list[TimeKey]:
    """Step from the first bin until one reaches the range's end.  (Was
    ``TimeRange.covering_keys``.)"""
    key = from_epoch_reference(time_range.start, resolution)
    out = [key]
    while epoch_range_reference(key)[1] < time_range.end:
        key = step_reference(key, 1)
        out.append(key)
    return out


def bin_epochs(epochs: np.ndarray, resolution: TemporalResolution) -> np.ndarray:
    """Vectorized temporal binning to string labels.

    Maps an array of epoch seconds to fixed-width strings of the owning
    :class:`TimeKey` (its ``str`` form), e.g. '2013-03-15' at DAY.  The
    scan pipeline bins on the integer form instead (``bin_epoch_codes``).
    (Was ``repro.geo.temporal.bin_epochs``.)
    """
    epochs = np.asarray(epochs, dtype=np.float64)
    dt64 = epochs.astype("datetime64[s]")
    unit = _DT64_UNITS[resolution.name]
    truncated = dt64.astype(f"datetime64[{unit}]")
    iso = np.datetime_as_string(truncated)
    if resolution == TemporalResolution.HOUR:
        # 'YYYY-MM-DDThh' -> 'YYYY-MM-DD-hh'
        iso = np.char.replace(iso, "T", "-")
    return iso


def bin_labels(batch, spatial_precision, temporal_resolution) -> np.ndarray:
    """Per-record composite bin label '<geohash>@<timekey>'.

    The composite string is the flat form of the paper's Cell index
    key (spatiotemporal label); grouping records by it yields exactly
    one group per non-empty cell.  (Was ``ObservationBatch.bin_keys``.)
    """
    if len(batch) == 0:
        return np.array([], dtype="U1")
    spatial = encode_many(batch.lats, batch.lons, spatial_precision)
    temporal = bin_epochs(batch.epochs, temporal_resolution)
    return np.char.add(np.char.add(spatial, "@"), temporal)


def grouped_summaries_scalar(
    group_keys: np.ndarray, arrays: dict[str, np.ndarray]
) -> dict[str, SummaryVector]:
    """Pre-``SummaryFrame`` ``grouped_summaries``, frozen as the baseline."""
    group_keys = np.asarray(group_keys)
    n = group_keys.size
    for name, values in arrays.items():
        if np.asarray(values).shape != (n,):
            raise StatisticsError(
                f"attribute {name!r} length mismatch with group keys"
            )
    if n == 0:
        return {}
    order = np.argsort(group_keys, kind="stable")
    sorted_keys = group_keys[order]
    # Segment boundaries: first index of each distinct key.
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(boundary)
    uniq = sorted_keys[starts]
    counts = np.diff(np.append(starts, n))

    per_attr: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
    for name, values in arrays.items():
        v = np.asarray(values, dtype=np.float64)[order]
        sums = np.add.reduceat(v, starts)
        sq = np.add.reduceat(np.square(v), starts)
        mins = np.minimum.reduceat(v, starts)
        maxs = np.maximum.reduceat(v, starts)
        per_attr[name] = (sums, sq, mins, maxs)

    # Convert the per-attribute columns to Python lists once — per-element
    # ndarray indexing in the loop below would dominate otherwise.
    counts_list = counts.tolist()
    columns = {
        name: (vals[0].tolist(), vals[1].tolist(), vals[2].tolist(), vals[3].tolist())
        for name, vals in per_attr.items()
    }
    labels = uniq.tolist()
    out: dict[str, SummaryVector] = {}
    for i, key in enumerate(labels):
        summaries = {
            name: AttributeSummary(
                count=counts_list[i],
                total=cols[0][i],
                total_sq=cols[1][i],
                minimum=cols[2][i],
                maximum=cols[3][i],
            )
            for name, cols in columns.items()
        }
        out[key] = SummaryVector._trusted(summaries)
    return out


def scan_blocks_reference(batches, query) -> dict[CellKey, SummaryVector]:
    """The string-label scan: label, group and chain-merge per batch.

    ``batches`` are the raw record batches in scan order (block batches
    for ``scan_blocks``, shard chunks for the elastic baseline).  (Was
    the ``columnar=False`` branch of ``scan_blocks``.)
    """
    snapped_box = query.snapped_bbox()
    snapped_time = query.snapped_time_range()
    out: dict[CellKey, SummaryVector] = {}
    for batch in batches:
        batch = batch.filter_bbox(snapped_box).filter_time(snapped_time)
        if len(batch) == 0:
            continue
        keys = bin_labels(batch, query.resolution.spatial, query.resolution.temporal)
        for label, vector in grouped_summaries_scalar(
            keys, batch.attributes
        ).items():
            cell_key = CellKey.parse(str(label))
            existing = out.get(cell_key)
            out[cell_key] = vector if existing is None else existing.merge(vector)
    return out


def scan_blocks_per_block(batches, query) -> dict[CellKey, SummaryVector]:
    """The per-block scan: group every batch on its own, then fold each
    cell's per-batch partials with one ``reduceat`` over the run, in
    batch order.

    That fold is the association ``SummaryFrame.merge_all`` gave the
    per-block frames — numpy's pairwise one from nine partials up, so
    *not* the merge chain of :func:`scan_blocks_reference`.  (Was the
    loop in ``scan_blocks``: ``from_groups`` per block, then
    ``merge_all``.)
    """
    snapped_box = query.snapped_bbox()
    snapped_time = query.snapped_time_range()
    partials: dict[str, list[SummaryVector]] = {}
    for batch in batches:
        batch = batch.filter_bbox(snapped_box).filter_time(snapped_time)
        if len(batch) == 0:
            continue
        keys = bin_labels(batch, query.resolution.spatial, query.resolution.temporal)
        for label, vector in grouped_summaries_scalar(
            keys, batch.attributes
        ).items():
            partials.setdefault(str(label), []).append(vector)

    def fold(ufunc, vectors, name, field) -> float:
        column = np.array([getattr(vector[name], field) for vector in vectors])
        return float(ufunc.reduceat(column, [0])[0])

    out: dict[CellKey, SummaryVector] = {}
    for label in sorted(partials):
        vectors = partials[label]
        out[CellKey.parse(label)] = SummaryVector(
            {
                name: AttributeSummary(
                    count=sum(vector[name].count for vector in vectors),
                    total=fold(np.add, vectors, name, "total"),
                    total_sq=fold(np.add, vectors, name, "total_sq"),
                    minimum=fold(np.minimum, vectors, name, "minimum"),
                    maximum=fold(np.maximum, vectors, name, "maximum"),
                )
                for name in vectors[0].attributes
            }
        )
    return out


def rank_victims_scalar(graph, tracker, now: float, excess: int) -> list[CellKey]:
    """Reference scalar ranking via ``tracker.score`` per cell.

    ``nsmallest`` over the (score, key) total order matches the sorted
    prefix exactly (keys are unique).
    """
    ranked = heapq.nsmallest(
        excess,
        graph.cells(),
        key=lambda cell: (tracker.score(cell, now), str(cell.key)),
    )
    return [cell.key for cell in ranked]


def spatial_neighbors(geohash: str) -> list[str]:
    """Up to 8 adjacent same-precision cells (paper Fig. 1a).

    Longitude wraps around the antimeridian; rows beyond the poles are
    omitted, so polar cells return fewer than 8 neighbors.  (Was
    ``repro.geo.geohash.neighbors``.)
    """
    precision = len(geohash)
    lat_idx, lon_idx = gh._to_indices(geohash)
    lon_bits, lat_bits = gh._bit_counts(precision)
    n_lat, n_lon = 1 << lat_bits, 1 << lon_bits
    out: list[str] = []
    for dlat in (1, 0, -1):
        row = lat_idx + dlat
        if not 0 <= row < n_lat:
            continue
        for dlon in (-1, 0, 1):
            if dlat == 0 and dlon == 0:
                continue
            col = (lon_idx + dlon) % n_lon
            out.append(gh._from_indices(row, col, precision))
    return out


def temporal_neighbors(time_key: TimeKey) -> list[TimeKey]:
    """The two adjacent bins (paper Fig. 1b).  (Was ``TimeKey.neighbors``.)"""
    return [time_key.step(-1), time_key.step(1)]


def lateral_neighbors(key: CellKey) -> list[CellKey]:
    """The full lateral edge set: 8 spatial + 2 temporal neighbors.

    (Was ``CellKey.lateral_neighbors``.)
    """
    return [CellKey(nb, key.time_key) for nb in spatial_neighbors(key.geohash)] + [
        CellKey(key.geohash, tk) for tk in temporal_neighbors(key.time_key)
    ]


def neighborhood_ring(footprint: list[CellKey]) -> list[CellKey]:
    """The immediate spatiotemporal neighborhood of a footprint.

    All lateral neighbors (8 spatial + 2 temporal) of footprint cells that
    are not themselves in the footprint — the grey cells of paper Fig. 3.
    General-purpose O(cells x 10) form.
    """
    members = set(footprint)
    ring: dict[CellKey, None] = {}
    for key in footprint:
        for neighbor in lateral_neighbors(key):
            if neighbor not in members and neighbor not in ring:
                ring[neighbor] = None
    return list(ring)


def extent_overlaps_reference(cell_key: CellKey, touched_blocks) -> bool:
    """Does a cached cell's extent overlap any touched storage block?

    Temporal overlap by comparing ``epoch_range`` intervals, spatial
    overlap by a prefix test in both directions (the cell encloses the
    block, or the block encloses the cell).  (Was the ``overlaps``
    closure of ``StashCluster.ingest_live``.)
    """
    cell_range = cell_key.time_key.epoch_range()
    geohash = cell_key.geohash
    for block_id in touched_blocks:
        day_range = block_id.time_key.epoch_range()
        if not (
            cell_range.start <= day_range.start < cell_range.end
            or day_range.start <= cell_range.start < day_range.end
        ):
            continue
        prefix = block_id.geohash
        if prefix.startswith(geohash) or geohash.startswith(prefix):
            return True
    return False


def slot_maps_mirror_levels(graph) -> None:
    """Assert that, per level, the freshness slot map holds exactly the
    resident cells.

    Residency is the paper's PLM (a cell is complete iff it is resident),
    and every resident cell owns one freshness slot.  A resident's level
    is computed from its key, so a cell filed under the wrong level shows
    up too.  Raises ``AssertionError`` naming every slot whose cell is
    absent and every cell without a slot.  (Was ``plm_mirrors_graph``,
    the PLM <-> graph check, when the PLM stored a block set per cell.)
    """
    resident: dict[int, set[CellKey]] = {}
    for cell in graph.cells():
        resident.setdefault(graph.level_of(cell.key), set()).add(cell.key)
    slotted = {level: set(columns.slot_of) for level, columns in graph._columns.items()}
    findings = []
    for level in sorted(resident.keys() | slotted.keys()):
        cells, keys = resident.get(level, set()), slotted.get(level, set())
        findings += [
            f"{graph.name}: slot for {key} at level {level} but the cell is absent"
            for key in sorted(keys - cells, key=str)
        ]
        findings += [
            f"{graph.name}: cell {key} at level {level} has no slot"
            for key in sorted(cells - keys, key=str)
        ]
    assert not findings, "\n".join(findings)


def global_box() -> BoundingBox:
    """The whole-globe box.  (Was ``BoundingBox.global_box``.)"""
    return BoundingBox(-90.0, 90.0, -180.0, 180.0)


def box_area(box: BoundingBox) -> float:
    """Degree-squared area (not great-circle area).  (Was ``BoundingBox.area``.)"""
    return box.height * box.width


def box_contains(outer: BoundingBox, inner: BoundingBox) -> bool:
    """``inner`` is fully inside (or equal to) ``outer``."""
    return (
        outer.south <= inner.south
        and inner.north <= outer.north
        and outer.west <= inner.west
        and inner.east <= outer.east
    )


def boxes_intersect(a: BoundingBox, b: BoundingBox) -> bool:
    """The two boxes share interior area."""
    return a.south < b.north and b.south < a.north and a.west < b.east and b.west < a.east


def box_intersection(a: BoundingBox, b: BoundingBox) -> BoundingBox | None:
    """The overlapping rectangle, or None when disjoint."""
    if not boxes_intersect(a, b):
        return None
    return BoundingBox(
        max(a.south, b.south), min(a.north, b.north), max(a.west, b.west), min(a.east, b.east)
    )


def box_union(a: BoundingBox, b: BoundingBox) -> BoundingBox:
    """Smallest box covering both."""
    return BoundingBox(
        min(a.south, b.south), max(a.north, b.north), min(a.west, b.west), max(a.east, b.east)
    )


def overlap_fraction(box: BoundingBox, other: BoundingBox) -> float:
    """Fraction of ``box``'s area covered by ``other``."""
    inter = box_intersection(box, other)
    if inter is None or box_area(box) == 0.0:
        return 0.0
    return box_area(inter) / box_area(box)


def num_spatial(space: ResolutionSpace) -> int:
    """The paper's ``n_s``.  (Was ``ResolutionSpace.num_spatial``.)"""
    return space.max_spatial - space.min_spatial + 1


def num_levels(space: ResolutionSpace) -> int:
    """``n_s x n_t``.  (Was ``ResolutionSpace.num_levels``.)"""
    return num_spatial(space) * space.num_temporal


def resolution_at(space: ResolutionSpace, level: int) -> Resolution:
    """Inverse of ``space.level_of``.  (Was ``ResolutionSpace.resolution_at``.)"""
    if not 0 <= level < num_levels(space):
        raise ResolutionError(f"level {level} out of [0, {num_levels(space)})")
    spatial_idx, temporal_idx = divmod(level, space.num_temporal)
    return Resolution(space.min_spatial + spatial_idx, TemporalResolution(temporal_idx))


def all_resolutions(space: ResolutionSpace) -> list[Resolution]:
    """Every resolution of ``space``, in level order."""
    return [resolution_at(space, level) for level in range(num_levels(space))]
