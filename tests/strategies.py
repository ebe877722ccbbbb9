"""Shared hypothesis strategies for the whole test suite.

One place for the domain vocabulary — coordinates, geohashes, bounding
boxes, cell keys, resolutions, time ranges, and full aggregation
queries — instead of near-identical ``@st.composite`` definitions
copy-pasted per test file.  Strategies default to the ranges the seeded
test datasets actually cover (February 2013, the NAM domain), so a drawn
query is usually non-empty.
"""

import calendar

import numpy as np
from hypothesis import strategies as st

from repro.core.keys import CellKey
from repro.data.block import BlockId
from repro.data.observation import ObservationBatch
from repro.geo import geohash as gh
from repro.geo.bbox import BoundingBox
from repro.geo.cover import GridCover
from repro.geo.resolution import Resolution, ResolutionSpace
from repro.geo.temporal import TemporalResolution, TimeKey, TimeRange
from repro.query.model import AggregationQuery

#: Whole-globe scalar coordinate strategies.
lats = st.floats(-90, 90, allow_nan=False)
lons = st.floats(-180, 180, allow_nan=False)
precisions = st.integers(1, 8)


def geohashes(
    min_precision: int = 1,
    max_precision: int = 8,
    alphabet: str = gh.GEOHASH_ALPHABET,
):
    """Valid geohash strings within a precision range.

    A two- or three-character ``alphabet`` makes independently drawn
    labels nest (one a prefix of the other) often enough to test
    containment; the full alphabet almost never does.
    """
    return st.text(alphabet, min_size=min_precision, max_size=max_precision)


def boxes(min_size: float = 1e-3) -> "st.SearchStrategy[BoundingBox]":
    """Non-degenerate bounding boxes anywhere on the globe."""

    @st.composite
    def _box(draw):
        south = draw(st.floats(-90, 90 - min_size))
        north = draw(st.floats(south + min_size, 90))
        west = draw(st.floats(-180, 180 - min_size))
        east = draw(st.floats(west + min_size, 180))
        return BoundingBox(south, north, west, east)

    return _box()


def small_boxes() -> "st.SearchStrategy[BoundingBox]":
    """Boxes a few degrees across, away from the poles/antimeridian —
    sized so geohash covers at precisions 2-4 stay small."""

    @st.composite
    def _box(draw):
        south = draw(st.floats(-60, 55))
        west = draw(st.floats(-170, 160))
        height = draw(st.floats(0.5, 5.0))
        width = draw(st.floats(0.5, 5.0))
        return BoundingBox(south, south + height, west, west + width)

    return _box()


def grid_covers(max_side: int = 12) -> "st.SearchStrategy[GridCover]":
    """Covers of every precision, up to ``max_side`` cells a side, drawn
    as index ranges: as often as not flush against a pole or the
    antimeridian, and often one cell wide or tall (1 x n, n x 1)."""

    @st.composite
    def _cover(draw):
        precision = draw(st.integers(1, gh.MAX_PRECISION))
        lon_bits, lat_bits = gh._bit_counts(precision)

        def axis(bits: int) -> tuple[int, int]:
            cells = 1 << bits
            side = min(cells, draw(st.sampled_from((1, 1, 2, 3, max_side))))
            lo = draw(st.sampled_from((0, cells - side)) | st.integers(0, cells - side))
            return lo, lo + side - 1

        return GridCover(precision, *axis(lat_bits), *axis(lon_bits))

    return _cover()


def resolutions(
    min_spatial: int = 1, max_spatial: int = 8
) -> "st.SearchStrategy[Resolution]":
    """Any (spatial precision, temporal resolution) pair in range."""
    return st.builds(
        Resolution,
        st.integers(min_spatial, max_spatial),
        st.sampled_from(list(TemporalResolution)),
    )


def spaces() -> "st.SearchStrategy[ResolutionSpace]":
    """Valid resolution spaces (lo <= hi)."""

    @st.composite
    def _space(draw):
        lo = draw(st.integers(1, 6))
        hi = draw(st.integers(lo, 8))
        return ResolutionSpace(lo, hi)

    return _space()


def time_keys(
    year: int = 2013,
) -> "st.SearchStrategy[TimeKey]":
    """Time keys of every temporal resolution within one year."""

    @st.composite
    def _key(draw):
        res = draw(st.sampled_from(list(TemporalResolution)))
        month = draw(st.integers(1, 12))
        day = draw(st.integers(1, 28))
        hour = draw(st.integers(0, 23))
        parts = (year, month, day, hour)[: res + 1]
        return TimeKey(parts)

    return _key()


def calendar_time_keys() -> "st.SearchStrategy[TimeKey]":
    """Time keys of every resolution across the whole calendar, leaning
    on where stepping carries: month ends, leap days, year boundaries,
    hours 0 and 23, and the years either side of 1970."""
    edge_days = st.sampled_from(
        [(12, 31), (1, 1), (1, 31), (2, 28), (2, 29), (3, 1), (4, 30), (6, 15)]
    )
    years = st.sampled_from((1600, 1900, 1969, 1970, 2000, 2012, 2013, 2100)) | (
        st.integers(2, 9998)
    )

    @st.composite
    def _key(draw):
        year = draw(years)
        month, day = draw(edge_days | st.tuples(st.integers(1, 12), st.integers(1, 28)))
        if (month, day) == (2, 29) and not calendar.isleap(year):
            day = 28
        hour = draw(st.sampled_from((0, 23)) | st.integers(0, 23))
        return TimeKey((year, month, day, hour)[: draw(st.integers(1, 4))])

    return _key()


#: The days either side of a year boundary and of a month boundary, and
#: the day after — where "which bin encloses which" is easiest to get wrong.
BOUNDARY_DAYS = (
    (2012, 12, 31),
    (2013, 1, 1),
    (2013, 1, 31),
    (2013, 2, 1),
    (2013, 2, 2),
)


def boundary_time_keys() -> "st.SearchStrategy[TimeKey]":
    """Time keys of every resolution on :data:`BOUNDARY_DAYS`, at the
    first, a middle and the last hour of the day."""
    return st.builds(
        lambda day, hour, length: TimeKey((*day, hour)[:length]),
        st.sampled_from(BOUNDARY_DAYS),
        st.sampled_from((0, 12, 23)),
        st.integers(1, 4),
    )


def block_ids(
    precision: int, alphabet: str = gh.GEOHASH_ALPHABET
) -> "st.SearchStrategy[BlockId]":
    """Storage block ids at one block precision on :data:`BOUNDARY_DAYS`."""
    return st.builds(
        BlockId,
        geohashes(precision, precision, alphabet),
        st.sampled_from(BOUNDARY_DAYS).map(lambda day: str(TimeKey(day))),
    )


def cell_keys(
    min_precision: int = 2, max_precision: int = 6
) -> "st.SearchStrategy[CellKey]":
    """Cell keys across precisions and all temporal resolutions."""

    @st.composite
    def _key(draw):
        precision = draw(st.integers(min_precision, max_precision))
        code = draw(
            st.text(gh.GEOHASH_ALPHABET, min_size=precision, max_size=precision)
        )
        return CellKey(geohash=code, time_key=draw(time_keys()))

    return _key()


def day_ranges(
    first_day: int = 1, last_day: int = 4, max_span: int = 3
) -> "st.SearchStrategy[TimeRange]":
    """Time ranges spanning whole February-2013 days (the test datasets)."""

    @st.composite
    def _range(draw):
        start = draw(st.integers(first_day, last_day))
        span = draw(st.integers(1, min(max_span, last_day - start + 1)))
        return TimeRange(
            TimeKey.of(2013, 2, start).epoch_range().start,
            TimeKey.of(2013, 2, start + span - 1).epoch_range().end,
        )

    return _range()


def queries(
    min_precision: int = 2,
    max_precision: int = 4,
    first_day: int = 1,
    last_day: int = 4,
    multi_day: bool = False,
) -> "st.SearchStrategy[AggregationQuery]":
    """Aggregation queries over the seeded test datasets' extent.

    Rectangles land inside the NAM domain; days default to the single-day
    shape the original equivalence suite used (set ``multi_day`` for
    ranges spanning several days).
    """

    @st.composite
    def _query(draw):
        south = draw(st.floats(15.0, 55.0))
        west = draw(st.floats(-145.0, -65.0))
        height = draw(st.floats(1.0, 8.0))
        width = draw(st.floats(1.0, 10.0))
        precision = draw(st.integers(min_precision, max_precision))
        temporal = draw(
            st.sampled_from([TemporalResolution.DAY, TemporalResolution.HOUR])
        )
        if multi_day:
            time_range = draw(day_ranges(first_day, last_day))
        else:
            day = draw(st.integers(first_day, last_day))
            time_range = TimeKey.of(2013, 2, day).epoch_range()
        return AggregationQuery(
            bbox=BoundingBox(
                south, min(90.0, south + height), west, min(180.0, west + width)
            ),
            time_range=time_range,
            resolution=Resolution(precision, temporal),
        )

    return _query()


#: Values that make a summation order or a lost sign visible.
AWKWARD_VALUES = (0.0, -0.0, 1.0, 0.1, -0.1, 1e15, -1e15, 3.0)


def crowded_records(
    records: int, seed: int, attributes: tuple[str, ...] = ("a", "b")
) -> ObservationBatch:
    """``records`` seeded observations crowded into a few degrees of the
    NAM domain on 2013-02-01..04, so that cells hold many records.

    Attribute values mix wide magnitudes with repeats and both zeros
    (:data:`AWKWARD_VALUES`): regrouping the same records in another
    order then changes the low bits of a sum.
    """
    rng = np.random.default_rng(seed)
    start = TimeKey.of(2013, 2, 1).epoch_range().start
    return ObservationBatch(
        lats=rng.uniform(30.0, 34.0, records),
        lons=rng.uniform(-110.0, -104.0, records),
        epochs=start + rng.uniform(0.0, 4 * 86_400.0 - 1.0, records),
        attributes={
            name: np.where(
                rng.random(records) < 0.4,
                rng.choice(AWKWARD_VALUES, records),
                rng.normal(size=records) * 10.0 ** rng.integers(-3, 9, records),
            )
            for name in attributes
        },
    )


def record_batches(
    max_records: int = 300, attributes: tuple[str, ...] = ("a", "b")
) -> "st.SearchStrategy[ObservationBatch]":
    """:func:`crowded_records` of a drawn size and seed (hypothesis picks
    the two integers; the arrays come from numpy)."""
    return st.builds(
        crowded_records,
        st.integers(0, max_records),
        st.integers(0, 2**32 - 1),
        st.just(attributes),
    )


#: Shared events / stores an engine program's steps may name.
ENGINE_PROGRAM_EVENTS = 4
ENGINE_PROGRAM_STORES = 2


def engine_programs() -> "st.SearchStrategy[list[list[tuple]]]":
    """Zero-delay generator programs for the sim / asyncio engine pair.

    A program is a list of process bodies; a body is a list of steps over
    a few shared events and stores: ``("succeed", e)``, ``("wait", e)``,
    ``("put", s, value)``, ``("get", s)``, ``("sleep",)`` (a
    ``timeout(0)``), ``("all_of", [e...])``, ``("any_of", [e...])`` and
    ``("spawn", body, join)``.  Nothing guarantees progress — a body may
    wait on an event nobody succeeds — so an interpreter runs a program
    until the engine goes quiet, not until every process returns.
    """
    events = st.integers(0, ENGINE_PROGRAM_EVENTS - 1)
    stores = st.integers(0, ENGINE_PROGRAM_STORES - 1)
    step = st.one_of(
        st.tuples(st.just("succeed"), events),
        st.tuples(st.just("wait"), events),
        st.tuples(st.just("put"), stores, st.integers(0, 9)),
        st.tuples(st.just("get"), stores),
        st.tuples(st.just("sleep")),
        st.tuples(st.just("all_of"), st.lists(events, max_size=3)),
        st.tuples(st.just("any_of"), st.lists(events, min_size=1, max_size=3)),
    )
    body = st.recursive(
        st.lists(step, max_size=6),
        lambda children: st.lists(
            st.one_of(step, st.tuples(st.just("spawn"), children, st.booleans())),
            max_size=6,
        ),
        max_leaves=12,
    )
    return st.lists(body, min_size=1, max_size=4)


def wire_values() -> "st.SearchStrategy":
    """Plain values the codec carries unchanged (no NaN: it breaks ``==``)."""
    return st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-(2**40), 2**40)
        | st.floats(allow_nan=False)
        | st.text(max_size=12),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=10,
    )


def metric_operations(
    max_registries: int = 4,
) -> "st.SearchStrategy[tuple[int, list[tuple[int, str, str, float]]]]":
    """``(k, [(registry index, kind, name, value), ...])``: counter
    increments and histogram observations dealt over ``k`` >= 1
    registries.  Few names, so the same counter or histogram is usually
    written from several registries; latencies span underflow to
    overflow buckets."""
    counter_ops = st.tuples(
        st.just("counter"), st.sampled_from(("hits", "reads", "handled:scan")),
        st.integers(0, 1000),
    )
    histogram_ops = st.tuples(
        st.just("histogram"), st.sampled_from(("cluster", "class.pan", "node.node-0")),
        st.floats(0.0, 1e5, allow_nan=False),
    )

    @st.composite
    def _dealt(draw):
        k = draw(st.integers(1, max_registries))
        ops = draw(st.lists(counter_ops | histogram_ops, max_size=40))
        return k, [(draw(st.integers(0, k - 1)), *op) for op in ops]

    return _dealt()


def chunkings(data: bytes) -> "st.SearchStrategy[list[bytes]]":
    """Every way to cut ``data`` into consecutive non-empty chunks."""

    def cut(cuts: set[int]) -> list[bytes]:
        edges = [0, *sorted(cuts), len(data)]
        return [data[a:b] for a, b in zip(edges, edges[1:]) if data[a:b]]

    return st.sets(st.integers(1, max(1, len(data) - 1)), max_size=40).map(cut)


def hostile_http_requests(valid: bytes) -> "st.SearchStrategy[bytes]":
    """Bytes to throw at an HTTP edge as a request: pure noise, noise
    behind a plausible request line, and ``valid`` after a few drawn
    edits (overwrite, insert, delete, truncate) — the near-misses that
    reach further into a parser than noise does."""
    spans = st.tuples(
        st.integers(0, len(valid)),
        st.sampled_from(("overwrite", "insert", "delete", "truncate")),
        st.binary(min_size=1, max_size=6)
        | st.sampled_from((b"\r\n", b"\n", b"\x00", b" ", b":", b"\r\n\r\n", b"\xff")),
    )

    def edit(edits: list[tuple[int, str, bytes]]) -> bytes:
        data = valid
        for at, how, patch in edits:
            at = min(at, len(data))
            if how == "overwrite":
                data = data[:at] + patch + data[at + len(patch):]
            elif how == "insert":
                data = data[:at] + patch + data[at:]
            elif how == "delete":
                data = data[:at] + data[at + len(patch):]
            else:
                data = data[:at]
        return data

    noise = st.binary(max_size=400)
    return st.one_of(
        noise,
        noise.map(lambda tail: b"POST /aggregate HTTP/1.1\r\n" + tail),
        st.lists(spans, min_size=1, max_size=4).map(edit),
    )
