"""Session-scale exploration workloads: millions of users, one array walk.

:mod:`repro.workload.sessions` builds gesture walks one query object at
a time — fine for hundreds of users, hopeless for the million-user
traffic the north star asks for.  This module synthesizes whole user
populations *as columns*: every user's pan/zoom/drill session is a row in
a set of numpy arrays, advanced one gesture step at a time with
vectorized state updates, so a million 8-step sessions cost a few dozen
array operations instead of eight million Python calls.

Three ingredients (Bikakis et al.'s hierarchical-exploration session
model + Arnold's Zipf-skew warning, PAPERS.md):

* a **Markov navigation model** — gesture ``t+1`` is drawn from a
  row-stochastic transition matrix conditioned on gesture ``t``, so
  sessions have realistic momentum (pans follow pans, a drill-down is
  usually followed by local exploration, not an immediate roll-up);
* **Zipf hotspot placement over the geohash space** — hotspots are
  geohash cells, users (and every ``jump`` gesture) pick a hotspot with
  probability ``1/rank**s``, reproducing the skewed interest the paper's
  section VII replication machinery exists for;
* **a closed-loop driver** — each simulated user waits for their
  answer, thinks, gestures again: the interactive regime.  The
  open-loop regime (no back-pressure) is
  :meth:`~repro.system.DistributedSystem.run_open_loop`.

Everything is deterministic per seed: synthesis runs in fixed-size user
chunks, each chunk seeded by ``SeedSequence([seed, chunk_index])``, so
the same spec produces bit-identical streams in any process, regardless
of how many chunks are materialized or in what order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.geo import geohash as gh
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.workload.navigation import COMPASS
from repro.workload.queries import QUERY_SIZE_EXTENTS, QuerySize
from repro.workload.sessions import GESTURES

#: Users synthesized per chunk.  Part of the determinism contract: the
#: per-chunk RNG stream depends on this constant, so it is fixed rather
#: than tunable.
CHUNK_USERS = 65_536

#: Bounds of the per-user area-scale random walk (dice_in/dice_out).
_MIN_AREA_SCALE, _MAX_AREA_SCALE = 0.4, 2.5

#: Gesture index lookup (shared vocabulary with repro.workload.sessions).
GESTURE_INDEX = {name: i for i, name in enumerate(GESTURES)}

#: Query-class tag per gesture — the flight recorder's histogram key.
GESTURE_KIND = {
    "pan": "pan",
    "dice_in": "zoom",
    "dice_out": "zoom",
    "drill_down": "drill",
    "roll_up": "drill",
    "slice_day": "other",
    "jump": "other",
}

#: Default Markov transition matrix (rows/cols in GESTURES order:
#: pan, dice_in, dice_out, drill_down, roll_up, slice_day, jump).
#: Diagonal-heavy pan momentum; drill_down is followed by local
#: exploration; jump resets to panning around the new hotspot.
DEFAULT_TRANSITIONS = (
    (0.55, 0.10, 0.07, 0.10, 0.05, 0.08, 0.05),  # after pan
    (0.35, 0.25, 0.05, 0.20, 0.02, 0.08, 0.05),  # after dice_in
    (0.35, 0.05, 0.25, 0.02, 0.20, 0.08, 0.05),  # after dice_out
    (0.50, 0.15, 0.02, 0.15, 0.05, 0.08, 0.05),  # after drill_down
    (0.45, 0.02, 0.15, 0.05, 0.15, 0.08, 0.10),  # after roll_up
    (0.55, 0.08, 0.08, 0.08, 0.08, 0.08, 0.05),  # after slice_day
    (0.60, 0.10, 0.05, 0.10, 0.05, 0.10, 0.00),  # after jump
)

_COMPASS_LAT = np.array([d[0] for d in COMPASS], dtype=np.float64)
_COMPASS_LON = np.array([d[1] for d in COMPASS], dtype=np.float64)


@dataclass(frozen=True)
class ScaleWorkloadSpec:
    """One seeded user population: who explores what, and how."""

    num_users: int
    session_length: int
    #: Hotspot count and geohash precision of their placement cells.
    num_hotspots: int = 16
    hotspot_precision: int = 3
    #: Zipf skew exponent: hotspot rank ``k`` drawn with weight
    #: ``1/k**zipf_s``.
    zipf_s: float = 1.2
    #: Viewport extent group (paper section VIII-A).
    size: QuerySize = QuerySize.COUNTY
    #: Inclusive spatial-precision band of the drill/roll walk.
    spatial_range: tuple[int, int] = (2, 4)
    #: Days the slice_day gesture draws from.
    num_days: int = 2
    start_day: tuple[int, int, int] = (2013, 2, 1)
    #: Row-stochastic gesture transition matrix in GESTURES order.
    transitions: tuple = DEFAULT_TRANSITIONS
    seed: int = 0

    def validated(self) -> "ScaleWorkloadSpec":
        """Raise :class:`WorkloadError` on any inconsistent knob."""
        if self.num_users < 1:
            raise WorkloadError("num_users must be >= 1")
        if self.session_length < 1:
            raise WorkloadError("session_length must be >= 1")
        if self.num_hotspots < 1:
            raise WorkloadError("num_hotspots must be >= 1")
        if not 1 <= self.hotspot_precision <= 6:
            raise WorkloadError("hotspot_precision must be in [1, 6]")
        if self.zipf_s <= 0:
            raise WorkloadError("zipf_s must be positive")
        lo, hi = self.spatial_range
        if not 1 <= lo <= hi <= 8:
            raise WorkloadError("spatial_range must satisfy 1 <= lo <= hi <= 8")
        if self.num_days < 1:
            raise WorkloadError("num_days must be >= 1")
        matrix = np.asarray(self.transitions, dtype=np.float64)
        if matrix.shape != (len(GESTURES), len(GESTURES)):
            raise WorkloadError(
                f"transitions must be {len(GESTURES)}x{len(GESTURES)}, "
                f"got {matrix.shape}"
            )
        if (matrix < 0).any():
            raise WorkloadError("transition probabilities must be non-negative")
        if not np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9):
            raise WorkloadError("transition matrix rows must sum to 1")
        return self

    def with_(self, **kwargs: Any) -> "ScaleWorkloadSpec":
        return replace(self, **kwargs)

    @property
    def days(self) -> list[TimeKey]:
        year, month, day = self.start_day
        return [TimeKey.of(year, month, day + i) for i in range(self.num_days)]

    def zipf_weights(self) -> np.ndarray:
        """Normalized hotspot popularity by rank (rank 1 first)."""
        ranks = np.arange(1, self.num_hotspots + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks, self.zipf_s)
        return weights / weights.sum()


def _hotspot_centers(
    spec: ScaleWorkloadSpec, domain: BoundingBox
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Hotspot placement: random geohash cells inside ``domain``.

    Draws a point, snaps it to its geohash cell at
    ``spec.hotspot_precision``, and uses the cell center — hotspots are
    grid-aligned regions of the geohash space, not arbitrary points.
    """
    rng = np.random.default_rng([spec.seed, 0x5EED])
    lats = rng.uniform(domain.south, domain.north, spec.num_hotspots)
    lons = rng.uniform(domain.west, domain.east, spec.num_hotspots)
    cells = [
        gh.encode(float(lat), float(lon), spec.hotspot_precision)
        for lat, lon in zip(lats, lons)
    ]
    centers = [gh.bbox(cell).center for cell in cells]
    clat = np.array([c[0] for c in centers], dtype=np.float64)
    clon = np.array([c[1] for c in centers], dtype=np.float64)
    return clat, clon, cells


def _clamp_centers(
    clat: np.ndarray,
    clon: np.ndarray,
    half_h: np.ndarray,
    half_w: np.ndarray,
    domain: BoundingBox,
) -> None:
    """In place: keep every viewport box fully inside the domain."""
    np.clip(clat, domain.south + half_h, domain.north - half_h, out=clat)
    np.clip(clon, domain.west + half_w, domain.east - half_w, out=clon)


@dataclass
class SessionTable:
    """A synthesized user population as parallel per-step arrays.

    All arrays have shape ``(num_users, session_length)`` and hold the
    viewport state *after* the step's gesture was applied — row ``u`` of
    each array is user ``u``'s session, and materializing the query for
    ``(u, t)`` needs only the four state columns at that index.
    """

    spec: ScaleWorkloadSpec
    domain: BoundingBox
    #: Gesture index (into GESTURES) applied at each step; step 0 is the
    #: session-opening "jump" to the user's hotspot viewport.
    gestures: np.ndarray
    #: Viewport box centers (degrees).
    center_lat: np.ndarray
    center_lon: np.ndarray
    #: Area-scale factor of the viewport relative to the size group.
    area_scale: np.ndarray
    #: Spatial geohash precision of each request.
    precision: np.ndarray
    #: Index into ``spec.days``.
    day_index: np.ndarray
    #: Hotspot rank (0-based) each user currently orbits.
    hotspot: np.ndarray
    #: Hotspot cell labels (rank order), for skew accounting.
    hotspot_cells: list[str] = field(default_factory=list)

    @property
    def num_users(self) -> int:
        return self.gestures.shape[0]

    @property
    def session_length(self) -> int:
        return self.gestures.shape[1]

    @property
    def num_queries(self) -> int:
        return self.gestures.size

    def digest(self) -> str:
        """Stable content hash of the synthesized streams.

        Two tables from the same spec must digest identically in any
        process — the determinism contract the property tests pin.
        """
        h = hashlib.sha256()
        for array in (
            self.gestures, self.center_lat, self.center_lon,
            self.area_scale, self.precision, self.day_index, self.hotspot,
        ):
            h.update(np.ascontiguousarray(array).tobytes())
        h.update(",".join(self.hotspot_cells).encode())
        return h.hexdigest()

    def query(self, user: int, step: int) -> AggregationQuery:
        """Materialize one (user, step) viewport as an AggregationQuery."""
        height, width = QUERY_SIZE_EXTENTS[self.spec.size]
        lin = float(np.sqrt(self.area_scale[user, step]))
        box = BoundingBox.from_center(
            float(self.center_lat[user, step]),
            float(self.center_lon[user, step]),
            height * lin,
            width * lin,
        )
        day = self.spec.days[int(self.day_index[user, step])]
        gesture = GESTURES[int(self.gestures[user, step])]
        query = AggregationQuery(
            bbox=box,
            time_range=day.epoch_range(),
            resolution=Resolution(
                int(self.precision[user, step]), TemporalResolution.DAY
            ),
            kind=GESTURE_KIND[gesture],
        )
        return query

    def user_queries(self, user: int) -> list[AggregationQuery]:
        return [self.query(user, step) for step in range(self.session_length)]

    def iter_queries(self) -> Iterator[tuple[int, int, AggregationQuery]]:
        """All (user, step, query) triples in user-major order."""
        for user in range(self.num_users):
            for step in range(self.session_length):
                yield user, step, self.query(user, step)

    # -- synthesis ---------------------------------------------------------

    @classmethod
    def synthesize(
        cls, spec: ScaleWorkloadSpec, domain: BoundingBox | None = None
    ) -> "SessionTable":
        """Vectorized session synthesis for the whole population.

        Work is O(session_length) numpy passes over arrays of
        ``CHUNK_USERS`` rows; memory for the result is
        ``O(num_users * session_length)`` in compact dtypes (about 21
        bytes per query), so a million 8-step sessions synthesize in a
        couple of seconds and ~170 MB.
        """
        from repro.data.generator import NAM_DOMAIN

        spec = spec.validated()
        domain = NAM_DOMAIN if domain is None else domain
        height, width = QUERY_SIZE_EXTENTS[spec.size]
        max_lin = float(np.sqrt(_MAX_AREA_SCALE))
        if height * max_lin > domain.height or width * max_lin > domain.width:
            raise WorkloadError(
                f"{spec.size.value} viewport at max dice scale exceeds domain"
            )
        hot_lat, hot_lon, hotspot_cells = _hotspot_centers(spec, domain)

        users, length = spec.num_users, spec.session_length
        gestures = np.empty((users, length), dtype=np.uint8)
        center_lat = np.empty((users, length), dtype=np.float64)
        center_lon = np.empty((users, length), dtype=np.float64)
        area_scale = np.empty((users, length), dtype=np.float32)
        precision = np.empty((users, length), dtype=np.uint8)
        day_index = np.empty((users, length), dtype=np.uint16)
        hotspot = np.empty((users,), dtype=np.int32)

        for chunk_index, start in enumerate(range(0, users, CHUNK_USERS)):
            stop = min(start + CHUNK_USERS, users)
            _synthesize_chunk(
                spec, domain, hot_lat, hot_lon, chunk_index, stop - start,
                gestures[start:stop], center_lat[start:stop],
                center_lon[start:stop], area_scale[start:stop],
                precision[start:stop], day_index[start:stop],
                hotspot[start:stop],
            )
        return cls(
            spec=spec,
            domain=domain,
            gestures=gestures,
            center_lat=center_lat,
            center_lon=center_lon,
            area_scale=area_scale,
            precision=precision,
            day_index=day_index,
            hotspot=hotspot,
            hotspot_cells=hotspot_cells,
        )


def _synthesize_chunk(
    spec: ScaleWorkloadSpec,
    domain: BoundingBox,
    hot_lat: np.ndarray,
    hot_lon: np.ndarray,
    chunk_index: int,
    n: int,
    gestures: np.ndarray,
    center_lat: np.ndarray,
    center_lon: np.ndarray,
    area_scale: np.ndarray,
    precision: np.ndarray,
    day_index: np.ndarray,
    hotspot: np.ndarray,
) -> None:
    """One fixed-size chunk of users, written into the output views.

    The RNG draw order is part of the determinism contract: per step it
    is transition draw, hotspot redraw, jitter (lat, lon), pan
    (direction, fraction), day redraw — each over the full
    ``CHUNK_USERS`` rows whether or not the chunk (or a gesture mask)
    uses them, so a user's session depends only on
    ``(seed, user // CHUNK_USERS)`` and never on the population size or
    on which gestures other users happened to take.
    """
    out_n = n
    n = CHUNK_USERS
    rng = np.random.default_rng([spec.seed, chunk_index])
    height, width = QUERY_SIZE_EXTENTS[spec.size]
    lo, hi = spec.spatial_range
    cum_weights = np.cumsum(spec.zipf_weights())
    cum_weights[-1] = 1.0
    matrix = np.asarray(spec.transitions, dtype=np.float64)
    cum_matrix = np.cumsum(matrix, axis=1)
    cum_matrix[:, -1] = 1.0
    jump_index = GESTURE_INDEX["jump"]
    # Jitter keeps a hotspot's users clustered inside its cell, not
    # stacked on one point: about a quarter-cell standard deviation.
    cell_h, cell_w = gh.cell_dimensions(spec.hotspot_precision)

    def draw_hotspots() -> np.ndarray:
        return np.searchsorted(
            cum_weights, rng.random(n), side="right"
        ).astype(np.int32)

    def jittered(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lat = hot_lat[ranks] + rng.normal(0.0, cell_h / 4.0, n)
        lon = hot_lon[ranks] + rng.normal(0.0, cell_w / 4.0, n)
        return lat, lon

    # -- step 0: every session opens on the user's Zipf-drawn hotspot.
    hot_rank = draw_hotspots()
    clat, clon = jittered(hot_rank)
    scale = np.ones(n, dtype=np.float64)
    prec = rng.integers(lo, hi + 1, n).astype(np.int16)
    day = rng.integers(0, spec.num_days, n).astype(np.uint16)
    state = np.full(n, jump_index, dtype=np.int16)

    for step in range(spec.session_length):
        if step > 0:
            # Markov transition: row = previous gesture, inverse-CDF draw.
            draws = rng.random(n)
            rows = cum_matrix[state]
            state = (draws[:, None] >= rows).sum(axis=1).astype(np.int16)

            new_ranks = draw_hotspots()
            jump_lat, jump_lon = jittered(new_ranks)
            direction = rng.integers(0, 8, n)
            fraction = rng.uniform(0.1, 0.3, n)
            new_day = rng.integers(0, spec.num_days, n).astype(np.uint16)

            lin = np.sqrt(scale)
            box_h, box_w = height * lin, width * lin
            is_pan = state == GESTURE_INDEX["pan"]
            clat = np.where(
                is_pan,
                clat + _COMPASS_LAT[direction] * fraction * box_h,
                clat,
            )
            clon = np.where(
                is_pan,
                clon + _COMPASS_LON[direction] * fraction * box_w,
                clon,
            )
            scale = np.where(
                state == GESTURE_INDEX["dice_in"],
                np.maximum(scale * 0.8, _MIN_AREA_SCALE),
                scale,
            )
            scale = np.where(
                state == GESTURE_INDEX["dice_out"],
                np.minimum(scale * 1.25, _MAX_AREA_SCALE),
                scale,
            )
            prec = np.where(
                state == GESTURE_INDEX["drill_down"],
                np.minimum(prec + 1, hi),
                prec,
            ).astype(np.int16)
            prec = np.where(
                state == GESTURE_INDEX["roll_up"],
                np.maximum(prec - 1, lo),
                prec,
            ).astype(np.int16)
            day = np.where(state == GESTURE_INDEX["slice_day"], new_day, day)
            is_jump = state == jump_index
            hot_rank = np.where(is_jump, new_ranks, hot_rank).astype(np.int32)
            clat = np.where(is_jump, jump_lat, clat)
            clon = np.where(is_jump, jump_lon, clon)

        half_h = height * np.sqrt(scale) / 2.0
        half_w = width * np.sqrt(scale) / 2.0
        _clamp_centers(clat, clon, half_h, half_w, domain)

        gestures[:, step] = state[:out_n].astype(np.uint8)
        center_lat[:, step] = clat[:out_n]
        center_lon[:, step] = clon[:out_n]
        area_scale[:, step] = scale[:out_n].astype(np.float32)
        precision[:, step] = prec[:out_n].astype(np.uint8)
        day_index[:, step] = day[:out_n]
    hotspot[:] = hot_rank[:out_n]


def run_closed_loop(
    system,
    table: SessionTable,
    users: int | None = None,
    think_time: float = 1.0,
    seed: int | None = None,
) -> list:
    """Closed-loop drive: one think-time process per simulated user.

    Each user submits their next gesture only after the previous answer
    arrives plus an exponential think pause — the interactive regime
    with inherent back-pressure.  Returns every
    :class:`~repro.query.model.QueryResult` in completion order.
    """
    if think_time < 0:
        raise WorkloadError("think_time must be non-negative")
    spec = table.spec
    count = table.num_users if users is None else min(users, table.num_users)
    rng = np.random.default_rng(
        [spec.seed if seed is None else seed, 0xC10D]
    )
    # Per-user staggered entry plus think pauses, drawn up front so the
    # stream is independent of simulation interleaving.
    entry = rng.uniform(0.0, max(think_time, 1e-9), count)
    thinks = rng.exponential(max(think_time, 1e-12), (count, table.session_length))
    if think_time == 0.0:
        entry = np.zeros(count)
        thinks = np.zeros((count, table.session_length))
    system.start()
    results: list = []

    def user_process(user: int):
        yield system.sim.timeout(float(entry[user]))
        for step in range(table.session_length):
            result = yield system.submit(table.query(user, step))
            results.append(result)
            pause = float(thinks[user, step])
            if pause > 0.0:
                yield system.sim.timeout(pause)

    done = system.sim.all_of(
        [system.sim.process(user_process(user)) for user in range(count)]
    )
    system.sim.run(until=done)
    return results


def observed_hotspot_frequencies(table: SessionTable) -> np.ndarray:
    """Empirical hotspot popularity by rank (sums to 1)."""
    counts = np.bincount(table.hotspot, minlength=table.spec.num_hotspots)
    return counts / counts.sum()
