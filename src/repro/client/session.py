"""Visual exploration sessions: UI gestures -> backend queries.

An :class:`ExplorationSession` holds the user's current viewport (area,
time, resolution) and translates pan / dice / drill-down / roll-up /
slice gestures into :class:`~repro.query.model.AggregationQuery` objects
executed against any :class:`~repro.system.DistributedSystem`.

Every gesture is one query to the cluster, whose cache is shared by all
users: a session holds no cache of its own, so it never answers from
before an ingest.  ``prefetch=True`` enables momentum prefetching (the
paper's future-work section IX-A): after two pans in the same direction,
the session fires the predicted next viewport as a background query so
the server cache is warm when the user gets there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery, QueryResult
from repro.system import DistributedSystem

#: Compass names accepted by :meth:`ExplorationSession.pan`.
DIRECTIONS = {
    "n": (1, 0), "ne": (1, 1), "e": (0, 1), "se": (-1, 1),
    "s": (-1, 0), "sw": (-1, -1), "w": (0, -1), "nw": (1, -1),
}


@dataclass
class SessionStats:
    """Per-session counters."""

    queries_sent: int = 0
    prefetches_issued: int = 0
    history: list[AggregationQuery] = field(default_factory=list)


class ExplorationSession:
    """One user's interactive exploration of the dataset."""

    def __init__(
        self,
        system: DistributedSystem,
        viewport: BoundingBox,
        day: TimeKey,
        resolution: Resolution | None = None,
        prefetch: bool = False,
    ):
        self.system = system
        self.viewport = viewport
        self.day = day
        self.resolution = resolution or Resolution(4, TemporalResolution.DAY)
        self.prefetch = prefetch
        self.stats = SessionStats()
        self._last_pan: tuple[int, int] | None = None

    # -- current query -------------------------------------------------------

    def current_query(self, kind: str = "other") -> AggregationQuery:
        return AggregationQuery(
            bbox=self.viewport,
            time_range=self.day.epoch_range(),
            resolution=self.resolution,
            kind=kind,
        )

    # -- gestures ----------------------------------------------------------

    def refresh(self) -> QueryResult:
        """Re-evaluate the current viewport."""
        return self._execute(self.current_query())

    def pan(self, direction: str, fraction: float = 0.25) -> QueryResult:
        """Move the viewport by a fraction of its extent."""
        try:
            dlat_sign, dlon_sign = DIRECTIONS[direction.lower()]
        except KeyError:
            raise QueryError(f"unknown pan direction {direction!r}") from None
        self.viewport = self.viewport.translated(
            dlat_sign * fraction * self.viewport.height,
            dlon_sign * fraction * self.viewport.width,
        )
        result = self._execute(self.current_query(kind="pan"))
        self._maybe_prefetch((dlat_sign, dlon_sign), fraction)
        self._last_pan = (dlat_sign, dlon_sign)
        return result

    def dice(self, area_factor: float) -> QueryResult:
        """Shrink/grow the selection area about its center."""
        self.viewport = self.viewport.scaled(area_factor)
        return self._execute(self.current_query(kind="zoom"))

    def drill_down(self) -> QueryResult:
        """One step finer spatial resolution (zoom in)."""
        finer = self.resolution.finer_spatial()
        if finer is None:
            raise QueryError("already at the finest spatial resolution")
        self.resolution = finer
        return self._execute(self.current_query(kind="drill"))

    def roll_up(self) -> QueryResult:
        """One step coarser spatial resolution (zoom out)."""
        coarser = self.resolution.coarser_spatial()
        if coarser is None:
            raise QueryError("already at the coarsest spatial resolution")
        self.resolution = coarser
        return self._execute(self.current_query(kind="drill"))

    def drill_time(self) -> QueryResult:
        """One step finer temporal resolution (e.g. day bins -> hour bins).

        The viewport's time extent is unchanged; only the bin granularity
        of the answer changes — temporal drill-down in the paper's
        spatiotemporal resolution lattice.
        """
        finer = self.resolution.finer_temporal()
        if finer is None:
            raise QueryError("already at the finest temporal resolution")
        self.resolution = finer
        return self._execute(self.current_query(kind="drill"))

    def roll_time(self) -> QueryResult:
        """One step coarser temporal resolution (e.g. day -> month bins)."""
        coarser = self.resolution.coarser_temporal()
        if coarser is None:
            raise QueryError("already at the coarsest temporal resolution")
        self.resolution = coarser
        return self._execute(self.current_query(kind="drill"))

    def slice_day(self, day: TimeKey) -> QueryResult:
        """Jump to a different temporal slice."""
        self.day = day
        return self._execute(self.current_query())

    # -- execution ----------------------------------------------------------

    def _execute(self, query: AggregationQuery) -> QueryResult:
        self.stats.history.append(query)
        self.stats.queries_sent += 1
        return self.system.run_query(query)

    def _maybe_prefetch(self, direction: tuple[int, int], fraction: float) -> None:
        """Momentum prediction: two same-direction pans -> prefetch a third."""
        if not self.prefetch or self._last_pan != direction:
            return
        predicted = self.current_query().panned(
            direction[0] * fraction * self.viewport.height,
            direction[1] * fraction * self.viewport.width,
        )
        # Fire-and-forget: warms the server cache, result discarded.
        self.system.submit(predicted)
        self.stats.prefetches_issued += 1
