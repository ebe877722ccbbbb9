"""Cell keys: the spatiotemporal labels identifying STASH Cells.

A :class:`CellKey` pairs a geohash with a :class:`~repro.geo.temporal.TimeKey`
(paper Table I: "spatial bounding box encoded as Geohash value and the
chronological range").  All graph topology — the hierarchical and lateral
edge sets — is *computed* from keys rather than stored per cell, which is
the paper's "composable vertex discovery schemes ... instead of each Cell
storing pointers to all its neighborhood Cells" (section IV-D).
"""

from __future__ import annotations

from collections import namedtuple

from repro.data.block import BlockId
from repro.errors import CacheError
from repro.geo import geohash as gh
from repro.geo.resolution import Resolution
from repro.geo.bbox import BoundingBox
from repro.geo.temporal import TemporalResolution, TimeKey, TimeRange


class CellKey(namedtuple("CellKey", "geohash time_key")):
    """Identity of one STASH Cell.

    A tuple, so graph, PLM and freshness probes hash and compare it in C.
    The constructor trusts its geohash (it is the hot path); text from
    outside the process goes through :meth:`parse`, which checks it.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.geohash}@{self.time_key}"

    @staticmethod
    def parse(text: str) -> "CellKey":
        try:
            geohash, time_text = text.split("@", 1)
        except ValueError:
            raise CacheError(f"cannot parse CellKey from {text!r}") from None
        # strip() leaves nothing exactly when every character is in the alphabet.
        if not 1 <= len(geohash) <= gh.MAX_PRECISION or geohash.strip(gh.GEOHASH_ALPHABET):
            raise CacheError(f"malformed geohash {geohash!r} in CellKey {text!r}")
        return CellKey(geohash=geohash, time_key=TimeKey.parse(time_text))

    # -- identity ----------------------------------------------------------

    @property
    def resolution(self) -> Resolution:
        return Resolution(len(self.geohash), self.time_key.resolution)

    @property
    def bbox(self) -> BoundingBox:
        return gh.bbox(self.geohash)

    @property
    def time_range(self) -> TimeRange:
        return self.time_key.epoch_range()

    # -- hierarchical edges (computed, paper section IV-B) -----------------

    def spatial_parent(self) -> "CellKey | None":
        """One step lower spatial precision, same temporal bin."""
        if len(self.geohash) <= 1:
            return None
        return CellKey(gh.parent(self.geohash), self.time_key)

    def temporal_parent(self) -> "CellKey | None":
        """Same geohash, one step coarser temporal bin."""
        if self.time_key.resolution == TemporalResolution.YEAR:
            return None
        return CellKey(self.geohash, self.time_key.parent())

    def spatiotemporal_parent(self) -> "CellKey | None":
        """One step lower precision on both axes."""
        sp = self.spatial_parent()
        return sp.temporal_parent() if sp is not None else None

    def parents(self) -> list["CellKey"]:
        """All (up to 3) hierarchical parents — the paper's 3 parent kinds."""
        out = [self.spatial_parent(), self.temporal_parent(), self.spatiotemporal_parent()]
        return [k for k in out if k is not None]

    def spatial_children(self) -> list["CellKey"]:
        """The 32 one-character geohash extensions, same temporal bin."""
        return [CellKey(child, self.time_key) for child in gh.children(self.geohash)]

    def temporal_children(self) -> list["CellKey"]:
        """Same geohash, all finer temporal bins."""
        if self.time_key.resolution == TemporalResolution.HOUR:
            return []
        return [CellKey(self.geohash, child) for child in self.time_key.children()]

    def children(self, axis: str = "spatial") -> list["CellKey"]:
        """Children along one refinement axis.

        ``axis`` is 'spatial', 'temporal', or 'both' (the 32 x k cross
        product).  Aggregating any *single* axis' children reproduces this
        cell exactly — the basis of roll-up recomputation.
        """
        if axis == "spatial":
            return self.spatial_children()
        if axis == "temporal":
            return self.temporal_children()
        if axis == "both":
            return [
                CellKey(space.geohash, time.time_key)
                for space in self.spatial_children()
                for time in self.temporal_children()
            ]
        raise CacheError(f"unknown child axis {axis!r}")

    # -- lateral edges (paper Fig. 1) ---------------------------------------

    def spatial_neighbors(self) -> list["CellKey"]:
        """Up to 8 adjacent same-precision cells in the same time bin."""
        return [CellKey(nb, self.time_key) for nb in gh.neighbors(self.geohash)]

    def temporal_neighbors(self) -> list["CellKey"]:
        """The previous and next time bins for the same geohash."""
        return [CellKey(self.geohash, tk) for tk in self.time_key.neighbors()]

    def lateral_neighbors(self) -> list["CellKey"]:
        """The full lateral edge set (spatial + temporal)."""
        return self.spatial_neighbors() + self.temporal_neighbors()

    # -- storage mapping (used by the PLM) --------------------------------

    def backing_blocks(self, partition_precision: int) -> list[BlockId]:
        """The storage blocks whose raw data this cell aggregates.

        Blocks are (geohash prefix, day) units.  Spatially: a cell finer
        than the partition lives in exactly one block prefix, a coarser
        cell spans every extension of its geohash.  Temporally: the cell's
        bin maps to the days it covers.
        """
        if len(self.geohash) >= partition_precision:
            prefixes = [self.geohash[:partition_precision]]
        else:
            prefixes = [self.geohash]
            while len(prefixes[0]) < partition_precision:
                prefixes = [p + c for p in prefixes for c in gh.GEOHASH_ALPHABET]
        key = self.time_key
        if key.resolution in (TemporalResolution.DAY, TemporalResolution.HOUR):
            days = [key if key.resolution == TemporalResolution.DAY else key.parent()]
        elif key.resolution == TemporalResolution.MONTH:
            days = key.children()
        else:  # YEAR
            days = [day for month in key.children() for day in month.children()]
        return [
            BlockId(geohash=prefix, day=str(day)) for prefix in prefixes for day in days
        ]
