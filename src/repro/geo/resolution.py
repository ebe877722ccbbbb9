"""Spatiotemporal resolutions and STASH level arithmetic (paper IV-C).

A :class:`Resolution` pairs a geohash precision with a temporal
resolution.  The STASH graph groups cells into *levels*; per the paper,
the level for spatial resolution index ``n_i`` and temporal resolution
index ``n_j`` is ``n_j * n_t + n_i`` where ``n_t`` is the number of
temporal resolutions.  :class:`ResolutionSpace` fixes the supported
spatial precision range and performs that arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from repro.errors import ResolutionError
from repro.geo.binning import supports_bin_ids
from repro.geo.geohash import MAX_PRECISION
from repro.geo.temporal import NUM_TEMPORAL_RESOLUTIONS, TemporalResolution


class Resolution(namedtuple("Resolution", "spatial temporal")):
    """A (spatial geohash precision, temporal resolution) pair; a tuple,
    so it hashes, compares and orders in C."""

    __slots__ = ()

    def __new__(cls, spatial: int, temporal: TemporalResolution) -> "Resolution":
        if not 1 <= spatial <= MAX_PRECISION:
            raise ResolutionError(f"spatial precision {spatial} out of range")
        return tuple.__new__(cls, (spatial, temporal))

    def __str__(self) -> str:
        return f"s{self.spatial}/{self.temporal.name.lower()}"

    # One step along each refinement axis (paper IV-B).

    def coarser_spatial(self) -> "Resolution | None":
        if self.spatial <= 1:
            return None
        return Resolution(self.spatial - 1, self.temporal)

    def coarser_temporal(self) -> "Resolution | None":
        coarser = self.temporal.coarser
        if coarser is None:
            return None
        return Resolution(self.spatial, coarser)

    def finer_spatial(self) -> "Resolution | None":
        if self.spatial >= MAX_PRECISION:
            return None
        return Resolution(self.spatial + 1, self.temporal)

    def finer_temporal(self) -> "Resolution | None":
        finer = self.temporal.finer
        if finer is None:
            return None
        return Resolution(self.spatial, finer)


@dataclass(frozen=True, slots=True)
class ResolutionSpace:
    """The set of resolutions a STASH deployment supports.

    Parameters
    ----------
    min_spatial, max_spatial:
        Inclusive geohash precision range (the paper's experiments span
        precisions 2 through 6).  ``max_spatial`` may not exceed 8: the
        scan layer bins on packed 64-bit ids (:mod:`repro.geo.binning`),
        and precision 8 is the finest that fits at every temporal
        resolution.
    """

    min_spatial: int = 1
    max_spatial: int = 8

    def __post_init__(self) -> None:
        if not 1 <= self.min_spatial <= self.max_spatial <= MAX_PRECISION:
            raise ResolutionError(
                f"bad spatial range [{self.min_spatial}, {self.max_spatial}]"
            )
        if not supports_bin_ids(self.max_spatial, TemporalResolution.HOUR):
            raise ResolutionError(
                f"max_spatial {self.max_spatial} does not fit a 64-bit bin id "
                "at HOUR; the scan layer supports precisions up to 8"
            )

    @property
    def num_temporal(self) -> int:
        """The paper's ``n_t``."""
        return NUM_TEMPORAL_RESOLUTIONS

    def contains(self, resolution: Resolution) -> bool:
        return self.min_spatial <= resolution.spatial <= self.max_spatial

    def _check(self, resolution: Resolution) -> None:
        if not self.contains(resolution):
            raise ResolutionError(f"{resolution} outside space {self}")

    def level_of(self, resolution: Resolution) -> int:
        """STASH graph level: ``spatial_idx * n_t + temporal_idx``.

        Level 0 is the coarsest resolution on both axes; larger levels are
        finer.  Within the space, the mapping is a bijection.
        """
        self._check(resolution)
        spatial_idx = resolution.spatial - self.min_spatial
        return spatial_idx * self.num_temporal + int(resolution.temporal)
