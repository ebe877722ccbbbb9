"""Temporal hierarchy: year / month / day / hour bins (paper Table I).

A :class:`TimeKey` names one bin of the temporal hierarchy the same way a
geohash names one spatial cell: truncating components yields the temporal
parent, extending yields children, and stepping to the adjacent bin yields
the two temporal lateral neighbors (paper Fig. 1b).

All instants are POSIX epoch seconds (UTC).  Vectorized binning of
timestamp arrays uses numpy datetime64 arithmetic — no per-record Python
loop.
"""

from __future__ import annotations

import calendar
import datetime as _dt
import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import TemporalError


class TemporalResolution(enum.IntEnum):
    """Temporal resolutions ordered coarse to fine.

    The integer value is the resolution *index* used in the STASH level
    formula (paper section IV-C).
    """

    YEAR = 0
    MONTH = 1
    DAY = 2
    HOUR = 3

    @property
    def finer(self) -> "TemporalResolution | None":
        """Next finer resolution, or None at HOUR."""
        return TemporalResolution(self + 1) if self < TemporalResolution.HOUR else None

    @property
    def coarser(self) -> "TemporalResolution | None":
        """Next coarser resolution, or None at YEAR."""
        return TemporalResolution(self - 1) if self > TemporalResolution.YEAR else None


#: Number of temporal resolutions (paper's ``n_t``).
NUM_TEMPORAL_RESOLUTIONS = len(TemporalResolution)


def _utc(*args: int) -> _dt.datetime:
    return _dt.datetime(*args, tzinfo=_dt.timezone.utc)


@dataclass(frozen=True, slots=True, order=True)
class TimeKey:
    """One bin of the temporal hierarchy.

    ``components`` holds (year,), (year, month), (year, month, day) or
    (year, month, day, hour); its length determines the resolution.
    """

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
            _utc(year, month, day, hour)
        except ValueError as exc:
            raise TemporalError(f"invalid TimeKey {self.components}: {exc}") from exc

    # -- construction ---------------------------------------------------

    @staticmethod
    def of(
        year: int,
        month: int | None = None,
        day: int | None = None,
        hour: int | None = None,
    ) -> "TimeKey":
        """Build a key, stopping at the first ``None`` component."""
        parts: list[int] = [year]
        for value in (month, day, hour):
            if value is None:
                break
            parts.append(value)
        return TimeKey(tuple(parts))

    @staticmethod
    def from_epoch(epoch_seconds: float, resolution: TemporalResolution) -> "TimeKey":
        """The bin containing an instant at the given resolution.

        Sub-second fractions are truncated (not rounded): the finest bin
        is an hour, and truncation keeps the scalar path consistent with
        the vectorized :func:`bin_epochs` (datetime64 truncates too) even
        for instants a float ULP below a bin boundary.
        """
        dt = _dt.datetime.fromtimestamp(int(epoch_seconds), tz=_dt.timezone.utc)
        parts = (dt.year, dt.month, dt.day, dt.hour)
        return TimeKey(parts[: resolution + 1])

    # -- identity ---------------------------------------------------------

    @property
    def resolution(self) -> TemporalResolution:
        """The resolution this key names a bin of."""
        return TemporalResolution(len(self.components) - 1)

    def __str__(self) -> str:
        fmts = ("{:04d}", "{:02d}", "{:02d}", "{:02d}")
        return "-".join(f.format(c) for f, c in zip(fmts, self.components))

    @staticmethod
    def parse(text: str) -> "TimeKey":
        """Inverse of ``str``: '2013-03-15' -> TimeKey((2013, 3, 15))."""
        try:
            parts = tuple(int(p) for p in text.split("-"))
        except ValueError as exc:
            raise TemporalError(f"cannot parse TimeKey from {text!r}") from exc
        return TimeKey(parts)

    # -- extent -----------------------------------------------------------

    def start_datetime(self) -> _dt.datetime:
        year = self.components[0]
        month = self.components[1] if len(self.components) > 1 else 1
        day = self.components[2] if len(self.components) > 2 else 1
        hour = self.components[3] if len(self.components) > 3 else 0
        return _utc(year, month, day, hour)

    def end_datetime(self) -> _dt.datetime:
        """Exclusive end instant of the bin."""
        res = self.resolution
        c = self.components
        if res == TemporalResolution.YEAR:
            return _utc(c[0] + 1, 1, 1)
        if res == TemporalResolution.MONTH:
            year, month = c[0], c[1]
            return _utc(year + 1, 1, 1) if month == 12 else _utc(year, month + 1, 1)
        if res == TemporalResolution.DAY:
            return self.start_datetime() + _dt.timedelta(days=1)
        return self.start_datetime() + _dt.timedelta(hours=1)

    def epoch_range(self) -> "TimeRange":
        """The bin's [start, end) extent in epoch seconds."""
        return TimeRange(
            self.start_datetime().timestamp(), self.end_datetime().timestamp()
        )

    # -- hierarchy ----------------------------------------------------------

    def parent(self) -> "TimeKey":
        """The enclosing coarser bin (paper: temporal parent edge)."""
        if len(self.components) == 1:
            raise TemporalError(f"{self} has no temporal parent")
        return TimeKey(self.components[:-1])

    def children(self) -> list["TimeKey"]:
        """All directly enclosed finer bins (paper: temporal child edges)."""
        res = self.resolution
        c = self.components
        if res == TemporalResolution.YEAR:
            return [TimeKey(c + (m,)) for m in range(1, 13)]
        if res == TemporalResolution.MONTH:
            ndays = calendar.monthrange(c[0], c[1])[1]
            return [TimeKey(c + (d,)) for d in range(1, ndays + 1)]
        if res == TemporalResolution.DAY:
            return [TimeKey(c + (h,)) for h in range(24)]
        raise TemporalError(f"{self} is at the finest resolution")

    def is_ancestor_of(self, other: "TimeKey") -> bool:
        """True if this bin strictly encloses ``other``."""
        return (
            len(self.components) < len(other.components)
            and other.components[: len(self.components)] == self.components
        )

    # -- laterals -------------------------------------------------------------

    def step(self, n: int = 1) -> "TimeKey":
        """The bin ``n`` steps later (negative = earlier) at this resolution."""
        res = self.resolution
        c = self.components
        if res == TemporalResolution.YEAR:
            return TimeKey((c[0] + n,))
        if res == TemporalResolution.MONTH:
            total = c[0] * 12 + (c[1] - 1) + n
            return TimeKey((total // 12, total % 12 + 1))
        delta = _dt.timedelta(days=n) if res == TemporalResolution.DAY else _dt.timedelta(hours=n)
        dt = self.start_datetime() + delta
        parts = (dt.year, dt.month, dt.day, dt.hour)
        return TimeKey(parts[: res + 1])

    def neighbors(self) -> list["TimeKey"]:
        """The two adjacent bins (paper: temporal lateral edges)."""
        return [self.step(-1), self.step(1)]


@dataclass(frozen=True, slots=True)
class TimeRange:
    """A half-open interval [start, end) in epoch seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise TemporalError(f"empty TimeRange [{self.start}, {self.end})")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, epoch_seconds: float) -> bool:
        return self.start <= epoch_seconds < self.end

    def intersects(self, other: "TimeRange") -> bool:
        return self.start < other.end and other.start < self.end

    def intersection(self, other: "TimeRange") -> "TimeRange | None":
        if not self.intersects(other):
            return None
        return TimeRange(max(self.start, other.start), min(self.end, other.end))

    def covering_keys(self, resolution: TemporalResolution) -> list[TimeKey]:
        """All bins at ``resolution`` overlapping this range, in order."""
        key = TimeKey.from_epoch(self.start, resolution)
        out = [key]
        while key.epoch_range().end < self.end:
            key = key.step(1)
            out.append(key)
        return out

    @staticmethod
    def from_keys(keys: list[TimeKey]) -> "TimeRange":
        """Smallest range covering all given bins."""
        if not keys:
            raise TemporalError("from_keys requires at least one key")
        ranges = [k.epoch_range() for k in keys]
        return TimeRange(min(r.start for r in ranges), max(r.end for r in ranges))


#: datetime64 unit letter per temporal resolution.
_DT64_UNITS = {"YEAR": "Y", "MONTH": "M", "DAY": "D", "HOUR": "h"}


def bin_epochs(
    epochs: np.ndarray, resolution: TemporalResolution
) -> np.ndarray:
    """Vectorized temporal binning to string labels.

    Maps an array of epoch seconds to fixed-width strings of the owning
    :class:`TimeKey` (its ``str`` form), e.g. '2013-03-15' at DAY.  The
    scan pipeline bins on the integer form instead
    (:func:`bin_epoch_codes`); this string form is the human-readable
    label.
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


def bin_epoch_codes(
    epochs: np.ndarray, resolution: TemporalResolution
) -> np.ndarray:
    """Vectorized temporal binning to integer codes.

    Maps epoch seconds to int64 bin indices counted from the Unix epoch
    at the given resolution (days since 1970 at DAY, hours at HOUR, …) —
    the same datetime64 truncation :func:`bin_epochs` uses, minus the
    string rendering, so code ``c`` names exactly the bin labelled
    ``str(time_key_of_code(c, resolution))``.
    """
    epochs = np.asarray(epochs, dtype=np.float64)
    dt64 = epochs.astype("datetime64[s]")
    unit = _DT64_UNITS[resolution.name]
    return dt64.astype(f"datetime64[{unit}]").astype(np.int64)


def time_key_of_code(code: int, resolution: TemporalResolution) -> TimeKey:
    """Inverse of :func:`bin_epoch_codes` for one integer bin code."""
    unit = _DT64_UNITS[resolution.name]
    seconds = int(
        np.datetime64(int(code), unit).astype("datetime64[s]").astype(np.int64)
    )
    return TimeKey.from_epoch(float(seconds), resolution)
