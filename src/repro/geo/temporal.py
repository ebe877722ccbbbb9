"""Temporal hierarchy: year / month / day / hour bins (paper Table I).

A :class:`TimeKey` names one bin of the temporal hierarchy the same way a
geohash names one spatial cell: truncating components yields the temporal
parent, extending yields children, and stepping to the adjacent bin yields
the two temporal lateral neighbors (paper Fig. 1b).

All instants are POSIX epoch seconds (UTC).  Vectorized binning of
timestamp arrays uses numpy datetime64 arithmetic — no per-record Python
loop.  One key's calendar arithmetic goes through its *bin code* — the
bin's index since 1970 at its own resolution, the integer
:func:`bin_epoch_codes` yields — and proleptic-Gregorian day ordinals:
stepping is ``code + n``, an extent is a day count times 86 400.
"""

from __future__ import annotations

import calendar
import datetime as _dt
import enum
import math
from collections import namedtuple
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


_DAY_SECONDS = 86_400
_HOUR_SECONDS = 3_600
_EPOCH_ORDINAL = _dt.date(1970, 1, 1).toordinal()
#: The instants a :class:`TimeKey` can name: years 1 to 9999, as seconds.
_CALENDAR_START = (_dt.date.min.toordinal() - _EPOCH_ORDINAL) * _DAY_SECONDS
_CALENDAR_END = (_dt.date.max.toordinal() + 1 - _EPOCH_ORDINAL) * _DAY_SECONDS


def _whole_seconds(instant: float, rounding=int) -> int:
    try:
        return rounding(instant)
    except (OverflowError, ValueError) as exc:  # +-inf, NaN
        raise TemporalError(f"instant {instant} is not finite") from exc


def _bin_code(seconds: int, resolution: "TemporalResolution") -> int:
    """Index since 1970 of the ``resolution`` bin holding a whole second.

    The scalar :func:`bin_epoch_codes`; :class:`TemporalError` outside
    the calendar.
    """
    if not _CALENDAR_START <= seconds < _CALENDAR_END:
        raise TemporalError(
            f"instant {seconds} s is outside the calendar (years 1 to 9999)"
        )
    if resolution == TemporalResolution.HOUR:
        return seconds // _HOUR_SECONDS
    days = seconds // _DAY_SECONDS
    if resolution == TemporalResolution.DAY:
        return days
    day = _dt.date.fromordinal(_EPOCH_ORDINAL + days)
    if resolution == TemporalResolution.MONTH:
        return (day.year - 1970) * 12 + day.month - 1
    return day.year - 1970


#: A key's text by its number of components: zero-padded, dash-joined.
_TEXT_FORMATS = ("", "%04d", "%04d-%02d", "%04d-%02d-%02d", "%04d-%02d-%02d-%02d")


class TimeKey(namedtuple("TimeKey", "components")):
    """One bin of the temporal hierarchy.

    ``components`` holds (year,), (year, month), (year, month, day) or
    (year, month, day, hour); its length determines the resolution.  A
    tuple, so hashing, equality and ordering run in C.
    """

    __slots__ = ()

    def __new__(cls, components: tuple[int, ...]) -> "TimeKey":
        n = len(components)
        if not 1 <= n <= 4:
            raise TemporalError(f"TimeKey needs 1-4 components, got {n}")
        year = components[0]
        month = components[1] if n > 1 else 1
        day = components[2] if n > 2 else 1
        hour = components[3] if n > 3 else 0
        try:
            _dt.datetime(year, month, day, hour)
        except (ValueError, OverflowError) as exc:
            raise TemporalError(f"invalid TimeKey {components}: {exc}") from exc
        return tuple.__new__(cls, (components,))

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
        the vectorized :func:`bin_epoch_codes` (datetime64 truncates too) even
        for instants a float ULP below a bin boundary.  An instant outside
        years 1 to 9999 is a :class:`TemporalError`.
        """
        return time_key_of_code(
            _bin_code(_whole_seconds(epoch_seconds), resolution), resolution
        )

    # -- identity ---------------------------------------------------------

    @property
    def resolution(self) -> TemporalResolution:
        """The resolution this key names a bin of."""
        return TemporalResolution(len(self.components) - 1)

    def __str__(self) -> str:
        c = self.components
        return _TEXT_FORMATS[len(c)] % tuple(c)

    @staticmethod
    def parse(text: str) -> "TimeKey":
        """Inverse of ``str``: '2013-03-15' -> TimeKey((2013, 3, 15))."""
        try:
            parts = tuple(map(int, text.split("-")))
        except ValueError as exc:
            raise TemporalError(f"cannot parse TimeKey from {text!r}") from exc
        return TimeKey(parts)

    # -- extent -----------------------------------------------------------

    def _code(self) -> int:
        """This bin's index since 1970 at its own resolution."""
        c = self.components
        n = len(c)
        if n == 1:
            return c[0] - 1970
        if n == 2:
            return (c[0] - 1970) * 12 + c[1] - 1
        days = _dt.date(c[0], c[1], c[2]).toordinal() - _EPOCH_ORDINAL
        return days if n == 3 else days * 24 + c[3]

    def epoch_range(self) -> "TimeRange":
        """The bin's [start, end) extent in epoch seconds."""
        c = self.components
        n = len(c)
        if n >= 3:
            unit = _DAY_SECONDS if n == 3 else _HOUR_SECONDS
            start = self._code() * unit
            end = start + unit
        else:
            # A year or month ends a day count after it starts — not at
            # the next one's first day, which year 9999 does not have.
            month = c[1] if n == 2 else 1
            days = (
                calendar.monthrange(c[0], month)[1]
                if n == 2
                else 365 + calendar.isleap(c[0])
            )
            start = (_dt.date(c[0], month, 1).toordinal() - _EPOCH_ORDINAL) * _DAY_SECONDS
            end = start + days * _DAY_SECONDS
        return TimeRange(float(start), float(end))

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

    # -- laterals -------------------------------------------------------------

    def step(self, n: int = 1) -> "TimeKey":
        """The bin ``n`` steps later (negative = earlier) at this resolution."""
        return time_key_of_code(self._code() + n, self.resolution)


@dataclass(frozen=True, slots=True)
class TimeRange:
    """A half-open interval [start, end) in epoch seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise TemporalError(f"empty TimeRange [{self.start}, {self.end})")

    def _bin_codes(self, resolution: TemporalResolution) -> range:
        """Codes of the bins :meth:`covering_keys` names.

        From the bin of ``start`` (truncated, as :meth:`TimeKey.from_epoch`
        does) to the bin of the last whole second before ``end``; never
        empty, though truncation can lift a negative fractional start
        past that second.
        """
        first = _bin_code(_whole_seconds(self.start), resolution)
        last = _bin_code(_whole_seconds(self.end, math.ceil) - 1, resolution)
        return range(first, max(first, last) + 1)

    def key_count(self, resolution: TemporalResolution) -> int:
        """``len(self.covering_keys(resolution))``, without building a key.

        :class:`TemporalError` if the range leaves the calendar.
        """
        return len(self._bin_codes(resolution))

    def covering_keys(self, resolution: TemporalResolution) -> list[TimeKey]:
        """All bins at ``resolution`` overlapping this range, in order."""
        return [time_key_of_code(code, resolution) for code in self._bin_codes(resolution)]

    @staticmethod
    def from_keys(keys: list[TimeKey]) -> "TimeRange":
        """Smallest range covering all given bins."""
        if not keys:
            raise TemporalError("from_keys requires at least one key")
        ranges = [k.epoch_range() for k in keys]
        return TimeRange(min(r.start for r in ranges), max(r.end for r in ranges))


#: datetime64 unit letter per temporal resolution.
_DT64_UNITS = {"YEAR": "Y", "MONTH": "M", "DAY": "D", "HOUR": "h"}


def bin_epoch_codes(
    epochs: np.ndarray, resolution: TemporalResolution
) -> np.ndarray:
    """Vectorized temporal binning to integer codes.

    Maps epoch seconds to int64 bin indices counted from the Unix epoch
    at the given resolution (days since 1970 at DAY, hours at HOUR, …) by
    datetime64 truncation, so code ``c`` names exactly the bin labelled
    ``str(time_key_of_code(c, resolution))``.  A NaN or infinite epoch
    raises :class:`TemporalError`: it names no instant.
    """
    epochs = np.asarray(epochs, dtype=np.float64)
    if not bool(np.isfinite(epochs).all()):
        raise TemporalError("non-finite epochs in temporal binning")
    dt64 = epochs.astype("datetime64[s]")
    unit = _DT64_UNITS[resolution.name]
    return dt64.astype(f"datetime64[{unit}]").astype(np.int64)


def time_key_of_code(code: int, resolution: TemporalResolution) -> TimeKey:
    """Inverse of :func:`bin_epoch_codes` for one integer bin code."""
    if resolution == TemporalResolution.YEAR:
        return TimeKey((1970 + code,))
    if resolution == TemporalResolution.MONTH:
        years, month = divmod(code, 12)
        return TimeKey((1970 + years, month + 1))
    days, hour = (code, 0) if resolution == TemporalResolution.DAY else divmod(code, 24)
    try:
        day = _dt.date.fromordinal(_EPOCH_ORDINAL + days)
    except (ValueError, OverflowError) as exc:
        raise TemporalError(
            f"{resolution.name} bin {code} is outside the calendar: {exc}"
        ) from exc
    return TimeKey((day.year, day.month, day.day, hour)[: resolution + 1])
