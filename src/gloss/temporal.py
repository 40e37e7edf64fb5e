"""Time ontology: instants, periods, temporal regions and the Swatch beat clock.

Instants are stored as milliseconds since the POSIX epoch, UTC.  The lexical
form understood on the wire is the dateTime subset ``YYYY-MM-DDThh:mm:ss[.fff]``
with an optional ``Z``/``+hh:mm`` suffix; zone-less stamps are read as UTC.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from functools import total_ordering

from .errors import OutOfRange

__all__ = [
    "Time",
    "Period",
    "TemporalRegion",
    "SymbolicTime",
    "When",
    "TimeOfDay",
    "lex_datetime",
    "period_contains",
    "region_contains",
    "utc_to_swatch",
]

_DATETIME_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(\.\d+)?(Z|[+-]\d{2}:\d{2})?$"
)
_TIME_RE = re.compile(r"(\d{2}):(\d{2}):(\d{2})(\.\d+)?$")

MILLIS_PER_DAY = 86_400_000
# Swatch beats run on fixed UTC+1 (no daylight saving), 1000 beats per day.
_BMT_OFFSET_MILLIS = 3_600_000
_MILLIS_PER_BEAT = 86_400.0
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_EPOCH = datetime(1970, 1, 1)  # naive: isoformat() then names no zone
# the instants Time.lexical() can write: 0001-01-01T00:00:00Z to 9999-12-31T23:59:59.999Z
_MIN_MILLIS = (date.min.toordinal() - _EPOCH_ORDINAL) * MILLIS_PER_DAY
_MAX_MILLIS = (date.max.toordinal() + 1 - _EPOCH_ORDINAL) * MILLIS_PER_DAY - 1


def lex_datetime(text: str) -> tuple[int, bool]:
    """Epoch milliseconds of a dateTime lexical form, and whether the form
    names its zone.

    Raises ValueError for anything outside the supported subset, or for an
    instant outside the years 1-9999 in UTC; a field out of range gets the
    message datetime gives for it.
    """
    m = _DATETIME_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed dateTime: {text!r}")
    year, month, day, hour, minute, second, frac, zone = m.groups()
    offset = 0  # minutes east of UTC
    if zone is not None and zone != "Z":
        offset = int(zone[1:3]) * 60 + int(zone[4:6])
        if zone[0] == "-":
            offset = -offset
        if not -1440 < offset < 1440:
            timezone(timedelta(minutes=offset))  # raises, with datetime's message
    hour, minute, second = int(hour), int(minute), int(second)
    if hour > 23 or minute > 59 or second > 59:
        datetime(int(year), int(month), int(day), hour, minute, second)  # raises likewise
    days = date(int(year), int(month), int(day)).toordinal() - _EPOCH_ORDINAL  # checks the date
    millis = (((days * 24 + hour) * 60 + minute - offset) * 60 + second) * 1000
    if frac:
        millis += int(round(float(frac) * 1000))
    if not _MIN_MILLIS <= millis <= _MAX_MILLIS:
        raise ValueError(f"{text!r} lies outside the years 1-9999 in UTC")
    return millis, zone is not None


@total_ordering
@dataclass(frozen=True)
class Time:
    """An absolute instant, in UTC milliseconds since the POSIX epoch.

    Equality, hashing and ordering all compare the instant alone.
    """

    epoch_millis: int

    def __lt__(self, other: "Time") -> bool:
        return self.epoch_millis < other.epoch_millis

    @classmethod
    def from_lexical(cls, text: str) -> "Time":
        """Parse a dateTime lexical form, lossless to milliseconds.

        Raises ValueError for anything outside the supported subset or
        outside the years 1-9999 in UTC.
        """
        return cls(lex_datetime(text)[0])

    def lexical(self) -> str:
        """Canonical zone-less UTC form with a four-digit year, fractional
        seconds trimmed.  Raises ValueError outside the years 1-9999."""
        whole, ms = divmod(self.epoch_millis, 1000)
        try:
            base = (_EPOCH + timedelta(seconds=whole)).isoformat()
        except OverflowError:
            raise ValueError(f"{self.epoch_millis} ms lies outside the years 1-9999") from None
        if ms:
            return base + f".{ms:03d}".rstrip("0")
        return base


@dataclass(frozen=True)
class Period:
    """A contiguous closed span of time; start must not exceed end."""

    start: Time
    end: Time

    def __post_init__(self):
        if self.start.epoch_millis > self.end.epoch_millis:
            # start must lie in (-inf, end]
            raise OutOfRange(
                "Period.start", self.start.epoch_millis, (None, self.end.epoch_millis)
            )


@dataclass(frozen=True)
class TemporalRegion:
    """A non-empty set of periods."""

    periods: frozenset[Period]

    def __init__(self, periods):
        object.__setattr__(self, "periods", frozenset(periods))
        if not self.periods:
            raise ValueError("temporal region needs at least one period")


@dataclass(frozen=True)
class SymbolicTime:
    """A named time ("lunchtime") denoting an explicit temporal region."""

    name: str
    denotes: TemporalRegion


When = Time | SymbolicTime | TemporalRegion


@dataclass(frozen=True)
class TimeOfDay:
    """A time of day detached from any date, in [0, 86400) seconds to the millisecond."""

    seconds_since_midnight: float

    def __post_init__(self):
        s = self.seconds_since_midnight
        if not 0 <= s < 86_400:
            raise ValueError("time of day outside [0, 86400)")
        # whole milliseconds, all lexical() writes, so values that serialize alike are equal
        object.__setattr__(self, "seconds_since_midnight", min(round(s * 1000), 86_399_999) / 1000)

    @classmethod
    def from_lexical(cls, text: str) -> "TimeOfDay":
        m = _TIME_RE.match(text.strip())
        if m is None:
            raise ValueError(f"malformed time: {text!r}")
        hour, minute, second = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if hour > 23 or minute > 59 or second > 59:
            raise ValueError(f"time fields out of range: {text!r}")
        # integer millisecond arithmetic so lexical round-trips are exact
        ms = min(round(float(m.group(4)) * 1000), 999) if m.group(4) else 0
        return cls(((hour * 3600 + minute * 60 + second) * 1000 + ms) / 1000.0)

    def lexical(self) -> str:
        whole, ms = divmod(round(self.seconds_since_midnight * 1000), 1000)
        h, rem = divmod(whole, 3600)
        m, s = divmod(rem, 60)
        base = f"{h:02d}:{m:02d}:{s:02d}"
        if ms:
            base += f".{ms:03d}".rstrip("0")
        return base


def period_contains(p: Period, t: Time) -> bool:
    """Closed containment: start <= t <= end."""
    return p.start.epoch_millis <= t.epoch_millis <= p.end.epoch_millis


def region_contains(r: TemporalRegion, t: Time) -> bool:
    """True iff any member period contains the instant."""
    return any(period_contains(p, t) for p in r.periods)


def utc_to_swatch(t: Time) -> float:
    """Beats since the most recent midnight UTC+1, in [0, 1000)."""
    return ((t.epoch_millis + _BMT_OFFSET_MILLIS) % MILLIS_PER_DAY) / _MILLIS_PER_BEAT
