"""Instants, periods and the beat clock."""

import math
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gloss.errors import OutOfRange
from gloss.temporal import (
    Period,
    SymbolicTime,
    TemporalRegion,
    Time,
    TimeOfDay,
    lex_datetime,
    period_contains,
    region_contains,
    utc_to_swatch,
)

# generous but bounded: years ~1973..2128
millis_range = st.integers(min_value=100_000_000_000, max_value=5_000_000_000_000)


def _millis(year, month, day, hour=0, minute=0, second=0, micro=0, tz=timezone.utc):
    """Independent epoch arithmetic through the datetime module."""
    dt = datetime(year, month, day, hour, minute, second, micro, tzinfo=tz)
    return round(dt.timestamp() * 1000)


_ORACLE_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(\.\d+)?(Z|[+-]\d{2}:\d{2})?$"
)
_ZONE_SUFFIX_RE = re.compile(r"(Z|[+-]\d{2}:\d{2})$")


def _oracle_millis(text: str) -> int:
    """The reading Time.from_lexical used to do, through an aware datetime,
    limited to the instants Time.lexical() can write."""
    m = _ORACLE_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed dateTime: {text!r}")
    year, month, day, hour, minute, second = (int(g) for g in m.groups()[:6])
    frac, zone = m.group(7), m.group(8)
    if zone is None or zone == "Z":
        tz = timezone.utc
    else:
        sign = 1 if zone[0] == "+" else -1
        tz = timezone(sign * timedelta(hours=int(zone[1:3]), minutes=int(zone[4:6])))
    dt = datetime(year, month, day, hour, minute, second, tzinfo=tz)
    millis = int(round(dt.timestamp() * 1000))
    if frac:
        millis += int(round(float(frac) * 1000))
    if not _millis(1, 1, 1) <= millis <= _millis(9999, 12, 31, 23, 59, 59, 999_000):
        raise ValueError(f"{text!r} lies outside the years 1-9999 in UTC")
    return millis


def _field(lo, hi, width):
    return st.integers(lo, hi).map(lambda n: str(n).zfill(width))


# valid forms and their near misses: every field a little past its range
_near_lexical = st.builds(
    "{}-{}-{}T{}:{}:{}{}{}".format,
    _field(0, 9999, 4),
    _field(0, 14, 2),
    _field(0, 33, 2),
    _field(0, 25, 2),
    _field(0, 61, 2),
    _field(0, 61, 2),
    st.one_of(st.just(""), st.text("0123456789", min_size=1, max_size=12).map(".{}".format)),
    st.one_of(
        st.sampled_from(["", "Z"]),
        st.builds("{}{}:{}".format, st.sampled_from("+-"), _field(0, 25, 2), _field(0, 99, 2)),
    ),
)
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")  # \d matches these too
_lexical_forms = st.one_of(
    _near_lexical,
    _near_lexical.map(lambda s: s.translate(_ARABIC_INDIC)),
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["", " ", "\n\t"]),
        _near_lexical,
        st.sampled_from(["", " ", "x"]),
    ),
    st.text(max_size=30),
)


class TestTimeLexical:
    def test_plain_datetime(self):
        t = Time.from_lexical("2003-05-16T18:31:59")
        assert t.epoch_millis == _millis(2003, 5, 16, 18, 31, 59)

    def test_fractional_seconds(self):
        t = Time.from_lexical("2003-05-16T18:32:02.42")
        assert t.epoch_millis == _millis(2003, 5, 16, 18, 32, 2, 420_000)

    def test_zulu_suffix(self):
        assert Time.from_lexical("2003-05-16T18:31:59Z") == Time.from_lexical(
            "2003-05-16T18:31:59"
        )

    def test_positive_offset(self):
        t = Time.from_lexical("2003-05-16T18:31:59+02:00")
        assert t.epoch_millis == _millis(2003, 5, 16, 16, 31, 59)

    def test_negative_offset(self):
        t = Time.from_lexical("2003-05-16T18:31:59-05:30")
        assert t.epoch_millis == _millis(2003, 5, 17, 0, 1, 59)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "not-a-date",
            "2003-05-16",
            "18:31:59",
            "2003-5-16T18:31:59",
            "2003-05-16T18:31",
            "2003-05-16 18:31:59",
            "2003-13-01T00:00:00",
            "2003-05-16T25:00:00",
            "2003-05-16T18:31:59+0200",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            Time.from_lexical(text)

    def test_lexical_is_zone_less_utc(self):
        t = Time.from_lexical("2003-05-16T18:31:59+02:00")
        assert t.lexical() == "2003-05-16T16:31:59"

    def test_lexical_trims_fraction(self):
        assert Time(1053109922420).lexical().endswith(".42")
        assert "." not in Time(1053109922000).lexical()

    @given(millis_range)
    def test_round_trip(self, millis):
        t = Time(millis)
        assert Time.from_lexical(t.lexical()) == t

    @given(millis_range, millis_range)
    def test_ordering_matches_millis(self, a, b):
        assert (Time(a) < Time(b)) == (a < b)

    @given(_lexical_forms)
    @settings(max_examples=1000)
    def test_matches_datetime_oracle(self, text):
        try:
            expected = _oracle_millis(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                Time.from_lexical(text)
            assert str(raised.value) == str(exc)
            return
        assert Time.from_lexical(text).epoch_millis == expected
        zoned = _ZONE_SUFFIX_RE.search(text.strip()) is not None
        assert lex_datetime(text.strip()) == (expected, zoned)

    @pytest.mark.parametrize(
        "text",
        [
            "0000-01-01T00:00:00",
            "2003-13-01T00:00:00",
            "2003-02-31T00:00:00",
            "1900-02-29T00:00:00",
            "2003-05-16T24:00:00",
            "2003-05-16T18:60:00",
            "2003-05-16T18:31:60",
            "2003-05-16T18:31:59+24:00",
        ],
    )
    def test_out_of_range_fields_rejected(self, text):
        with pytest.raises(ValueError):
            _oracle_millis(text)
        with pytest.raises(ValueError):
            Time.from_lexical(text)


def _strftime_lexical(t: Time) -> str:
    """Time.lexical as it was: strftime, which does not pad years below 1000."""
    whole, ms = divmod(t.epoch_millis, 1000)
    base = datetime.fromtimestamp(whole, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
    return base + f".{ms:03d}".rstrip("0") if ms else base


_YEAR_1000 = _millis(1000, 1, 1)
_YEAR_10000 = _millis(9999, 12, 31, 23, 59, 59) + 1000


class TestLexicalYears:
    @given(st.integers(_YEAR_1000, _YEAR_10000 - 1))
    @settings(max_examples=300)
    def test_same_as_strftime_from_year_1000(self, millis):
        assert Time(millis).lexical() == _strftime_lexical(Time(millis))

    @pytest.mark.parametrize("year", [1, 500, 999])
    def test_early_years_round_trip(self, year):
        t = Time(_millis(year, 3, 1, 12, 30, 15, 250_000))
        text = t.lexical()
        assert text == f"{year:04d}-03-01T12:30:15.25"
        assert Time.from_lexical(text) == t

    @pytest.mark.parametrize("millis", [_millis(1, 1, 1) - 1, _YEAR_10000, 10**30, -(10**30)])
    def test_outside_years_1_to_9999_rejected(self, millis):
        with pytest.raises(ValueError):
            Time(millis).lexical()

    @pytest.mark.parametrize(
        "text",
        ["9999-12-31T23:59:59-23:59", "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59.9996Z"],
    )
    def test_instants_lexical_cannot_write_are_refused(self, text):
        message = f"{text!r} lies outside the years 1-9999 in UTC"
        with pytest.raises(ValueError) as raised:
            lex_datetime(text)
        assert str(raised.value) == message
        with pytest.raises(ValueError, match="outside the years 1-9999 in UTC"):
            Time.from_lexical(text)

    @pytest.mark.parametrize(
        "text, millis, lexical",
        [
            ("0001-01-01T00:00:00Z", _millis(1, 1, 1), "0001-01-01T00:00:00"),
            ("0001-01-01T01:00:00+01:00", _millis(1, 1, 1), "0001-01-01T00:00:00"),
            ("9999-12-31T23:59:59.999Z", _YEAR_10000 - 1, "9999-12-31T23:59:59.999"),
            ("9999-12-31T22:59:59.999-01:00", _YEAR_10000 - 1, "9999-12-31T23:59:59.999"),
        ],
    )
    def test_both_bounds_are_accepted(self, text, millis, lexical):
        assert lex_datetime(text)[0] == millis
        assert Time.from_lexical(text).lexical() == lexical


class TestPeriod:
    def test_ordered_endpoints_ok(self):
        p = Period(Time(1000), Time(2000))
        assert p.start < p.end

    def test_instant_period_ok(self):
        Period(Time(1000), Time(1000))

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(OutOfRange):
            Period(Time(2000), Time(1000))

    def test_containment_is_closed(self):
        p = Period(Time(1000), Time(2000))
        assert period_contains(p, Time(1000))
        assert period_contains(p, Time(2000))
        assert period_contains(p, Time(1500))
        assert not period_contains(p, Time(999))
        assert not period_contains(p, Time(2001))

    def test_region_needs_a_period(self):
        with pytest.raises(ValueError):
            TemporalRegion([])

    def test_region_contains_any_member(self):
        r = TemporalRegion([Period(Time(0), Time(10)), Period(Time(100), Time(110))])
        assert region_contains(r, Time(5))
        assert region_contains(r, Time(105))
        assert not region_contains(r, Time(50))

    def test_symbolic_time_carries_region(self):
        r = TemporalRegion([Period(Time(0), Time(10))])
        lunch = SymbolicTime("lunchtime", r)
        assert lunch.denotes is r


class TestTimeOfDay:
    def test_bounds(self):
        TimeOfDay(0.0)
        TimeOfDay(86399.999)
        with pytest.raises(ValueError):
            TimeOfDay(86400.0)
        with pytest.raises(ValueError):
            TimeOfDay(-0.001)

    def test_lexical_form(self):
        assert TimeOfDay(9 * 3600).lexical() == "09:00:00"
        assert TimeOfDay(9 * 3600 + 0.5).lexical() == "09:00:00.5"

    def test_from_lexical(self):
        assert TimeOfDay.from_lexical("17:30:00").seconds_since_midnight == 63000
        with pytest.raises(ValueError):
            TimeOfDay.from_lexical("24:00:00")
        with pytest.raises(ValueError):
            TimeOfDay.from_lexical("9:00")

    @given(st.integers(min_value=0, max_value=86_399_999))
    def test_round_trip_millisecond_values(self, ms):
        tod = TimeOfDay(ms / 1000.0)
        assert TimeOfDay.from_lexical(tod.lexical()) == tod


def _swatch_oracle(t: Time) -> float:
    """Beats from scratch: wall clock in fixed UTC+1, no paper formula."""
    bmt = timezone(timedelta(hours=1))
    dt = datetime.fromtimestamp(t.epoch_millis / 1000.0, tz=bmt)
    seconds = dt.hour * 3600 + dt.minute * 60 + dt.second + dt.microsecond / 1e6
    return seconds / 86.4


class TestSwatch:
    def test_beat_zero_at_bmt_midnight(self):
        # 23:00 UTC is midnight in the beat zone
        t = Time.from_lexical("2003-05-16T23:00:00")
        assert utc_to_swatch(t) == 0.0

    def test_beat_500_at_bmt_noon(self):
        t = Time.from_lexical("2003-05-16T11:00:00")
        assert utc_to_swatch(t) == 500.0

    def test_known_instant(self):
        t = Time.from_lexical("2003-05-16T18:31:59")
        beats = utc_to_swatch(t)
        assert math.isclose(beats, _swatch_oracle(t), rel_tol=0, abs_tol=1e-9)
        assert math.isclose(beats, 813.8773148148148, rel_tol=0, abs_tol=1e-9)

    @given(millis_range)
    def test_range_and_oracle(self, millis):
        t = Time(millis)
        beats = utc_to_swatch(t)
        assert 0.0 <= beats < 1000.0
        assert math.isclose(beats, _swatch_oracle(t), rel_tol=0, abs_tol=1e-6)

    @given(millis_range)
    @settings(max_examples=300)
    def test_one_beat_is_86_4_seconds(self, millis):
        before = utc_to_swatch(Time(millis))
        after = utc_to_swatch(Time(millis + 86_400))
        assert math.isclose((after - before) % 1000.0, 1.0, rel_tol=0, abs_tol=1e-9)
