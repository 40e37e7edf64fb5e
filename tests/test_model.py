"""Core ontology types: constrained scalars, identifiers, places."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gloss.errors import (
    EmptyWhere,
    NotInteger,
    OutOfRange,
    PatternMismatch,
    Unresolvable,
)
from gloss.model import (
    Address,
    Altitude,
    AltitudeUnit,
    CircularBounds,
    Classification,
    Distance,
    DistanceUnit,
    Gazetteer,
    GlossObject,
    Id,
    IdKind,
    Information,
    Junction,
    Keypoint,
    LatLongCoordinate,
    Locale,
    PhysicalLocation,
    Profile,
    Region,
    ScalarKind,
    Speed,
    SpeedUnit,
    SymbolicLocation,
    Thoroughfare,
    Where,
    _NOT_XML_CHAR,
    field_default,
    make_constrained,
    make_id,
    resolve_region,
)


class TestConstrainedScalars:
    @pytest.mark.parametrize(
        "kind,lo,hi",
        [
            (ScalarKind.LATITUDE, -90.0, 90.0),
            (ScalarKind.LONGITUDE, -180.0, 180.0),
            (ScalarKind.BEARING, 0.0, 360.0),
        ],
    )
    def test_closed_interval(self, kind, lo, hi):
        assert make_constrained(kind, lo) == lo
        assert make_constrained(kind, hi) == hi
        assert make_constrained(kind, (lo + hi) / 2) == (lo + hi) / 2
        with pytest.raises(OutOfRange):
            make_constrained(kind, lo - 1e-9)
        with pytest.raises(OutOfRange):
            make_constrained(kind, hi + 1e-9)

    def test_non_negative(self):
        assert make_constrained(ScalarKind.NON_NEGATIVE, 0.0) == 0.0
        with pytest.raises(OutOfRange):
            make_constrained(ScalarKind.NON_NEGATIVE, -0.5)

    def test_nan_rejected_everywhere(self):
        for kind in ScalarKind:
            with pytest.raises((OutOfRange, NotInteger)):
                make_constrained(kind, float("nan"))

    def test_satellite_count_is_integral(self):
        assert make_constrained(ScalarKind.SAT_COUNT, 7) == 7
        assert make_constrained(ScalarKind.SAT_COUNT, 12.0) == 12
        assert isinstance(make_constrained(ScalarKind.SAT_COUNT, 12.0), int)
        with pytest.raises(NotInteger):
            make_constrained(ScalarKind.SAT_COUNT, 6.5)
        with pytest.raises(OutOfRange):
            make_constrained(ScalarKind.SAT_COUNT, 13)
        with pytest.raises(OutOfRange):
            make_constrained(ScalarKind.SAT_COUNT, -1)


def _constrained_before(kind, value):
    """make_constrained as it read when the ranges lived in a dict keyed by
    member: the oracle for every member's returns and exceptions."""
    lo, hi = {
        ScalarKind.LATITUDE: (-90.0, 90.0),
        ScalarKind.LONGITUDE: (-180.0, 180.0),
        ScalarKind.BEARING: (0.0, 360.0),
        ScalarKind.NON_NEGATIVE: (0.0, math.inf),
        ScalarKind.SAT_COUNT: (0, 12),
    }[kind]
    if kind is ScalarKind.SAT_COUNT:
        if isinstance(value, float) and not value.is_integer():
            raise NotInteger(f"satellite count must be integral, got {value!r}")
        value = int(value)
    if not lo <= value <= hi:
        raise OutOfRange(kind.value, value, (lo, hi))
    return value


class TestConstrainedAgainstOracle:
    VALUES = (
        -1e300, -361.0, -180.0, -90.0, -1, -1e-9, 0, 0.0, -0.0, 6.5, 7, 12, 12.0, 13,
        90.0, 90.000001, 180.0, 360.0, 1e300, math.inf, -math.inf, math.nan,
    )

    @staticmethod
    def _outcome(check, kind, value):
        try:
            got = check(kind, value)
        except (OutOfRange, NotInteger) as exc:
            return type(exc), str(exc), getattr(exc, "interval", None)
        return type(got), got

    @pytest.mark.parametrize("kind", list(ScalarKind))
    def test_every_member_and_value(self, kind):
        for value in self.VALUES:  # NaN is always refused, so outcomes compare equal
            got = self._outcome(make_constrained, kind, value)
            assert got == self._outcome(_constrained_before, kind, value), (kind, value)

    def test_members_keep_their_wire_names(self):
        assert [k.value for k in ScalarKind] == [
            "Latitude", "Longitude", "Bearing", "NonNegativeDouble", "SatCount"
        ]
        assert ScalarKind("SatCount") is ScalarKind.SAT_COUNT


class TestIds:
    def test_key_form(self):
        assert make_id(IdKind.EMAIL, "a@b.cd").key == "email:a@b.cd"
        assert make_id(IdKind.BIT_STRING, "graham").key == "bitString:graham"

    @pytest.mark.parametrize("value", ["+447941615809", "+", "+44 79 41"])
    def test_phone_accepts(self, value):
        assert make_id(IdKind.PHONE, value).value == value

    @pytest.mark.parametrize("value", ["447941615809", "+44-79", "phone", " +44"])
    def test_phone_rejects(self, value):
        with pytest.raises(PatternMismatch):
            make_id(IdKind.PHONE, value)

    @pytest.mark.parametrize(
        "value",
        ["graham@dcs.st-and.ac.uk", "a b@c d.e f", "x@y.z"],
    )
    def test_email_accepts(self, value):
        assert make_id(IdKind.EMAIL, value).value == value

    @pytest.mark.parametrize("value", ["grahamdcs", "@b.c", "a@b", "a@b.", "a@b@c"])
    def test_email_rejects(self, value):
        with pytest.raises(PatternMismatch):
            make_id(IdKind.EMAIL, value)

    def test_bit_string_and_guid_unconstrained(self):
        make_id(IdKind.BIT_STRING, "")
        make_id(IdKind.GUID, "anything at all")


class TestQuantities:
    def test_distance_must_be_non_negative(self):
        Distance(0.0)
        Distance(5.0, DistanceUnit.MILES)
        with pytest.raises(OutOfRange):
            Distance(-1.0)

    def test_speed_must_be_non_negative(self):
        Speed(35.1)
        with pytest.raises(OutOfRange):
            Speed(-0.1, SpeedUnit.KNOTS)

    def test_altitude_may_be_negative(self):
        # below sea level is fine
        assert Altitude(-420.0).value == -420.0
        assert Altitude(123.45, AltitudeUnit.FEET).unit is AltitudeUnit.FEET

    def test_default_units(self):
        assert Distance(1.0).unit is field_default(Distance, "unit") is DistanceUnit.M
        assert Speed(1.0).unit is field_default(Speed, "unit") is SpeedUnit.KNOTS
        assert Altitude(1.0).unit is field_default(Altitude, "unit") is AltitudeUnit.METRES

    def test_wire_unit_names(self):
        assert DistanceUnit("nautical miles") is DistanceUnit.NAUTICAL_MILES
        assert SpeedUnit("miles/h") is SpeedUnit.MILES_PER_H
        assert AltitudeUnit("F") is AltitudeUnit.FEET


class TestCoordinates:
    def test_range_enforced(self):
        LatLongCoordinate(90.0, 180.0)
        LatLongCoordinate(-90.0, -180.0)
        with pytest.raises(OutOfRange):
            LatLongCoordinate(90.001, 0.0)
        with pytest.raises(OutOfRange):
            LatLongCoordinate(0.0, -180.001)

    @given(
        st.floats(min_value=-90, max_value=90),
        st.floats(min_value=-180, max_value=180),
    )
    def test_in_range_accepted(self, lat, lon):
        c = LatLongCoordinate(lat, lon)
        assert c.latitude == lat and c.longitude == lon


class TestStructuredTypes:
    def test_classification_needs_a_type(self):
        Classification(("pub",))
        with pytest.raises(ValueError):
            Classification(())

    def test_address_email_checked(self):
        Address(email="bar@baz.qux")
        with pytest.raises(PatternMismatch):
            Address(email="nope")

    def test_information_defaults_empty(self):
        i = Information()
        assert i.info == () and i.links == ()

    def test_junction_needs_two_thoroughfares(self):
        a = Thoroughfare(keypoints=(Keypoint(Where(None)),))
        b = Thoroughfare()
        j = Junction(meets=(a, b))
        assert j.meets == frozenset((a, b))
        with pytest.raises(ValueError):
            Junction(meets=(a, a))

    def test_gloss_object_is_abstract(self):
        with pytest.raises(TypeError):
            GlossObject(Id(IdKind.BIT_STRING, "x"))

    def test_the_non_xml_characters_match_as_the_complement_of_the_xml_ones(self):
        every = "".join(map(chr, range(0x110000)))
        complement = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
        assert _NOT_XML_CHAR.findall(every) == complement.findall(every)

    def test_profile_from_mapping_is_order_insensitive(self):
        p1 = Profile.from_mapping(preferences={"a": "1", "b": "2"})
        p2 = Profile.from_mapping(preferences={"b": "2", "a": "1"})
        assert p1 == p2


class TestResolveRegion:
    def test_empty_where(self):
        with pytest.raises(EmptyWhere):
            resolve_region(Where(None))

    def test_point_becomes_degenerate_region(self):
        p = PhysicalLocation(LatLongCoordinate(56.34, -2.87))
        region = resolve_region(Where(p))
        assert region.distinguished_point is p
        assert isinstance(region.bounds, CircularBounds)
        assert region.bounds.radius.value == 0.0

    def test_bare_physical_unresolvable(self):
        with pytest.raises(Unresolvable):
            resolve_region(Where(PhysicalLocation()))

    def test_region_passes_through(self):
        region = Region(PhysicalLocation(LatLongCoordinate(1, 2)))
        assert resolve_region(Where(region)) is region

    def test_symbolic_own_region_wins(self):
        region = Region(PhysicalLocation(LatLongCoordinate(3, 4)))
        s = SymbolicLocation(region=region)
        assert resolve_region(Where(s)) is region

    def test_symbolic_falls_back_to_gazetteer(self, tmp_path):
        path = tmp_path / "places.tsv"
        path.write_text("# name\tlat\tlon\tradius\nWest Sands\t56.3435\t-2.8034\t400\n")
        gaz = Gazetteer.from_file(path)
        assert len(gaz) == 1
        w = Where(SymbolicLocation(), name="West Sands")
        region = resolve_region(w, gaz)
        assert region.distinguished_point.coordinate.latitude == 56.3435
        assert region.bounds.radius.value == 400.0

    def test_symbolic_without_region_or_entry(self):
        with pytest.raises(Unresolvable):
            resolve_region(Where(SymbolicLocation(), name="nowhere"), Gazetteer())

    def test_locale_has_no_region(self):
        with pytest.raises(Unresolvable):
            resolve_region(Where(Locale()))

    def test_gazetteer_rejects_short_lines(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only-a-name\t56.0\n")
        with pytest.raises(ValueError):
            Gazetteer.from_file(path)

    @pytest.mark.parametrize(
        "line",
        ["West Sands\tabc\t-2.8", "West Sands\t56.3\t-2.8\tfar", "West Sands\t56.3\t-2.8\t400\textra"],
    )
    def test_gazetteer_names_the_line_it_cannot_read(self, tmp_path, line):
        path = tmp_path / "bad.tsv"
        path.write_text(f"Pier\t56.34\t-2.79\n{line}\n")
        with pytest.raises(ValueError, match="^bad gazetteer line: ") as caught:
            Gazetteer.from_file(path)
        assert repr(line + "\n") in str(caught.value)

    def test_gazetteer_range_errors_stay_out_of_range(self, tmp_path):
        path = tmp_path / "far.tsv"
        path.write_text("Pole\t91.0\t0.0\n")
        with pytest.raises(OutOfRange):
            Gazetteer.from_file(path)
