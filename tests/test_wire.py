"""Location-event wire format: corpus fidelity, canonical output,
violation reporting, and the parser/validator agreement guarantee."""

import copy
import hashlib
import random
import xml.etree.ElementTree as ET

import pytest

import eventgen
from gloss.errors import NotWellFormed, SchemaViolation
from gloss.eventd import EventStore
from gloss.model import (
    Address,
    Altitude,
    AltitudeUnit,
    CircularBounds,
    Classification,
    Distance,
    DistanceUnit,
    Id,
    IdKind,
    LatLongCoordinate,
    Locale,
    PhysicalLocation,
    ProductLocation,
    RectangularBounds,
    Region,
    Speed,
    SpeedUnit,
    SymbolicLocation,
    Where,
)
from gloss.temporal import Time, TimeOfDay
from gloss.wire import (
    NS,
    LocationEvent,
    Observation,
    ProcessingStep,
    parse_location_event,
    parse_where,
    serialize_location_event,
    serialize_where,
    validate_document,
    _NESTING_CAP,
)

T0 = Time.from_lexical("2003-05-16T18:31:59Z")


def _event(**obs_fields) -> LocationEvent:
    where = obs_fields.pop(
        "where", Where(PhysicalLocation(LatLongCoordinate(56.34, -2.87)))
    )
    return LocationEvent(
        Id(IdKind.BIT_STRING, "t"),
        (ProcessingStep(T0, "processed on PDA"),),
        (Observation(time_of_observation=T0, where=where, **obs_fields),),
    )


def _rules(document):
    return {v.rule for v in validate_document(document).violations}


def _assert_invalid(document, rule):
    """The document must trip `rule` in lax mode and raise in strict mode."""
    report = validate_document(document)
    assert not report.ok
    assert rule in {v.rule for v in report.violations}, report.violations
    with pytest.raises(SchemaViolation):
        parse_location_event(document)


# -- corpus -------------------------------------------------------------------


class TestCorpus:
    def test_all_valid(self, corpus_documents):
        for name, data in corpus_documents.items():
            report = validate_document(data)
            assert report.ok, (name, report.violations)

    def test_coordinate_email(self, corpus_documents):
        e = parse_location_event(corpus_documents["coordinate-email.xml"])
        assert e.id == Id(IdKind.EMAIL, "graham@dcs.st-and.ac.uk")
        assert e.processing_sequence == ()
        (o,) = e.observations
        p = o.where.payload
        assert isinstance(p, PhysicalLocation)
        assert p.coordinate.latitude == 56.340232849121094
        assert p.coordinate.longitude == -2.86754378657099878
        assert o.altitude is None and o.speed is None
        assert o.satellites_visible is None

    def test_gps_fix_phone(self, corpus_documents):
        e = parse_location_event(corpus_documents["gps-fix-phone.xml"])
        assert e.id == Id(IdKind.PHONE, "+447941615809")
        (step,) = e.processing_sequence
        assert step.description == "processed on PDA"
        (o,) = e.observations
        assert o.altitude == Altitude(123.45, AltitudeUnit.FEET)
        assert o.speed == Speed(35.1, SpeedUnit.KNOTS)  # default unit
        assert o.course == 45.0
        assert o.magnetic_variation == 3.8
        assert o.satellites_visible == 5  # leading zero on the wire
        assert o.pdop == o.hdop == o.vdop == 1.5
        assert o.hpe == o.vpe == 15.0

    def test_region_relay(self, corpus_documents):
        e = parse_location_event(corpus_documents["region-relay.xml"])
        assert e.id == Id(IdKind.BIT_STRING, "graham")
        assert len(e.processing_sequence) == 3
        last = e.processing_sequence[-1]
        assert last.description == "received on server"
        assert last.date_time.epoch_millis % 1000 == 420  # ".42" kept
        (o,) = e.observations
        region = o.where.payload
        assert isinstance(region, Region)
        assert region.distinguished_point.coordinate.latitude == 56.340232849121094
        assert isinstance(region.bounds, CircularBounds)
        assert region.bounds.radius == Distance(1.0, DistanceUnit.MILES)
        assert o.altitude == Altitude(123.45, AltitudeUnit.METRES)
        assert o.satellites_visible == 5
        assert o.pdop == 1.5 and o.hdop is None

    def test_round_trip(self, corpus_documents):
        for name, data in corpus_documents.items():
            e = parse_location_event(data)
            again = parse_location_event(serialize_location_event(e))
            assert again == e, name

    def test_zone_less_timestamps_warn(self, corpus_documents):
        report = validate_document(corpus_documents["gps-fix-phone.xml"])
        assert report.ok
        assert any("zone-less" in w for w in report.warnings)


# -- canonical output ----------------------------------------------------------


class TestCanonicalBytes:
    def test_declaration_and_compactness(self):
        data = serialize_location_event(_event())
        assert data.startswith(b'<?xml version="1.0" encoding="UTF-8"?>\n')
        body = data.split(b"\n", 1)[1]
        assert b"\n" not in body  # no pretty-printing
        assert b"locationEvent" in body and NS.encode() in body

    def test_default_units_omitted(self):
        data = serialize_location_event(
            _event(altitude=Altitude(10.0), speed=Speed(35.1))
        )
        assert b"<altitude>10</altitude>" in data
        assert b"<speed>35.1</speed>" in data
        assert b"unit=" not in data

    def test_non_default_units_written(self):
        data = serialize_location_event(
            _event(
                altitude=Altitude(123.45, AltitudeUnit.FEET),
                speed=Speed(1.0, SpeedUnit.M_PER_S),
            )
        )
        assert b'<altitude unit="F">123.45</altitude>' in data
        assert b'<speed unit="m/s">1</speed>' in data

    def test_doubles_trim_trailing_zeroes(self):
        where = Where(PhysicalLocation(LatLongCoordinate(56.0, -2.5)))
        data = serialize_location_event(_event(where=where))
        assert b"<latitude>56</latitude>" in data
        assert b"<longitude>-2.5</longitude>" in data

    def test_negative_zero_is_written_as_zero(self):
        # equal places and events must serialize to identical bytes
        def place(lat):
            return Where(PhysicalLocation(LatLongCoordinate(lat, 2.0)))

        assert place(-0.0) == place(0.0)
        assert serialize_where(place(-0.0)) == serialize_where(place(0.0))
        assert b"<latitude>0</latitude>" in serialize_where(place(-0.0))
        assert serialize_location_event(_event(course=-0.0)) == serialize_location_event(
            _event(course=0.0)
        )

    @pytest.mark.parametrize("year", [1, 500, 999])
    def test_early_years_round_trip(self, year):
        t = Time.from_lexical(f"{year:04d}-03-01T00:00:00")
        e = LocationEvent(
            Id(IdKind.BIT_STRING, "t"),
            (ProcessingStep(t, "archived"),),
            (Observation(time_of_observation=t, where=Where(None)),),
        )
        data = serialize_location_event(e)
        assert f"<dateTime>{year:04d}-03-01T00:00:00</dateTime>".encode() in data
        assert parse_location_event(data) == e

    def test_utf8_content_survives(self):
        e = LocationEvent(
            Id(IdKind.BIT_STRING, "smörgåsbord"),
            (),
            (Observation(time_of_observation=T0, where=Where(None)),),
        )
        data = serialize_location_event(e)
        assert "smörgåsbord".encode("utf-8") in data
        assert parse_location_event(data).id.value == "smörgåsbord"


# -- targeted mutations ---------------------------------------------------------


class TestMutations:
    @pytest.fixture()
    def base(self, corpus_documents):
        return corpus_documents["gps-fix-phone.xml"].decode("latin-1")

    def test_latitude_above_range(self, base):
        _assert_invalid(base.replace(">56.340", ">956.340"), "maxInclusive")

    def test_longitude_below_range(self, base):
        _assert_invalid(base.replace(">-2.867", ">-202.867"), "minInclusive")

    def test_longitude_junk(self, base):
        _assert_invalid(
            base.replace(
                "<longitude>-2.86754378657099878</longitude>",
                "<longitude>east-ish</longitude>",
            ),
            "double",
        )

    def test_underscore_not_a_double(self, base):
        _assert_invalid(base.replace(">35.1<", ">1_0<"), "double")

    def test_missing_time_of_observation(self, base):
        mutated = base.replace(
            "<timeOfObservation>2003-05-16T18:31:59</timeOfObservation>", ""
        )
        _assert_invalid(mutated, "minOccurs")

    def test_optional_fields_out_of_order(self, base):
        mutated = base.replace(
            "<speed>35.1</speed>\n    <course>45</course>",
            "<course>45</course>\n    <speed>35.1</speed>",
        )
        assert mutated != base
        _assert_invalid(mutated, "sequence")

    def test_duplicate_optional_field(self, base):
        mutated = base.replace("<PDOP>1.5</PDOP>", "<PDOP>1.5</PDOP><PDOP>1.5</PDOP>")
        _assert_invalid(mutated, "maxOccurs")

    def test_namespace_swap(self, base):
        mutated = base.replace(NS, "http://example.org/not-gloss/")
        _assert_invalid(mutated, "namespace")

    def test_satellites_not_integral(self, base):
        _assert_invalid(base.replace(">05<", ">6.5<"), "integer")

    def test_satellites_above_twelve(self, base):
        _assert_invalid(base.replace(">05<", ">13<"), "maxInclusive")
        _assert_invalid(base.replace(">05<", ">-1<"), "minInclusive")  # and below zero

    def test_bad_unit_name(self, base):
        _assert_invalid(base.replace('unit="F"', 'unit="yards"'), "enumeration")

    def test_unknown_element(self, base):
        mutated = base.replace("<PDOP>1.5</PDOP>", "<frobnicator/>")
        _assert_invalid(mutated, "unexpected")

    def test_unknown_attribute(self, base):
        # every complex element rejects a plain attribute the schema lacks
        symbolic = serialize_location_event(_event(where=Where(SymbolicLocation(
            subtype=ProductLocation(),
            region=Region(PhysicalLocation(), CircularBounds(PhysicalLocation(), Distance(1.0))),
        )))).decode()
        rectangular = serialize_location_event(_event(where=Where(Region(
            PhysicalLocation(), RectangularBounds(PhysicalLocation(), PhysicalLocation())
        )))).decode()
        event, obs = "/locationEvent", "/locationEvent/observation[1]/where"
        classified = f"{obs}/symbolicLocation/classifiedLocation/addressLocation"
        cases = (
            ("observation", base, f"{event}/observation[1]"),
            ("processingSequence", base, f"{event}/processingSequence"),
            ("processingStep", base, f"{event}/processingSequence/processingStep[1]"),
            ("coordinate", base, f"{obs}/physicalLocation/coordinate"),
            ("circularBounds", symbolic, f"{obs}/symbolicLocation/region/bounds/circularBounds"),
            ("rectangularBounds", rectangular, f"{obs}/region/bounds/rectangularBounds"),
            ("addressLocation", symbolic, classified),
            ("productLocation", symbolic, f"{classified}/productLocation"),
        )
        for local, document, path in cases:
            mutated = document.replace(f"<{local}>", f'<{local} bogus="x">', 1)
            assert mutated != document, local
            breach = (path, "attribute", "unexpected attribute 'bogus'")
            report = validate_document(mutated)
            assert [(v.path, v.rule, v.detail) for v in report.violations] == [breach]
            with pytest.raises(SchemaViolation) as raised:
                parse_location_event(mutated)
            assert (raised.value.path, raised.value.rule, raised.value.detail) == breach

    def test_phone_without_plus(self, base):
        _assert_invalid(base.replace("+447941615809", "447941615809"), "pattern")

    def test_bad_date_time(self, base):
        mutated = base.replace(
            "<dateTime>2003-05-16T18:31:59</dateTime>",
            "<dateTime>2003-13-16T18:31:59</dateTime>",
        )
        _assert_invalid(mutated, "dateTime")

    def test_course_above_range(self, base):
        _assert_invalid(base.replace(">45<", ">405<"), "maxInclusive")

    def test_stray_text(self, base):
        mutated = base.replace("<observation>", "<observation>stray words ")
        _assert_invalid(mutated, "text")

    def test_id_with_two_forms(self, base):
        mutated = base.replace(
            "<phone>+447941615809</phone>",
            "<phone>+447941615809</phone><email>a@b.cd</email>",
        )
        _assert_invalid(mutated, "choice")

    def test_no_observation(self, corpus_documents):
        text = corpus_documents["coordinate-email.xml"].decode("latin-1")
        start = text.index("<observation>")
        end = text.index("</observation>") + len("</observation>")
        _assert_invalid(text[:start] + text[end:], "minOccurs")

    def test_truncated_document(self, base):
        data = base[: len(base) // 2]
        assert not validate_document(data).ok
        assert "well-formed" in _rules(data)
        with pytest.raises(NotWellFormed):
            parse_location_event(data)

    def test_wrong_root(self):
        doc = f'<observation xmlns="{NS}"/>'
        assert "unexpected" in _rules(doc)
        with pytest.raises(SchemaViolation):
            parse_location_event(doc)


# -- structural coverage ---------------------------------------------------------


class TestStructure:
    def test_empty_where(self):
        e = _event(where=Where(None))
        again = parse_location_event(serialize_location_event(e))
        assert again.observations[0].where == Where(None)

    def test_where_attributes(self):
        w = Where(None, name="West Sands", gloss_urn="urn:gloss:42")
        again = parse_location_event(serialize_location_event(_event(where=w)))
        assert again.observations[0].where == w

    def test_symbolic_subtype_chain(self):
        product = ProductLocation(
            classifications=(Classification(("pub",)),),
            description="corner table",
            address=Address(street="North St", email="bar@pub.example"),
            open_time=TimeOfDay.from_lexical("11:00:00"),
            close_time=TimeOfDay.from_lexical("23:30:00"),
        )
        w = Where(
            SymbolicLocation(
                subtype=product,
                region=Region(
                    PhysicalLocation(LatLongCoordinate(56.34, -2.8)),
                    CircularBounds(
                        PhysicalLocation(LatLongCoordinate(56.34, -2.8)),
                        Distance(25.0),
                    ),
                ),
            )
        )
        again = parse_location_event(serialize_location_event(_event(where=w)))
        assert again.observations[0].where == w

    def test_product_times_on_the_wire(self):
        w = Where(
            SymbolicLocation(
                subtype=ProductLocation(
                    open_time=TimeOfDay.from_lexical("09:00:00"),
                    close_time=TimeOfDay.from_lexical("17:00:00"),
                )
            )
        )
        data = serialize_location_event(_event(where=w))
        assert b"<openTime>09:00:00</openTime>" in data
        assert b"<closeTime>17:00:00</closeTime>" in data

    def test_locale_extensions_preserved(self):
        # prefixes may be rewritten in transit; the infoset must not be
        ext = '<ext:note xmlns:ext="urn:example:ext">mind the step</ext:note>'
        w = Where(Locale(extensions=(ext,)))
        again = parse_location_event(serialize_location_event(_event(where=w)))
        locale = again.observations[0].where.payload
        (got,) = locale.extensions
        el = ET.fromstring(got)
        assert el.tag == "{urn:example:ext}note"
        assert el.text == "mind the step"

    def test_locale_extension_fixpoint(self):
        # the fragment is held in its canonical form from construction, so
        # the first round trip already gives the event back
        ext = '<ext:note xmlns:ext="urn:example:ext">mind the step</ext:note>'
        event = _event(where=Where(Locale(extensions=(ext,))))
        assert parse_location_event(serialize_location_event(event)) == event

    def test_broken_extension_fragment_is_not_well_formed(self):
        with pytest.raises(NotWellFormed, match="^locale extension fragment: "):
            Locale(extensions=("<e",))

    @pytest.mark.parametrize("part", ["text", "attribute"])
    def test_extension_element_with_a_non_xml_character_is_not_well_formed(self, part):
        # a hand-built element can hold what no XML document can carry
        el = ET.Element("{urn:x}e")
        if part == "text":
            el.text = "a\x01b"
        else:
            el.set("k", "a\x01b")
        with pytest.raises(NotWellFormed, match="^locale extension fragment: "):
            Locale(extensions=(el,))

    def test_event_without_observations_is_refused(self):
        with pytest.raises(ValueError):
            LocationEvent(Id(IdKind.BIT_STRING, "t"), (), ())

    def test_unknown_where_payload_is_refused(self):
        with pytest.raises(TypeError):
            serialize_where(Where(payload=object()))

    @pytest.mark.parametrize(
        "extension, path, name",
        [
            ('<parent xmlns=""/>', "parent", "parent"),
            ('<x:e xmlns:x="urn:x"><plain xmlns=""/></x:e>', "e", "plain"),
        ],
    )
    def test_reader_reports_an_element_in_no_namespace(self, extension, path, name):
        # at the parent this locale parsed, and after one serialize read
        # back as a locale with a parent
        document = serialize_location_event(_event(where=Where(Locale()))).replace(
            b"<locale />", f"<locale>{extension}</locale>".encode()
        )
        expected = (
            f"/locationEvent/observation[1]/where/locale/{path}", "namespace",
            f"element {name!r} in no namespace",
        )
        assert [(v.path, v.rule, v.detail) for v in validate_document(document).violations] == [
            expected
        ]
        with pytest.raises(SchemaViolation) as raised:
            parse_location_event(document)
        assert (raised.value.path, raised.value.rule, raised.value.detail) == expected

    def test_foreign_parent_is_extension_not_field(self):
        # same local name as the schema's parent element, different namespace:
        # must land in extensions, not be read as the locale's parent
        ext = '<f:parent xmlns:f="http://example.org/meta">other</f:parent>'
        w = Where(Locale(extensions=(ext,)))
        again = parse_location_event(serialize_location_event(_event(where=w)))
        locale = again.observations[0].where.payload
        assert locale.parent is None
        assert len(locale.extensions) == 1

    def test_nested_locale(self):
        inner = Locale(classifications=(Classification(("building",)),))
        outer = Locale(
            parent=inner,
            contents=(SymbolicLocation(),),
            neighbours=(Locale(),),
        )
        again = parse_location_event(serialize_location_event(_event(where=Where(outer))))
        assert again.observations[0].where.payload == outer

    def test_rectangular_bounds(self):
        w = Where(
            Region(
                PhysicalLocation(LatLongCoordinate(56.5, -2.5)),
                RectangularBounds(
                    PhysicalLocation(LatLongCoordinate(57.0, -3.0)),
                    PhysicalLocation(LatLongCoordinate(56.0, -2.0)),
                ),
            )
        )
        again = parse_location_event(serialize_location_event(_event(where=w)))
        assert again.observations[0].where == w

    def test_foreign_attribute_passes(self, corpus_documents):
        # xsi:schemaLocation sits on every corpus root and is tolerated
        report = validate_document(corpus_documents["region-relay.xml"])
        assert report.ok

    def test_sat_count_plus_sign(self, corpus_documents):
        text = corpus_documents["gps-fix-phone.xml"].decode("latin-1")
        e = parse_location_event(text.replace(">05<", ">+7<"))
        assert e.observations[0].satellites_visible == 7


class TestParseWhere:
    def test_where_fragment_round_trip(self):
        w = Where(
            SymbolicLocation(locales=(Locale(),), fixed=False),
            name="st andrews",
        )
        assert parse_where(serialize_where(w)) == w

    def test_sub_millisecond_opening_time_round_trips(self):
        # a time of day holds whole milliseconds, all its lexical form carries
        w = Where(SymbolicLocation(subtype=ProductLocation(open_time=TimeOfDay(32400.0004))))
        assert parse_where(serialize_where(w)) == w

    def test_bare_payload_roots(self):
        assert parse_where("<physicalLocation/>") == Where(PhysicalLocation())
        assert parse_where("<locale/>") == Where(Locale())
        got = parse_where(
            "<symbolicLocation><information/><region>"
            "<distinguishedPoint/><bounds/></region><fixed>true</fixed>"
            "</symbolicLocation>"
        )
        assert got == Where(SymbolicLocation())
        got = parse_where(
            "<region><distinguishedPoint><coordinate><latLongCoordinate>"
            "<latitude>1</latitude><longitude>2</longitude>"
            "</latLongCoordinate></coordinate></distinguishedPoint>"
            "<bounds/></region>"
        )
        assert got == Where(Region(PhysicalLocation(LatLongCoordinate(1.0, 2.0))))

    def test_namespace_less_fragment_accepted(self):
        w = parse_where('<where name="x"><physicalLocation/></where>')
        assert w == Where(PhysicalLocation(), name="x")

    def test_namespace_less_fragment_reads_as_if_declared(self):
        # a plain element inside a foreign one is in the wire namespace too
        plain = '<where><locale><x:e xmlns:x="urn:x"><note/></x:e></locale></where>'
        declared = plain.replace("<where>", f'<where xmlns="{NS}">')
        assert parse_where(plain) == parse_where(declared)

    def test_wrong_namespace_rejected(self):
        with pytest.raises(SchemaViolation):
            parse_where('<where xmlns="http://example.org/other"/>')

    def test_unknown_root_rejected(self):
        with pytest.raises(SchemaViolation):
            parse_where("<somewhere/>")

    def test_malformed_rejected(self):
        with pytest.raises(NotWellFormed):
            parse_where("<where")

    @pytest.mark.parametrize("xmlns", ["", f' xmlns="{NS}"'])
    def test_deep_nesting_is_a_depth_violation(self, xmlns):
        deep = f"<locale{xmlns}>" + "<parent>" * 3000 + "</parent>" * 3000 + "</locale>"
        with pytest.raises(SchemaViolation) as raised:
            parse_where(deep)
        assert (raised.value.path, raised.value.rule) == ("/", "depth")


class TestTextInput:
    # gps-fix-phone.xml declares ISO-8859-1; as text it is already decoded
    @pytest.mark.parametrize(
        "edit, read",
        [
            pytest.param(
                lambda gps: gps.replace("<where>", '<where name="Café">'),
                lambda doc: parse_location_event(doc).observations[0].where.name,
                id="parse_location_event",
            ),
            pytest.param(
                lambda gps: gps.replace(">35.1<", ">Café<"),
                lambda doc: [v.detail for v in validate_document(doc).violations],
                id="validate_document",
            ),
            pytest.param(
                lambda gps: '<?xml version="1.0" encoding="ISO-8859-1"?><where name="Café"/>',
                lambda doc: parse_where(doc).name,
                id="parse_where",
            ),
        ],
    )
    def test_text_reads_as_its_declared_bytes_do(self, corpus_documents, edit, read):
        text = edit(corpus_documents["gps-fix-phone.xml"].decode("latin-1"))
        from_bytes = read(text.encode("latin-1"))
        assert "Café" in str(from_bytes) and "Ã" not in str(from_bytes)
        assert read(text) == from_bytes


class TestInputGate:
    # an encoding Python does not know, one expat cannot use, and text that cannot be encoded
    @pytest.mark.parametrize(
        "document",
        [
            pytest.param(b'<?xml version="1.0" encoding="bogus"?><locationEvent/>', id="unknown-encoding"),
            pytest.param(b'<?xml version="1.0" encoding="shift_jis"?><locationEvent/>', id="multi-byte-encoding"),
            pytest.param("<locationEvent>\ud800</locationEvent>", id="lone-surrogate"),
        ],
    )
    @pytest.mark.parametrize(
        "read", [parse_location_event, parse_where, validate_document], ids=lambda read: read.__name__
    )
    def test_undecodable_input_is_not_well_formed(self, document, read):
        if read is validate_document:
            violations = validate_document(document).violations
            assert [(v.path, v.rule) for v in violations] == [("/", "well-formed")]
        else:
            with pytest.raises(NotWellFormed):
                read(document)


class TestLaxCollection:
    def test_multiple_violations_collected(self, corpus_documents):
        text = corpus_documents["gps-fix-phone.xml"].decode("latin-1")
        mutated = (
            text.replace(">56.340232849121094<", ">96.340232849121094<")
            .replace(">05<", ">66<")
            .replace("<observation>", '<observation blink="on">')
        )
        report = validate_document(mutated)
        rules = {v.rule for v in report.violations}
        assert {"maxInclusive", "attribute"} <= rules
        assert len(report.violations) >= 3

    def test_validation_never_raises(self):
        for junk in (b"", b"<", b"<a/>", b"\xff\xfe", b"<locationEvent/>"):
            report = validate_document(junk)
            assert not report.ok

    def test_deep_nesting_rejected_by_both(self):
        shallow = serialize_location_event(_event(where=Where(Locale(parent=Locale()))))
        deep = shallow.replace(b"<parent />", b"<parent>" * 3000 + b"</parent>" * 3000)
        assert deep != shallow
        report = validate_document(deep)
        assert [(v.path, v.rule) for v in report.violations] == [("/", "depth")]
        with pytest.raises(SchemaViolation) as raised:
            parse_location_event(deep)
        assert (raised.value.path, raised.value.rule) == ("/", "depth")

    def test_violation_paths_are_anchored(self, corpus_documents):
        # each breach is reported once, with its path, rule and wording,
        # by validation and strict parsing alike
        gps = corpus_documents["gps-fix-phone.xml"].decode("latin-1")
        relay = corpus_documents["region-relay.xml"].decode("latin-1")
        speed = "/locationEvent/observation[1]/speed"
        radius = "/locationEvent/observation[1]/where/region/bounds/circularBounds/radius"
        units = "['m/s', 'km/h', 'miles/h', 'knots']"
        cases = [
            (gps.replace(">35.1<", ">nope<"), speed, "double", "not a double: 'nope'"),
            (gps.replace(">35.1<", ">nan<"), speed, "minInclusive", "speed nan violates minInclusive=0"),
            (
                relay.replace('<radius unit="miles">1<', '<radius unit="miles">-1<'),
                radius, "minInclusive", "distance -1.0 violates minInclusive=0",
            ),
            (  # a bad unit is the whole breach: the value is not judged
                gps.replace("<speed>35.1<", '<speed unit="warp">-35.1<'),
                speed, "enumeration", f"unit 'warp' not in {units}",
            ),
        ]
        for document, path, rule, detail in cases:
            report = validate_document(document)
            assert [(v.path, v.rule, v.detail) for v in report.violations] == [(path, rule, detail)]
            with pytest.raises(SchemaViolation) as raised:
                parse_location_event(document)
            assert (raised.value.path, raised.value.rule, raised.value.detail) == (path, rule, detail)

    @pytest.mark.parametrize("stamp", ["9999-12-31T23:59:59-23:59", "0001-01-01T00:00:00+01:00"])
    def test_instant_outside_the_writable_years(self, corpus_documents, stamp):
        gps = corpus_documents["gps-fix-phone.xml"].decode("latin-1")
        document = gps.replace(
            "<timeOfObservation>2003-05-16T18:31:59<", f"<timeOfObservation>{stamp}<"
        )
        expected = (
            "/locationEvent/observation[1]/timeOfObservation",
            "dateTime",
            f"{stamp!r} lies outside the years 1-9999 in UTC",
        )
        report = validate_document(document)
        assert [(v.path, v.rule, v.detail) for v in report.violations] == [expected]
        with pytest.raises(SchemaViolation) as raised:
            parse_location_event(document)
        assert (raised.value.path, raised.value.rule, raised.value.detail) == expected

    _LATITUDE = "<latitude>56.340232849121094</latitude>"
    _LATLONG = "/locationEvent/observation[1]/where/physicalLocation/coordinate/latLongCoordinate"

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            pytest.param(
                _LATITUDE, '<x:latitude xmlns:x="urn:other">56.340232849121094</x:latitude>',
                [(f"{_LATLONG}/latitude", "namespace", f"element 'latitude' not in {NS}")],
                id="foreign-latitude",
            ),
            pytest.param(
                _LATITUDE, "<frobnicator>56.340232849121094</frobnicator>",
                [
                    (f"{_LATLONG}/latitude", "minOccurs", "missing latitude"),
                    (f"{_LATLONG}/longitude", "minOccurs", "missing longitude"),
                    (f"{_LATLONG}/frobnicator", "unexpected", "element not allowed here"),
                ],
                id="unknown-wire-name",
            ),
            pytest.param(
                "<PDOP>1.5</PDOP>", '<x:PDOP xmlns:x="urn:other">1.5</x:PDOP>',
                [("/locationEvent/observation[1]/PDOP", "namespace", f"element 'PDOP' not in {NS}")],
                id="foreign-optional-field",
            ),
            pytest.param(
                "<PDOP>1.5</PDOP>", '<PDOP xmlns="">1.5</PDOP>',
                [("/locationEvent/observation[1]/PDOP", "namespace", f"element 'PDOP' not in {NS}")],
                id="unqualified-optional-field",
            ),
            pytest.param(
                "<phone>+447941615809</phone>", '<x:phone xmlns:x="urn:other">+447941615809</x:phone>',
                [("/locationEvent/ID/phone", "namespace", f"element 'phone' not in {NS}")],
                id="foreign-choice",
            ),
            pytest.param(
                "<processingStep>\n      <dateTime>2003-05-16T18:31:59</dateTime>\n"
                "      <description>processed on PDA</description>\n    </processingStep>",
                '<x:processingStep xmlns:x="urn:other"><dateTime>2003-05-16T18:31:59</dateTime>'
                "<description>processed on PDA</description></x:processingStep>",
                [
                    (
                        "/locationEvent/processingSequence/processingStep[1]", "namespace",
                        f"element 'processingStep' not in {NS}",
                    )
                ],
                id="foreign-run-member",
            ),
        ],
    )
    def test_namespace_verdicts(self, corpus_documents, old, new, expected):
        gps = corpus_documents["gps-fix-phone.xml"].decode("latin-1")
        assert gps.count(old) == 1
        document = gps.replace(old, new)
        assert [(v.path, v.rule, v.detail) for v in validate_document(document).violations] == expected
        with pytest.raises(SchemaViolation) as raised:
            parse_location_event(document)
        assert (raised.value.path, raised.value.rule, raised.value.detail) == expected[0]

    def test_root_outside_the_namespace(self, corpus_documents):
        gps = corpus_documents["gps-fix-phone.xml"].decode("latin-1")
        document = gps.replace("<locationEvent ", '<x:locationEvent xmlns:x="urn:other" ').replace(
            "</locationEvent>", "</x:locationEvent>"
        )
        expected = ("/locationEvent", "namespace", f"root element not in {NS}")
        assert [(v.path, v.rule, v.detail) for v in validate_document(document).violations] == [expected]
        with pytest.raises(SchemaViolation) as raised:
            parse_location_event(document)
        assert (raised.value.path, raised.value.rule, raised.value.detail) == expected


def _nested(levels: int) -> bytes:
    """An event whose where is a locale inside `levels - 1` parents."""
    shallow = serialize_location_event(_event(where=Where(Locale(parent=Locale()))))
    n = levels - 1
    return shallow.replace(b"<parent />", b"<parent>" * n + b"</parent>" * n)


def _nested_symbolic(levels: int) -> bytes:
    """An event whose where is a locale with a parent, below which
    symbolic locations (as contents) and locales alternate, `levels` or
    `levels + 1` elements in all: a symbolic location is the first element
    past the cap."""
    shallow = serialize_location_event(_event(where=Where(Locale(parent=Locale()))))
    n = (levels - 1) // 2
    down = b"<contents><information /><region><distinguishedPoint /><bounds /></region><locale>"
    up = b"</locale><fixed>true</fixed></contents>"
    return shallow.replace(b"<parent />", b"<parent>" + down * n + up * n + b"</parent>")


def _from_depth(frames: int, call):
    """call(), made with `frames` more Python frames on the stack."""
    return call() if frames == 0 else _from_depth(frames - 1, call)


def _verdict(document: bytes):
    """What parse_location_event, validate_document and parse_where (on
    the document's where) make of `document`."""
    fragment = document[document.index(b"<where>"):document.index(b"</where>") + 8]
    verdicts = []
    for parse, text in ((parse_location_event, document), (parse_where, fragment)):
        try:
            parse(text)
            verdicts.append(None)
        except SchemaViolation as exc:
            verdicts.append((exc.path, exc.rule))
    violations = [(v.path, v.rule) for v in validate_document(document).violations]
    return verdicts, violations


class TestNestingCap:
    @pytest.mark.parametrize("levels", [_NESTING_CAP + 1, 300])
    def test_verdict_does_not_depend_on_the_callers_stack(self, levels):
        # the element past the cap is a locale in one shape and a symbolic location in the other
        for document in (_nested(levels), _nested_symbolic(levels)):
            top = _verdict(document)
            assert _from_depth(400, lambda: _verdict(document)) == top
            (parsed, fragment), violations = top
            assert parsed == fragment == ("/", "depth")
            assert violations == [("/", "depth")]  # parse iff validate

    def test_document_at_the_cap_is_read_from_a_deep_caller(self):
        document = _nested(_NESTING_CAP)

        def read_write_ingest():
            assert _verdict(document) == ([None, None], [])
            event = parse_location_event(document)
            assert parse_location_event(serialize_location_event(event)) == event
            store = EventStore()
            assert store.ingest(document) == 1
            return store.trail_for(event.id).nodes[0].where

        where = parse_location_event(document).observations[0].where
        assert _from_depth(500, read_write_ingest) == where

    @pytest.mark.parametrize("levels", [32, 33])
    def test_locale_nesting_warns_past_32(self, levels):
        document = _nested(levels)
        report = validate_document(document)
        assert report.ok
        locale_warnings = [w for w in report.warnings if "zone-less" not in w]
        path = "/locationEvent/observation[1]/where/locale" + "/parent" * 32
        assert locale_warnings == ([] if levels == 32 else [f"{path}: locale nesting deeper than 32"])
        parse_location_event(document)

    def test_extension_fragments_read_the_same_from_a_deep_caller(self):
        # foreign elements are not capped: 300 of them nest inside one locale
        shallow = serialize_location_event(_event(where=Where(Locale())))
        nested = f'<e xmlns="{_FOREIGN_NS}">'.encode() + b"<e>" * 299 + b"</e>" * 300
        document = shallow.replace(b"<locale />", b"<locale>" + nested + b"</locale>")
        assert _verdict(document) == ([None, None], [])  # parse iff validate
        assert _from_depth(400, lambda: _verdict(document)) == ([None, None], [])

        def round_trip():
            event = parse_location_event(document)
            return event, parse_location_event(serialize_location_event(event))

        event, again = _from_depth(400, round_trip)
        assert again == event
        (fragment,) = event.observations[0].where.payload.extensions
        assert fragment.count("<ns0:e") == 300


# -- generator-driven properties --------------------------------------------------


class TestGenerated:
    def test_round_trip_300(self):
        rng = random.Random(1789)
        for i in range(300):
            event = eventgen.gen_event(rng)
            data = serialize_location_event(event)
            report = validate_document(data)
            assert report.ok, (i, report.violations)
            assert parse_location_event(data) == event, i

    def test_parse_iff_validate_300(self):
        rng = random.Random(2026)
        for i in range(300):
            data = eventgen.gen_document(rng)
            if rng.random() < 0.7:
                data = eventgen.mutate_document(rng, data)
            report = validate_document(data)
            try:
                parse_location_event(data)
                breach = None
            except NotWellFormed as exc:
                breach = ("/", "well-formed", str(exc))
            except SchemaViolation as exc:
                breach = (exc.path, exc.rule, exc.detail)
            assert (breach is None) == report.ok, (i, report.violations)
            if breach is not None:  # one walk backs both: the first violation is the breach
                first = report.violations[0]
                assert breach == (first.path, first.rule, first.detail), i


# -- golden digests -------------------------------------------------------------
#
# Behaviour any rework of the codec must keep.  The first digest pins the
# canonical bytes the README promises; the second pins everything the
# reader reports on damaged input: every violation's path, rule and detail,
# every warning, and the first breach strict parsing raises.  Details quote
# datetime's and expat's own messages, so the second digest is for CPython
# 3.11, the version CI runs.

SERIALIZE_DIGEST = "b2568b8d1dedf4b9cce1765ccb96d23fd950888ebae9c66976cd178d20e7bce4"
VALIDATE_DIGEST = "6d34012149879f2dd9452313651f47f89c756afcf3524150795a89d2fe8a10a1"

_FOREIGN_NS = "http://example.org/foreign/"
_RENAMES = (
    "ID", "email", "processingStep", "dateTime", "observation", "timeOfObservation",
    "where", "symbolicLocation", "physicalLocation", "region", "locale", "parent",
    "contents", "bounds", "horizon", "latitude", "longitude", "information", "info",
    "link", "classification", "classificationType", "description", "address",
    "street", "town", "email", "fixed", "altitude", "speed", "course",
    "satellitesVisible", "PDOP", "VPE", "frobnicator",
)
_BAD_VALUES = (
    "", " ", "x", "nan", "-inf", "1e999", "1_0", "-0", "+7", "13", "6.5", "361",
    "-91", "maybe", "447941615809", "a@b", "12:00:60", "23:59:59.9999",
)
_BAD_DATETIMES = (
    "0000-01-01T00:00:00", "2003-13-01T00:00:00", "2003-00-10T00:00:00",
    "2003-02-31T00:00:00", "1900-02-29T00:00:00", "2004-02-29T23:59:59.9996",
    "2003-05-16T24:00:00", "2003-05-16T18:60:00", "2003-05-16T18:31:60",
    "2003-05-16T18:31:59+24:00", "2003-05-16T18:31:59-01:75", "2003-05-16T18:31:59z",
    " 2003-05-16T18:31:59Z ", "2003-05-16T18:31:59.", "9999-12-31T23:59:59-23:59",
)


def _damage(rng: random.Random, data: bytes) -> bytes:
    """One to three element-level breaks, sometimes followed by a cut."""
    root = ET.fromstring(data)
    for _ in range(rng.randint(1, 3)):
        parents = {child: parent for parent in root.iter() for child in parent}
        el = rng.choice(list(parents))
        parent = parents[el]
        local = el.tag.rsplit("}", 1)[-1]
        kind = rng.randrange(8)
        if kind == 0:
            el.tag = f"{{{NS}}}{rng.choice(_RENAMES)}"
        elif kind == 1:  # swap with a sibling
            kids = list(parent)
            i, j = kids.index(el), rng.randrange(len(kids))
            kids[i], kids[j] = kids[j], kids[i]
            parent[:] = kids
        elif kind == 2:
            parent.insert(list(parent).index(el), copy.deepcopy(el))
        elif kind == 3:
            el.tag = f"{{{_FOREIGN_NS}}}{local}"
        elif kind == 4:
            dated = local in ("dateTime", "timeOfObservation")
            el.text = rng.choice(_BAD_DATETIMES if dated else _BAD_VALUES)
        elif kind == 5:
            el.tail = rng.choice(("stray", " \n\t", "\u00a0", "\u2003"))
        elif kind == 6:
            parent.remove(el)
        else:
            el.set(rng.choice(("unit", "name", "bogus", f"{{{_FOREIGN_NS}}}ok")), "F")
    out = ET.tostring(root, encoding="unicode").encode("utf-8")
    if rng.random() < 0.1:
        out = out[: rng.randrange(1, len(out))]
    return out


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(len(record).to_bytes(4, "big"))
        h.update(record)
    return h.hexdigest()


def _serialized(corpus_documents):
    rng = random.Random(20031)
    for _ in range(2000):
        yield serialize_location_event(eventgen.gen_event(rng))
    for name in sorted(corpus_documents):
        yield serialize_location_event(parse_location_event(corpus_documents[name]))


def _reported(corpus_documents):
    rng = random.Random(7031)
    bases = [corpus_documents[name] for name in sorted(corpus_documents)]
    for i in range(1500):
        data = bases[i] if i < len(bases) else eventgen.gen_document(rng)
        data = eventgen.mutate_document(rng, data) if i % 5 == 4 else _damage(rng, data)
        report = validate_document(data)
        try:
            parse_location_event(data)
            strict = "ok"
        except NotWellFormed:
            strict = "well-formed"
        except SchemaViolation as exc:
            strict = (exc.path, exc.rule, exc.detail)
        seen = [(v.path, v.rule, v.detail) for v in report.violations]
        yield repr((seen, report.warnings, strict)).encode("utf-8")


class TestGolden:
    def test_canonical_bytes(self, corpus_documents):
        assert _digest(_serialized(corpus_documents)) == SERIALIZE_DIGEST

    def test_validation_reports(self, corpus_documents):
        assert _digest(_reported(corpus_documents)) == VALIDATE_DIGEST
