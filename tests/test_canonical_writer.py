"""The direct string writer against the ElementTree writer it replaced.

`et_writer` keeps the old writer, which built a tree and called
`ET.tostring`.  Canonical bytes must not change, so every model the
strategies below can build must serialize to exactly the oracle's bytes,
for whole events and for standalone `<where>` fragments, and locale
extension fragments must be captured on reading exactly as before.
"""

import xml.etree.ElementTree as ET

from hypothesis import example, given, settings
from hypothesis import strategies as st

import et_writer
from gloss.model import (
    Address,
    AddressLocation,
    Altitude,
    AltitudeUnit,
    CircularBounds,
    Classification,
    ClassifiedLocation,
    Distance,
    DistanceUnit,
    District,
    Horizon,
    Id,
    IdKind,
    Information,
    Landmark,
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
    LocationEvent,
    Observation,
    ProcessingStep,
    _read_extensions,
    parse_location_event,
    serialize_location_event,
    serialize_where,
)

_XSI = "http://www.w3.org/2001/XMLSchema-instance"
_XML = "http://www.w3.org/XML/1998/namespace"
_DC = "http://purl.org/dc/elements/1.1/"
# more than ten foreign namespaces, so that prefixes ns10 and up occur
_FOREIGN = [f"urn:example:ext{i}" for i in range(12)]

# every character either escape set touches, plus anything else printable
_texts = st.text(
    st.one_of(
        st.sampled_from("&<>\"'\r\n\t "),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=8,
)
_optional_texts = st.none() | _texts
_doubles = st.floats(allow_nan=False, allow_infinity=False)
_non_negative = st.floats(min_value=0.0, allow_infinity=False)
_bearings = st.floats(min_value=0.0, max_value=360.0)

_times = st.builds(
    Time, st.integers(Time.from_lexical("0001-01-01T00:00:00").epoch_millis,
                      Time.from_lexical("9999-12-31T23:59:59.999").epoch_millis)
)
_coordinates = st.builds(
    LatLongCoordinate,
    st.floats(min_value=-90.0, max_value=90.0),
    st.floats(min_value=-180.0, max_value=180.0),
)
_physical = st.builds(PhysicalLocation, st.none() | _coordinates)
_bounds = st.one_of(
    st.none(),
    st.builds(Horizon, _texts),
    st.builds(
        CircularBounds,
        _physical,
        st.builds(Distance, _non_negative, st.sampled_from(DistanceUnit)),
    ),
    st.builds(RectangularBounds, _physical, _physical),
)
_regions = st.builds(Region, _physical, _bounds)
_classifications = st.builds(
    Classification, st.lists(_texts, min_size=1, max_size=3).map(tuple)
)
_emails = st.from_regex(r"[a-z&<>'\"]{1,3}@[a-z]{1,3}\.[a-z&<]{1,3}", fullmatch=True)
_addresses = st.builds(
    Address,
    name_number=_optional_texts,
    street=_optional_texts,
    town=_optional_texts,
    county=_optional_texts,
    post_code=_optional_texts,
    web_address=_optional_texts,
    email=st.none() | _emails,
)
_times_of_day = st.builds(TimeOfDay, st.floats(min_value=0.0, max_value=86_399.999))
_tuples = lambda strategy: st.lists(strategy, max_size=2).map(tuple)  # noqa: E731
_subtypes = st.one_of(
    st.none(),
    st.builds(Landmark, _texts),
    st.builds(District, _texts),
    st.builds(ClassifiedLocation, _tuples(_classifications), _texts),
    st.builds(AddressLocation, _tuples(_classifications), _texts, _addresses),
    st.builds(
        ProductLocation,
        _tuples(_classifications),
        _texts,
        _addresses,
        _times_of_day,
        _times_of_day,
    ),
)

# extension fragments: tags and attribute names over the foreign
# namespaces, the well-known xsi and dc prefixes, the xml namespace and no
# namespace at all
_tags = st.sampled_from(
    [f"{{{ns}}}e{i}" for i, ns in enumerate(_FOREIGN)]
    + [f"{{{_XSI}}}typed", f"{{{_DC}}}title", f"{{{_XML}}}odd", "plain"]
)
_keys = st.sampled_from(
    [f"{{{ns}}}a" for ns in _FOREIGN[:4]]
    + [f"{{{_XSI}}}type", f"{{{_XML}}}lang", f"{{{_DC}}}creator", "k", "other"]
)
_xml_texts = st.text(
    st.one_of(st.sampled_from("&<>\"'\n\t "), st.characters(codec="ascii", min_codepoint=32)),
    max_size=6,
)


@st.composite
def _elements(draw, depth=1):
    el = ET.Element(draw(_tags), draw(st.dictionaries(_keys, _xml_texts, max_size=3)))
    el.text = draw(st.none() | _xml_texts)
    if depth:
        for kid in draw(st.lists(_elements(depth - 1), max_size=2)):
            kid.tail = draw(st.none() | _xml_texts)
            el.append(kid)
    return el


def _many_namespaces() -> str:
    """A fragment using every foreign namespace, one per child."""
    root = ET.Element(f"{{{_FOREIGN[0]}}}root", {f"{{{_XSI}}}type": "t", "k": "v"})
    for i, ns in enumerate(_FOREIGN[1:], 1):
        ET.SubElement(root, f"{{{ns}}}e{i}", {f"{{{_XML}}}lang": "en"}).text = str(i)
    return ET.tostring(root, encoding="unicode")


_fragments = _elements().map(lambda el: ET.tostring(el, encoding="unicode"))


def _locales(symbolic):
    return st.recursive(
        st.builds(Locale, extensions=_tuples(_fragments)),
        lambda inner: st.builds(
            Locale,
            st.none() | inner,
            _tuples(_classifications),
            _tuples(symbolic),
            _tuples(inner),
            _tuples(_fragments),
        ),
        max_leaves=3,
    )


_symbolic_leaf = st.builds(
    SymbolicLocation,
    st.builds(Information, _tuples(_texts), _tuples(_texts)),
    _regions,
    _subtypes,
    st.just(()),
    st.booleans(),
)
_symbolic = st.builds(
    SymbolicLocation,
    st.builds(Information, _tuples(_texts), _tuples(_texts)),
    _regions,
    _subtypes,
    _tuples(_locales(_symbolic_leaf)),
    st.booleans(),
)
_wheres = st.builds(
    Where,
    st.one_of(st.none(), _physical, _regions, _symbolic, _locales(_symbolic_leaf)),
    _optional_texts,
    _optional_texts,
)
_observations = st.builds(
    Observation,
    time_of_observation=_times,
    where=_wheres,
    altitude=st.none() | st.builds(Altitude, _doubles, st.sampled_from(AltitudeUnit)),
    speed=st.none() | st.builds(Speed, _non_negative, st.sampled_from(SpeedUnit)),
    course=st.none() | _bearings,
    magnetic_variation=st.none() | _bearings,
    satellites_visible=st.none() | st.integers(0, 12),
    pdop=st.none() | st.floats(),
    hdop=st.none() | _doubles,
    vdop=st.none() | _doubles,
    hpe=st.none() | _doubles,
    vpe=st.none() | _doubles,
)
_events = st.builds(
    LocationEvent,
    st.builds(Id, st.sampled_from(IdKind), _texts),
    _tuples(st.builds(ProcessingStep, _times, _texts)),
    st.lists(_observations, min_size=1, max_size=2).map(tuple),
)

_MANY = Where(Locale(extensions=(_many_namespaces(), _many_namespaces())), "n&\"\t", "u<\r\n")
_MANY_EVENT = LocationEvent(Id(IdKind.BIT_STRING, "x"), (), (Observation(Time(0), _MANY),))


def _extensions(where: Where):
    """Every extension fragment inside a where."""
    stack = [where.payload]
    while stack:
        p = stack.pop()
        if isinstance(p, SymbolicLocation):
            stack.extend(p.locales)
        elif isinstance(p, Locale):
            yield from p.extensions
            stack.extend((p.parent, *p.contents, *p.neighbours))


class TestAgainstElementTree:
    @given(_events)
    @settings(max_examples=300, deadline=None)
    @example(_MANY_EVENT)
    def test_same_bytes_and_captures(self, event):
        assert serialize_location_event(event) == et_writer.serialize_location_event(event)
        for o in event.observations:
            assert serialize_where(o.where) == et_writer.serialize_where(o.where)
            for fragment in _extensions(o.where):
                expected = et_writer.read_extension(ET.fromstring(fragment))
                assert _read_extensions(None, [ET.fromstring(fragment)], "/") == (expected,)

    def test_prefixes_past_ten_sort_as_strings(self):
        data = serialize_where(_MANY)
        assert data == et_writer.serialize_where(_MANY)
        start = data.index(b"<where")
        declared = data[start : data.index(b">", start)].decode()
        assert declared.index('xmlns:ns10="') < declared.index('xmlns:ns2="')
        assert declared.index('xmlns:xsi="') < declared.index(' xmlns="')
        assert "xmlns:xml" not in declared


class TestProcessState:
    def test_registered_namespace_changes_nothing(self, monkeypatch):
        """Canonical bytes and captured extensions do not depend on
        ElementTree's process-wide prefix table."""
        event = _MANY_EVENT
        data = serialize_location_event(event)
        parsed = parse_location_event(data)
        monkeypatch.setattr(ET, "_namespace_map", dict(ET._namespace_map))
        ET.register_namespace("ext", _FOREIGN[0])
        ET.register_namespace("ext5", _FOREIGN[5])
        assert serialize_location_event(event) == data
        assert serialize_location_event(parsed) == data
        assert parse_location_event(data) == parsed
