"""The direct string writer against the ElementTree writer it replaced,
and the identities canonical bytes stand for.

`et_writer` keeps the old writer, which built a tree and called
`ET.tostring`.  Canonical bytes must not change, so every model the
strategies below can build must serialize to exactly the oracle's bytes,
for whole events and for standalone `<where>` fragments, and a `Locale`
must hold each extension fragment exactly as the old reader captured it.
An event the wire can carry reads back equal after one trip, and every
spelling of one fragment makes one place.
"""

import copy
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import et_writer
from gloss.errors import SchemaViolation
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
# the characters of XML 1.0 but CR, which a parser reads back as LF
_wire_texts = st.text(
    st.one_of(
        st.sampled_from("&<>\"'\n\t "),
        st.characters(min_codepoint=0x20, blacklist_categories=("Cs",),
                      blacklist_characters="\ufffe\uffff"),
    ),
    max_size=8,
)
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
_emails = st.from_regex(r"[a-z&<>'\"]{1,3}@[a-z]{1,3}\.[a-z&<]{1,3}", fullmatch=True)
_tuples = lambda strategy: st.lists(strategy, max_size=2).map(tuple)  # noqa: E731

# extension fragments: tags and attribute names over the foreign
# namespaces, the well-known xsi and dc prefixes and the xml namespace;
# attribute names also in no namespace.  An element in no namespace is
# refused (TestNoNamespace).
_tags = st.sampled_from(
    [f"{{{ns}}}e{i}" for i, ns in enumerate(_FOREIGN)]
    + [f"{{{_XSI}}}typed", f"{{{_DC}}}title", f"{{{_XML}}}odd"]
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


def _spelled(root: ET.Element, prefixes: dict, default: bool, redeclare: bool,
             selfclose: bool, quote: str) -> str:
    """root written as XML text in one of many spellings that all mean the
    same: a tag takes its namespace's prefix from `prefixes` or, with
    `default`, the default namespace; a declaration goes on the first
    element that needs it or, with `redeclare`, on every one; an empty
    element is self-closing or not; attribute values take `quote`."""
    text_refs = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
    attr_refs = {"&": "&amp;", "<": "&lt;", "\n": "&#10;", "\t": "&#9;",
                 quote: "&#39;" if quote == "'" else "&quot;"}

    def attr(value):
        return quote + "".join(attr_refs.get(c, c) for c in value) + quote

    def text(value):
        return "".join(text_refs.get(c, c) for c in value or "")

    def name(qualified, scope, decls, as_attribute):
        if qualified[:1] != "{":
            return qualified
        uri, local = qualified[1:].split("}")
        if uri == _XML:
            return f"xml:{local}"
        if default and not as_attribute:
            if redeclare or scope.get("") != uri:
                decls[""] = uri
            return local
        prefix = prefixes[uri]
        if redeclare or scope.get(prefix) != uri:
            decls[prefix] = uri
        return f"{prefix}:{local}"

    def write(el, scope):
        decls = {}
        tag = name(el.tag, scope, decls, False)
        attrs = "".join(f" {name(k, scope, decls, True)}={attr(v)}" for k, v in el.items())
        declared = "".join(
            f" xmlns{':' + p if p else ''}={attr(uri)}" for p, uri in decls.items()
        )
        inner = {**scope, **decls}
        body = text(el.text) + "".join(write(kid, inner) + text(kid.tail) for kid in el)
        if not body and selfclose:
            return f"<{tag}{declared}{attrs}/>"
        return f"<{tag}{declared}{attrs}>{body}</{tag}>"

    return write(root, {})


@st.composite
def _spellings(draw, root):
    names = (q for el in root.iter() for q in (el.tag, *el.keys()) if q[:1] == "{")
    uris = sorted({q[1:].split("}")[0] for q in names} - {_XML})
    # prefixes that the canonical form, or another namespace, might also take
    base = draw(st.sampled_from(("ns", "p", "xsi")))
    numbers = draw(st.permutations(range(len(uris))))
    return _spelled(
        root,
        {uri: f"{base}{n}" for uri, n in zip(uris, numbers)},
        default=draw(st.booleans()),
        redeclare=draw(st.booleans()),
        selfclose=draw(st.booleans()),
        quote=draw(st.sampled_from("'\"")),
    )


# each fragment in one of its spellings
_fragments = _elements().flatmap(_spellings)


def _event_strategy(texts, ids, times_of_day, pdops):
    """Events whose texts, IDs, product times and PDOPs come from the
    given strategies; everything else is drawn the same for every caller."""
    optional_texts = st.none() | texts
    bounds = st.one_of(
        st.none(),
        st.builds(Horizon, texts),
        st.builds(
            CircularBounds,
            _physical,
            st.builds(Distance, _non_negative, st.sampled_from(DistanceUnit)),
        ),
        st.builds(RectangularBounds, _physical, _physical),
    )
    regions = st.builds(Region, _physical, bounds)
    classifications = st.builds(
        Classification, st.lists(texts, min_size=1, max_size=3).map(tuple)
    )
    addresses = st.builds(
        Address,
        name_number=optional_texts,
        street=optional_texts,
        town=optional_texts,
        county=optional_texts,
        post_code=optional_texts,
        web_address=optional_texts,
        email=st.none() | _emails,
    )
    subtypes = st.one_of(
        st.none(),
        st.builds(Landmark, texts),
        st.builds(District, texts),
        st.builds(ClassifiedLocation, _tuples(classifications), texts),
        st.builds(AddressLocation, _tuples(classifications), texts, addresses),
        st.builds(
            ProductLocation,
            _tuples(classifications),
            texts,
            addresses,
            times_of_day,
            times_of_day,
        ),
    )

    def locales(symbolic):
        return st.recursive(
            st.builds(Locale, extensions=_tuples(_fragments)),
            lambda inner: st.builds(
                Locale,
                st.none() | inner,
                _tuples(classifications),
                _tuples(symbolic),
                _tuples(inner),
                _tuples(_fragments),
            ),
            max_leaves=3,
        )

    information = st.builds(Information, _tuples(texts), _tuples(texts))
    symbolic_leaf = st.builds(
        SymbolicLocation, information, regions, subtypes, st.just(()), st.booleans()
    )
    symbolic = st.builds(
        SymbolicLocation,
        information,
        regions,
        subtypes,
        _tuples(locales(symbolic_leaf)),
        st.booleans(),
    )
    wheres = st.builds(
        Where,
        st.one_of(st.none(), _physical, regions, symbolic, locales(symbolic_leaf)),
        optional_texts,
        optional_texts,
    )
    observations = st.builds(
        Observation,
        time_of_observation=_times,
        where=wheres,
        altitude=st.none() | st.builds(Altitude, _doubles, st.sampled_from(AltitudeUnit)),
        speed=st.none() | st.builds(Speed, _non_negative, st.sampled_from(SpeedUnit)),
        course=st.none() | _bearings,
        magnetic_variation=st.none() | _bearings,
        satellites_visible=st.none() | st.integers(0, 12),
        pdop=st.none() | pdops,
        hdop=st.none() | _doubles,
        vdop=st.none() | _doubles,
        hpe=st.none() | _doubles,
        vpe=st.none() | _doubles,
    )
    return st.builds(
        LocationEvent,
        ids,
        _tuples(st.builds(ProcessingStep, _times, texts)),
        st.lists(observations, min_size=1, max_size=2).map(tuple),
    )


_events = _event_strategy(
    _texts,
    st.builds(Id, st.sampled_from(IdKind), _texts),
    st.builds(TimeOfDay, st.floats(min_value=0.0, max_value=86_399.999)),
    st.floats(),
)
# Events the wire can carry: texts of XML characters but CR, IDs that match
# their patterns and no NaN PDOP.
_carried_events = _event_strategy(
    _wire_texts,
    st.one_of(
        st.builds(Id, st.sampled_from([IdKind.BIT_STRING, IdKind.GUID]), _wire_texts),
        st.builds(Id, st.just(IdKind.PHONE), st.from_regex(r"\+[0-9 ]*", fullmatch=True)),
        st.builds(Id, st.just(IdKind.EMAIL), _emails),
    ),
    st.builds(TimeOfDay, st.floats(min_value=0.0, max_value=86_399.999)),
    st.floats(allow_nan=False),
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
                assert Locale(extensions=(ET.fromstring(fragment),)).extensions == (expected,)

    def test_prefixes_past_ten_sort_as_strings(self):
        data = serialize_where(_MANY)
        assert data == et_writer.serialize_where(_MANY)
        start = data.index(b"<where")
        declared = data[start : data.index(b">", start)].decode()
        assert declared.index('xmlns:ns10="') < declared.index('xmlns:ns2="')
        assert declared.index('xmlns:xsi="') < declared.index(' xmlns="')
        assert "xmlns:xml" not in declared


class TestRoundTrip:
    @given(_carried_events)
    @settings(max_examples=200, deadline=None)
    @example(_MANY_EVENT)
    def test_first_trip_gives_the_event(self, event):
        assert parse_location_event(serialize_location_event(event)) == event


class TestProcessState:
    def test_registered_namespace_changes_nothing(self, monkeypatch):
        """Canonical bytes and captured extensions do not depend on
        ElementTree's process-wide prefix table."""
        event = _MANY_EVENT
        data = serialize_location_event(event)
        parsed = parse_location_event(data)
        held = _MANY.payload.extensions
        monkeypatch.setattr(ET, "_namespace_map", dict(ET._namespace_map))
        ET.register_namespace("ext", _FOREIGN[0])
        ET.register_namespace("ext5", _FOREIGN[5])
        assert serialize_location_event(event) == data
        assert serialize_location_event(parsed) == data
        assert parse_location_event(data) == parsed
        assert Locale(extensions=(_many_namespaces(),)).extensions == held[:1]


def _place(fragment) -> Where:
    return Where(Locale(extensions=(fragment,)))


@st.composite
def _changed(draw, root):
    """A copy of root with one text or attribute value changed."""
    changed = copy.deepcopy(root)
    el = draw(st.sampled_from(list(changed.iter())))
    keys = list(el.keys())
    if keys and draw(st.booleans()):
        key = draw(st.sampled_from(keys))
        el.set(key, el.get(key) + "z")
    else:
        el.text = (el.text or "") + "z"
    return changed


class TestOneIdentity:
    def test_three_spellings_make_one_place(self):
        places = [_place('<e xmlns="urn:x"/>'), _place('<e xmlns="urn:x"></e>'),
                  _place('<p:e xmlns:p="urn:x"/>')]
        assert places[0] == places[1] == places[2]
        assert len({hash(w) for w in places}) == 1
        assert len({serialize_where(w) for w in places}) == 1

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_spellings_agree_and_changes_do_not(self, data):
        root = data.draw(_elements())
        first = _place(data.draw(_spellings(root)))
        second = _place(data.draw(_spellings(root)))
        assert first == second
        assert hash(first) == hash(second)
        assert serialize_where(first) == serialize_where(second)
        other = _place(data.draw(_spellings(data.draw(_changed(root)))))
        assert first != other
        assert hash(first) != hash(other)
        assert serialize_where(first) != serialize_where(other)


@st.composite
def _with_a_plain_element(draw):
    """A fragment with one element, the root or below it, in no namespace."""
    root = draw(_elements())
    draw(st.sampled_from(list(root.iter()))).tag = "plain"
    return root


class TestNoNamespace:
    """The canonical document declares the wire namespace as its default,
    so an element in no namespace would read back as a wire element."""

    @given(_with_a_plain_element(), st.booleans())
    @settings(max_examples=100, deadline=None)
    @example(ET.fromstring("<classification/>"), True)
    @example(ET.fromstring('<p:e xmlns:p="urn:x"><plain/></p:e>'), True)
    def test_refused_as_text_or_element(self, root, as_text):
        fragment = ET.tostring(root, encoding="unicode") if as_text else root
        with pytest.raises(SchemaViolation) as raised:
            Locale(extensions=(fragment,))
        assert raised.value.rule == "namespace"
