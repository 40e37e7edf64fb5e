"""The ElementTree writer that canonical bytes were first defined by.

`gloss.wire` now writes canonical strings directly; this copy of the old
writer stays here as the oracle its differential tests compare against,
byte for byte.  It builds a tree with one `ET.SubElement` per node and
calls `ET.tostring`, so its prefixes for foreign namespaces follow
ElementTree's process-wide table: compare with it only while that table
holds its defaults.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from gloss.model import (
    Address,
    AddressLocation,
    AltitudeUnit,
    CircularBounds,
    Classification,
    ClassifiedLocation,
    DistanceUnit,
    District,
    Horizon,
    Information,
    Landmark,
    Locale,
    PhysicalLocation,
    ProductLocation,
    RectangularBounds,
    Region,
    SpeedUnit,
    SymbolicLocation,
    Where,
)
from gloss.wire import NS, LocationEvent, Observation

# (local name, Address attribute) in schema order, kept apart from the
# reader's table so that a field dropped there shows here
_ADDRESS_FIELDS = (
    ("nameNumber", "name_number"),
    ("street", "street"),
    ("town", "town"),
    ("county", "county"),
    ("postCode", "post_code"),
    ("webAddress", "web_address"),
    ("email", "email"),
)


def read_extension(ext: ET.Element) -> str:
    """How a Locale holds a locale extension fragment."""
    ext.tail = None
    return ET.tostring(ext, encoding="unicode")


def _fmt_double(v: float) -> str:
    s = repr(float(v) + 0.0)  # -0.0 + 0.0 is 0.0: negative zero is written 0
    return s[:-2] if s.endswith(".0") else s


def _sub(parent: ET.Element, tag: str, text: Optional[str] = None) -> ET.Element:
    el = ET.SubElement(parent, tag)
    if text is not None:
        el.text = text
    return el


def _write_quantity(parent, tag, q, default_unit) -> ET.Element:
    el = _sub(parent, tag, _fmt_double(q.value))
    if q.unit is not default_unit:
        el.set("unit", q.unit.value)
    return el


def _write_physical(parent: ET.Element, tag: str, p: PhysicalLocation):
    el = _sub(parent, tag)
    if p.coordinate is not None:
        ll = _sub(_sub(el, "coordinate"), "latLongCoordinate")
        _sub(ll, "latitude", _fmt_double(p.coordinate.latitude))
        _sub(ll, "longitude", _fmt_double(p.coordinate.longitude))


def _write_region(parent: ET.Element, tag: str, r: Region):
    el = _sub(parent, tag)
    _write_physical(el, "distinguishedPoint", r.distinguished_point)
    bounds = _sub(el, "bounds")
    b = r.bounds
    if isinstance(b, Horizon):
        _sub(bounds, "horizon", b.description)
    elif isinstance(b, CircularBounds):
        cb = _sub(bounds, "circularBounds")
        _write_physical(cb, "centre", b.centre)
        _write_quantity(cb, "radius", b.radius, DistanceUnit.M)
    elif isinstance(b, RectangularBounds):
        rb = _sub(bounds, "rectangularBounds")
        _write_physical(rb, "topLeft", b.top_left)
        _write_physical(rb, "bottomRight", b.bottom_right)


def _write_information(parent: ET.Element, info: Information):
    el = _sub(parent, "information")
    for text in info.info:
        _sub(el, "info", text)
    for link in info.links:
        _sub(el, "link", link)


def _write_classification(parent: ET.Element, c: Classification):
    el = _sub(parent, "classification")
    for t in c.types:
        _sub(el, "classificationType", t)


def _write_address(parent: ET.Element, a: Address):
    el = _sub(parent, "address")
    for local, attr in _ADDRESS_FIELDS:
        value = getattr(a, attr)
        if value is not None:
            _sub(el, local, value)


def _write_classified(parent: ET.Element, c: ClassifiedLocation):
    el = _sub(parent, "classifiedLocation")
    if isinstance(c, AddressLocation):
        al = _sub(el, "addressLocation")
        if isinstance(c, ProductLocation):
            pl = _sub(al, "productLocation")
            _sub(pl, "openTime", c.open_time.lexical())
            _sub(pl, "closeTime", c.close_time.lexical())
        _write_address(al, c.address)
    for cl in c.classifications:
        _write_classification(el, cl)
    _sub(el, "description", c.description)


def _write_symbolic(parent: ET.Element, tag: str, s: SymbolicLocation):
    el = _sub(parent, tag)
    if isinstance(s.subtype, ClassifiedLocation):
        _write_classified(el, s.subtype)
    elif isinstance(s.subtype, Landmark):
        _sub(el, "landmark", s.subtype.name)
    elif isinstance(s.subtype, District):
        _sub(el, "district", s.subtype.name)
    _write_information(el, s.information)
    _write_region(el, "region", s.region)
    for loc in s.locales:
        _write_locale(el, "locale", loc)
    _sub(el, "fixed", "true" if s.fixed else "false")


def _write_locale(parent: ET.Element, tag: str, loc: Locale):
    el = _sub(parent, tag)
    if loc.parent is not None:
        _write_locale(el, "parent", loc.parent)
    for c in loc.classifications:
        _write_classification(el, c)
    for s in loc.contents:
        _write_symbolic(el, "contents", s)
    for n in loc.neighbours:
        _write_locale(el, "neighbours", n)
    for frag in loc.extensions:
        el.append(ET.fromstring(frag))


def _fill_where(el: ET.Element, w: Where):
    if w.name is not None:
        el.set("name", w.name)
    if w.gloss_urn is not None:
        el.set("glossURN", w.gloss_urn)
    p = w.payload
    if p is None:
        return
    if isinstance(p, SymbolicLocation):
        _write_symbolic(el, "symbolicLocation", p)
    elif isinstance(p, PhysicalLocation):
        _write_physical(el, "physicalLocation", p)
    elif isinstance(p, Region):
        _write_region(el, "region", p)
    elif isinstance(p, Locale):
        _write_locale(el, "locale", p)
    else:
        raise TypeError(f"not a Where payload: {type(p).__name__}")


def _write_observation(parent: ET.Element, o: Observation):
    el = _sub(parent, "observation")
    _sub(el, "timeOfObservation", o.time_of_observation.lexical())
    _fill_where(_sub(el, "where"), o.where)
    if o.altitude is not None:
        _write_quantity(el, "altitude", o.altitude, AltitudeUnit.METRES)
    if o.speed is not None:
        _write_quantity(el, "speed", o.speed, SpeedUnit.KNOTS)
    if o.course is not None:
        _sub(el, "course", _fmt_double(o.course))
    if o.magnetic_variation is not None:
        _sub(el, "magneticVariation", _fmt_double(o.magnetic_variation))
    if o.satellites_visible is not None:
        _sub(el, "satellitesVisible", str(o.satellites_visible))
    for tag, value in (
        ("PDOP", o.pdop),
        ("HDOP", o.hdop),
        ("VDOP", o.vdop),
        ("HPE", o.hpe),
        ("VPE", o.vpe),
    ):
        if value is not None:
            _sub(el, tag, _fmt_double(value))


_XML_DECL = '<?xml version="1.0" encoding="UTF-8"?>\n'


def _to_bytes(root: ET.Element) -> bytes:
    body = ET.tostring(root, encoding="unicode")
    return (_XML_DECL + body).encode("utf-8")


def serialize_location_event(e: LocationEvent) -> bytes:
    """Canonical UTF-8 document; default unit attributes omitted."""
    root = ET.Element("locationEvent", {"xmlns": NS})
    id_el = _sub(root, "ID")
    _sub(id_el, e.id.kind.value, e.id.value)
    ps = _sub(root, "processingSequence")
    for step in e.processing_sequence:
        step_el = _sub(ps, "processingStep")
        _sub(step_el, "dateTime", step.date_time.lexical())
        _sub(step_el, "description", step.description)
    for o in e.observations:
        _write_observation(root, o)
    return _to_bytes(root)


def serialize_where(w: Where) -> bytes:
    """Standalone `<where>` fragment in the wire namespace."""
    root = ET.Element("where", {"xmlns": NS})
    _fill_where(root, w)
    return _to_bytes(root)
