"""Location-event wire format: reader, writer and validator.

All documents live in one namespace and follow a fixed element grammar,
written here as small per-element tables that one walker reads (rather
than a generic schema engine).  The same reading code backs both surfaces:
parsing raises on the first broken rule, validation records every broken
rule and keeps going, so a document validates clean exactly when it parses.

Canonical output is UTF-8 with unit attributes omitted when they carry the
default (altitude M, distance m, speed knots); round-trip equality is
therefore defined on the model, not on the bytes.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Optional

from .errors import NotWellFormed, SchemaViolation
from .model import (
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
    Landmark,
    LatLongCoordinate,
    Locale,
    PhysicalLocation,
    ProductLocation,
    RectangularBounds,
    Region,
    ScalarKind,
    Speed,
    SpeedUnit,
    SymbolicLocation,
    Where,
    Information,
    make_constrained,
    _EMAIL_RE,
    _PHONE_RE,
)
from .temporal import Time, TimeOfDay, lex_datetime

__all__ = [
    "NS",
    "ProcessingStep",
    "Observation",
    "LocationEvent",
    "Violation",
    "ValidationReport",
    "parse_location_event",
    "serialize_location_event",
    "parse_where",
    "serialize_where",
    "validate_document",
]

NS = "http://www-systems.dcs.st-and.ac.uk/gloss/xml/2003-07/"

_INTEGER_RE = re.compile(r"[+-]?[0-9]+$")

# Warn (don't reject) when a locale parent chain is suspiciously deep; the
# wire format cannot express a true cycle, but a runaway chain in a foreign
# document is worth flagging.
_LOCALE_DEPTH_BOUND = 32


# ---------------------------------------------------------------------------
# Wire-level model


@dataclass(frozen=True)
class ProcessingStep:
    """One hop in an event's life: when it was handled and by what."""

    date_time: Time
    description: str


@dataclass(frozen=True)
class Observation:
    """A single sighting: a time, a place, and optional GPS extras."""

    time_of_observation: Time
    where: Where
    altitude: Optional[Altitude] = None
    speed: Optional[Speed] = None
    course: Optional[float] = None
    magnetic_variation: Optional[float] = None
    satellites_visible: Optional[int] = None
    pdop: Optional[float] = None
    hdop: Optional[float] = None
    vdop: Optional[float] = None
    hpe: Optional[float] = None
    vpe: Optional[float] = None

    def __post_init__(self):
        if self.course is not None:
            make_constrained(ScalarKind.BEARING, self.course)
        if self.magnetic_variation is not None:
            make_constrained(ScalarKind.BEARING, self.magnetic_variation)
        if self.satellites_visible is not None:
            object.__setattr__(
                self,
                "satellites_visible",
                make_constrained(ScalarKind.SAT_COUNT, self.satellites_visible),
            )


@dataclass(frozen=True)
class LocationEvent:
    id: Id
    processing_sequence: tuple[ProcessingStep, ...] = ()
    observations: tuple[Observation, ...] = ()

    def __post_init__(self):
        if not self.observations:
            raise ValueError("a location event carries at least one observation")


@dataclass(frozen=True)
class Violation:
    path: str
    rule: str
    detail: str = ""


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Reading engine
#
# A complex element is read by walking its children against its grammar, a
# tuple of particles (local name, occurs, reader) in schema order.  occurs
# is "1" (required), "?" (optional), "+" or "*" (a run, indexed in paths),
# "|" (an optional choice; the reader maps local names to readers) or "..."
# (the reader gets every child left).  Each child is read as the walk
# reaches it, so breaches come in document order.  A path is the root's
# string, or a (parent path, local name, index) tuple, index 0 meaning not
# indexed; it is spelled out only when a breach or a warning is reported.

_BAD = object()  # subtree failed; distinct from None, which is a legal value
_QUALIFIER = f"{{{NS}}}"


def _spell(path) -> str:
    names = []
    while type(path) is tuple:
        path, local, n = path
        names.append(f"{local}[{n}]" if n else local)
    names.append(path)
    return "/".join(reversed(names))


class _Ctx:
    __slots__ = ("strict", "violations", "warnings", "depth")

    def __init__(self, strict: bool):
        self.strict = strict
        self.violations: list[Violation] = []
        self.warnings: list[str] = []
        self.depth = 0  # symbolic locations and locales enclosing the walk

    def fail(self, path, rule: str, detail: str = ""):
        if self.strict:
            raise SchemaViolation(_spell(path), rule, detail)
        self.violations.append(Violation(_spell(path), rule, detail))

    def warn(self, path, message: str):
        if not self.strict:  # nothing reads a strict parse's warnings
            self.warnings.append(f"{_spell(path)}: {message}")


# every element name the grammar reads, and its qualified tag
_QNAME = {
    local: _QUALIFIER + local
    for local in (
        "locationEvent ID bitString GUID phone email processingSequence processingStep "
        "dateTime description observation timeOfObservation where symbolicLocation "
        "physicalLocation region locale coordinate latLongCoordinate latitude longitude "
        "distinguishedPoint bounds horizon circularBounds centre radius rectangularBounds "
        "topLeft bottomRight information info link classifiedLocation landmark district "
        "addressLocation productLocation openTime closeTime address nameNumber street town "
        "county postCode webAddress classification classificationType fixed parent contents "
        "neighbours altitude speed course magneticVariation satellitesVisible PDOP HDOP VDOP "
        "HPE VPE"
    ).split()
}
_LOCAL = {qname: local for local, qname in _QNAME.items()}


def _local(tag: str) -> str:
    local = _LOCAL.get(tag)
    if local is None:
        local = tag.rsplit("}", 1)[1] if tag.startswith("{") else tag
    return local


def _check_attrs(ctx: _Ctx, el: ET.Element, path, allowed: tuple[str, ...] = ()):
    """Foreign-namespaced attributes (xsi:schemaLocation and friends) pass;
    unknown plain attributes are violations."""
    bad = False
    for k in el.keys():
        if k.startswith("{") or k in allowed:
            continue
        ctx.fail(path, "attribute", f"unexpected attribute {k!r}")
        bad = True
    return not bad


def _children(ctx: _Ctx, el: ET.Element, path, check_attrs: bool = True) -> list:
    """The child elements of a complex element, once its attributes (unless
    the caller checks them) and its lack of character content are checked."""
    if check_attrs and el.keys():
        _check_attrs(ctx, el, path)
    kids = el[:]  # ET.fromstring keeps no comments or processing instructions
    # `s and not s.isspace()` is `s.strip()`: both use str's whitespace set
    text = el.text
    if text and not text.isspace():
        ctx.fail(path, "text", "unexpected character content")
    else:
        for kid in kids:
            tail = kid.tail
            if tail and not tail.isspace():
                ctx.fail(path, "text", "unexpected character content")
                break
    return kids


def _named(ctx: _Ctx, kid: ET.Element, path, local: str):
    """The path of a child read as `local`, reported if outside the namespace."""
    child = (path, local, 0)
    if kid.tag != _QNAME[local]:
        ctx.fail(child, "namespace", f"element {local!r} not in {NS}")
    return child


# in this order: _walk tests `occurs < _SOME` and `occurs < _CHOICE`
_ONE, _OPT, _SOME, _ANY, _CHOICE, _REST = range(6)
_OCCURS = {"1": _ONE, "?": _OPT, "+": _SOME, "*": _ANY, "|": _CHOICE, "...": _REST}


def _walk(ctx: _Ctx, el: ET.Element, path, grammar, check_attrs=True, exact=False):
    """One value per particle of `grammar`, reading el's children in order:
    a reader's result (or _BAD), None for an absent optional, a list for a
    run (or _BAD if any member failed).  A child with a particle's local name
    in another namespace is read and reported, or with exact=True left for
    later particles.  The first child no particle claims is unexpected."""
    kids = _children(ctx, el, path, check_attrs)
    count = len(kids)
    i = 0
    values = []
    for occurs, local, qname, reader in grammar:
        if occurs < _SOME:  # "1" or "?"
            if i < count:
                kid = kids[i]
                tag = kid.tag
                if tag == qname:
                    i += 1
                    values.append(reader(ctx, kid, (path, local, 0)))
                    continue
                if not (exact or tag in _LOCAL or _local(tag) != local):
                    i += 1
                    values.append(reader(ctx, kid, _named(ctx, kid, path, local)))
                    continue
            if occurs == _OPT:
                values.append(None)
                continue
            ctx.fail((path, local, 0), "minOccurs", f"missing {local}")
            values.append(_BAD)
        elif occurs < _CHOICE:  # "+" or "*"
            run = []
            taken = 0
            while i < count:
                kid = kids[i]
                tag = kid.tag
                if tag != qname and (exact or tag in _LOCAL or _local(tag) != local):
                    break
                i += 1
                taken += 1
                child = (path, local, taken)
                if tag != qname:
                    ctx.fail(child, "namespace", f"element {local!r} not in {NS}")
                item = reader(ctx, kid, child)
                if item is _BAD:
                    run = _BAD
                elif run is not _BAD:
                    run.append(item)
            if not taken and occurs == _SOME:
                ctx.fail((path, local, 0), "minOccurs", f"at least one {local} required")
                run = _BAD
            values.append(run)
        elif occurs == _CHOICE:
            value = None
            if i < count:
                chosen = _local(kids[i].tag)
                if chosen in reader:
                    kid = kids[i]
                    i += 1
                    value = reader[chosen](ctx, kid, _named(ctx, kid, path, chosen))
            values.append(value)
        else:
            values.append(reader(ctx, kids[i:], path))
            return values
    if i < count:
        ctx.fail((path, _local(kids[i].tag), 0), "unexpected", "element not allowed here")
    return values


def _grammar(*particles):
    return tuple(
        (_OCCURS[occurs], local, _QNAME.get(local), reader)
        for local, occurs, reader in particles
    )


# --- leaf readers ---


def _read_text(ctx: _Ctx, el: ET.Element, path) -> str:
    return el.text or ""


def _double(lo=None, hi=None, what=""):
    """A reader of doubles; given `lo` and `hi`, of doubles in that closed
    interval, `what` naming them in breaches."""

    def read(ctx: _Ctx, el: ET.Element, path):
        text = (el.text or "").strip()
        if text and "_" not in text:
            try:
                v = float(text)
            except ValueError:
                pass
            else:
                if lo is None or lo <= v <= hi:
                    return v
                if v != v:  # NaN has no place in a closed interval
                    ctx.fail(path, "double", f"{what} is NaN")
                elif v < lo:
                    ctx.fail(path, "minInclusive", f"{what} {v!r} violates minInclusive={lo}")
                else:
                    ctx.fail(path, "maxInclusive", f"{what} {v!r} violates maxInclusive={hi}")
                return _BAD
        ctx.fail(path, "double", f"not a double: {text!r}")
        return _BAD

    return read


_read_double = _double()


def _read_sat_count(ctx: _Ctx, el: ET.Element, path):
    text = (el.text or "").strip()
    if _INTEGER_RE.match(text) is None:
        ctx.fail(path, "integer", f"not an integer: {text!r}")
        return _BAD
    v = int(text)
    if v < 0:
        ctx.fail(path, "minInclusive", f"satellitesVisible {v} violates minInclusive=0")
        return _BAD
    if v > 12:
        ctx.fail(path, "maxInclusive", f"satellitesVisible {v} violates maxInclusive=12")
        return _BAD
    return v


def _read_datetime(ctx: _Ctx, el: ET.Element, path):
    text = (el.text or "").strip()
    try:
        millis, zoned = lex_datetime(text)
    except ValueError as e:
        ctx.fail(path, "dateTime", str(e))
        return _BAD
    if not zoned:
        ctx.warn(path, "zone-less timestamp read as UTC")
    return Time(millis)


def _read_time_of_day(ctx: _Ctx, el: ET.Element, path):
    text = (el.text or "").strip()
    try:
        return TimeOfDay.from_lexical(text)
    except ValueError as e:
        ctx.fail(path, "time", str(e))
        return _BAD


def _read_boolean(ctx: _Ctx, el: ET.Element, path):
    text = (el.text or "").strip()
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    ctx.fail(path, "boolean", f"not a boolean: {text!r}")
    return _BAD


def _read_email(ctx: _Ctx, el: ET.Element, path):
    value = el.text or ""
    if _EMAIL_RE.fullmatch(value) is None:
        ctx.fail(path, "pattern", f"email {value!r} lacks '@' or a domain dot")
        return _BAD
    return value


def _read_quantity(ctx, el, path, cls, unit_enum, default_unit, non_negative, what):
    ok = _check_attrs(ctx, el, path, allowed=("unit",))
    v = _read_double(ctx, el, path)
    raw_unit = el.get("unit")
    unit = default_unit
    if raw_unit is not None:
        try:
            unit = unit_enum(raw_unit)
        except ValueError:
            ctx.fail(
                path,
                "enumeration",
                f"unit {raw_unit!r} not in {[u.value for u in unit_enum]}",
            )
            ok = False
    if v is _BAD or not ok:
        return _BAD
    if non_negative and not v >= 0:
        ctx.fail(path, "minInclusive", f"{what} {v!r} violates minInclusive=0")
        return _BAD
    return cls(v, unit)


def _read_distance(ctx: _Ctx, el: ET.Element, path):
    return _read_quantity(
        ctx, el, path, Distance, DistanceUnit, DistanceUnit.M, True, "distance"
    )


def _optional_fields(fields, what: str, required=()):
    """A "..." reader: the children left as optional fields, each at most
    once and in the order of `fields`, a table of (local name, keyword,
    reader).  `required` names elements read before them, which a second
    copy breaches as maxOccurs.  Reads the keyword arguments, or _BAD."""
    index = {}
    for i, (local, _, _) in enumerate(fields):
        index[local] = index[_QNAME[local]] = i

    def read(ctx: _Ctx, kids: list, path):
        values = {}
        last = -1
        seen: set[int] = set()
        bad = False
        for kid in kids:
            idx = index.get(kid.tag)
            if idx is None:
                local = _local(kid.tag)
                idx = index.get(local)
                if idx is None:
                    if local in required:
                        ctx.fail((path, local, 0), "maxOccurs", f"{local} appears more than once")
                    else:
                        ctx.fail((path, local, 0), "unexpected", f"not an {what} field")
                    bad = True
                    continue
            local, keyword, reader = fields[idx]
            child = (path, local, 0)
            if kid.tag != _QNAME[local]:
                ctx.fail(child, "namespace", f"element {local!r} not in {NS}")
            if idx in seen:
                ctx.fail(child, "maxOccurs", f"{local} appears more than once")
                bad = True
                continue
            if idx < last:
                ctx.fail(child, "sequence", f"{local} out of schema order")
                bad = True
                continue
            seen.add(idx)
            last = idx
            value = reader(ctx, kid, child)
            if value is _BAD:
                bad = True
            else:
                values[keyword] = value
        return _BAD if bad else values

    return read


# --- structure readers, innermost first ---


_ID_KINDS = {kind.value: kind for kind in IdKind}


def _read_id(ctx: _Ctx, el: ET.Element, path):
    kids = _children(ctx, el, path)
    if not kids:
        ctx.fail(path, "choice", "ID needs one of bitString|GUID|phone|email")
        return _BAD
    local = _local(kids[0].tag)
    if local not in _ID_KINDS:
        ctx.fail((path, local, 0), "choice", "not an ID form")
        return _BAD
    child = _named(ctx, kids[0], path, local)
    if len(kids) > 1:
        ctx.fail((path, _local(kids[1].tag), 0), "choice", "ID carries multiple forms")
        return _BAD
    value = kids[0].text or ""
    if local == "phone" and _PHONE_RE.fullmatch(value) is None:
        ctx.fail(child, "pattern", f"phone {value!r} must be '+' then digits/spaces")
        return _BAD
    if local == "email" and _read_email(ctx, kids[0], child) is _BAD:
        return _BAD
    return Id(_ID_KINDS[local], value)


_LATLONG = _grammar(
    ("latitude", "1", _double(-90.0, 90.0, "latitude")),
    ("longitude", "1", _double(-180.0, 180.0, "longitude")),
)


def _read_latlong(ctx: _Ctx, el: ET.Element, path):
    lat, lon = _walk(ctx, el, path, _LATLONG)
    if lat is _BAD or lon is _BAD:
        return _BAD
    return LatLongCoordinate(lat, lon)


_COORDINATE = _grammar(("latLongCoordinate", "?", _read_latlong))


def _read_coordinate(ctx: _Ctx, el: ET.Element, path):
    return _walk(ctx, el, path, _COORDINATE, check_attrs=False)[0]


_PHYSICAL = _grammar(("coordinate", "?", _read_coordinate))


def _read_physical(ctx: _Ctx, el: ET.Element, path):
    (coord,) = _walk(ctx, el, path, _PHYSICAL)
    return _BAD if coord is _BAD else PhysicalLocation(coord)


_CIRCULAR = _grammar(("centre", "1", _read_physical), ("radius", "1", _read_distance))
_RECTANGULAR = _grammar(("topLeft", "1", _read_physical), ("bottomRight", "1", _read_physical))


def _read_circular(ctx: _Ctx, el: ET.Element, path):
    centre, radius = _walk(ctx, el, path, _CIRCULAR, check_attrs=False)
    if centre is _BAD or radius is _BAD:
        return _BAD
    return CircularBounds(centre, radius)


def _read_rectangular(ctx: _Ctx, el: ET.Element, path):
    top_left, bottom_right = _walk(ctx, el, path, _RECTANGULAR, check_attrs=False)
    if top_left is _BAD or bottom_right is _BAD:
        return _BAD
    return RectangularBounds(top_left, bottom_right)


_BOUNDS_FORMS = {
    "horizon": lambda ctx, el, path: Horizon(el.text or ""),
    "circularBounds": _read_circular,
    "rectangularBounds": _read_rectangular,
}


def _read_bounds(ctx: _Ctx, el: ET.Element, path):
    """The bounds choice may be empty; None is a legal result."""
    kids = _children(ctx, el, path)
    if not kids:
        return None
    local = _local(kids[0].tag)
    reader = _BOUNDS_FORMS.get(local)
    if reader is None:
        ctx.fail((path, local, 0), "choice", "not a bounds form")
        result = _BAD
    else:
        result = reader(ctx, kids[0], _named(ctx, kids[0], path, local))
    if len(kids) > 1:
        ctx.fail((path, _local(kids[1].tag), 0), "choice", "multiple bounds forms")
        return _BAD
    return result


_REGION = _grammar(("distinguishedPoint", "1", _read_physical), ("bounds", "1", _read_bounds))


def _read_region(ctx: _Ctx, el: ET.Element, path):
    point, bounds = _walk(ctx, el, path, _REGION)
    if point is _BAD or bounds is _BAD:
        return _BAD
    return Region(point, bounds)


_INFORMATION = _grammar(("info", "*", _read_text), ("link", "*", _read_text))


def _read_information(ctx: _Ctx, el: ET.Element, path):
    info, links = _walk(ctx, el, path, _INFORMATION)
    return Information(tuple(info), tuple(links))


_CLASSIFICATION = _grammar(("classificationType", "*", _read_text))


def _read_classification(ctx: _Ctx, el: ET.Element, path):
    (types,) = _walk(ctx, el, path, _CLASSIFICATION)
    if not types:
        ctx.fail((path, "classificationType", 0), "minOccurs", "at least one type required")
        return _BAD
    return Classification(tuple(types))


# (local name, keyword on Address, reader), in schema order
_ADDRESS_FIELDS = (
    ("nameNumber", "name_number", _read_text),
    ("street", "street", _read_text),
    ("town", "town", _read_text),
    ("county", "county", _read_text),
    ("postCode", "post_code", _read_text),
    ("webAddress", "web_address", _read_text),
    ("email", "email", _read_email),
)
_ADDRESS = _grammar((None, "...", _optional_fields(_ADDRESS_FIELDS, "address")))


def _read_address(ctx: _Ctx, el: ET.Element, path):
    (fields,) = _walk(ctx, el, path, _ADDRESS)
    return _BAD if fields is _BAD else Address(**fields)


_PRODUCT = _grammar(("openTime", "1", _read_time_of_day), ("closeTime", "1", _read_time_of_day))


def _read_product(ctx: _Ctx, el: ET.Element, path):
    open_time, close_time = _walk(ctx, el, path, _PRODUCT, check_attrs=False)
    if open_time is _BAD or close_time is _BAD:
        return _BAD
    return open_time, close_time


_ADDRESS_LOCATION = _grammar(
    ("productLocation", "?", _read_product), ("address", "1", _read_address)
)


def _read_address_location(ctx: _Ctx, el: ET.Element, path):
    return _walk(ctx, el, path, _ADDRESS_LOCATION, check_attrs=False)  # [product, address]


_CLASSIFIED = _grammar(
    ("addressLocation", "?", _read_address_location),
    ("classification", "*", _read_classification),
    ("description", "1", _read_text),
)


def _read_classified(ctx: _Ctx, el: ET.Element, path):
    located, classifications, description = _walk(ctx, el, path, _CLASSIFIED)
    product = address = None
    if located is not None:
        product, address = located
    if product is _BAD or address is _BAD or classifications is _BAD or description is _BAD:
        return _BAD
    classifications = tuple(classifications)
    if located is None:
        return ClassifiedLocation(classifications, description)
    if product is None:
        return AddressLocation(classifications, description, address)
    return ProductLocation(classifications, description, address, *product)


def _read_symbolic(ctx: _Ctx, el: ET.Element, path):
    depth = ctx.depth
    ctx.depth = depth + 1
    subtype, information, region, locales, fixed = _walk(ctx, el, path, _SYMBOLIC)
    ctx.depth = depth
    if (
        subtype is _BAD or information is _BAD or region is _BAD
        or locales is _BAD or fixed is _BAD
    ):
        return _BAD
    return SymbolicLocation(information, region, subtype, tuple(locales), fixed)


def _read_locale(ctx: _Ctx, el: ET.Element, path):
    depth = ctx.depth
    if depth == _LOCALE_DEPTH_BOUND:
        ctx.warn(path, f"locale nesting deeper than {_LOCALE_DEPTH_BOUND}")
    ctx.depth = depth + 1
    # exact matching: a same-name element outside the namespace falls
    # through to the extensions instead of being a violation
    parent, classifications, contents, neighbours, extensions = _walk(
        ctx, el, path, _LOCALE, exact=True
    )
    ctx.depth = depth
    if parent is _BAD or classifications is _BAD or contents is _BAD or neighbours is _BAD:
        return _BAD
    return Locale(
        parent, tuple(classifications), tuple(contents), tuple(neighbours), extensions
    )


def _read_extensions(ctx: _Ctx, kids: list, path) -> tuple[str, ...]:
    extensions = []
    for ext in kids:
        ext.tail = None  # the fragment string must not drag document whitespace
        extensions.append(ET.tostring(ext, encoding="unicode"))
    return tuple(extensions)


_SYMBOLIC = _grammar(
    (None, "|", {
        "classifiedLocation": _read_classified,
        "landmark": lambda ctx, el, path: Landmark(el.text or ""),
        "district": lambda ctx, el, path: District(el.text or ""),
    }),
    ("information", "1", _read_information),
    ("region", "1", _read_region),
    ("locale", "*", _read_locale),
    ("fixed", "1", _read_boolean),
)
_LOCALE = _grammar(
    ("parent", "?", _read_locale),
    ("classification", "*", _read_classification),
    ("contents", "*", _read_symbolic),
    ("neighbours", "*", _read_locale),
    (None, "...", _read_extensions),
)
_PAYLOAD_READERS = {
    "symbolicLocation": _read_symbolic,
    "physicalLocation": _read_physical,
    "region": _read_region,
    "locale": _read_locale,
}


def _read_where(ctx: _Ctx, el: ET.Element, path):
    ok = _check_attrs(ctx, el, path, allowed=("name", "glossURN"))
    name = el.get("name")
    urn = el.get("glossURN")
    kids = _children(ctx, el, path, check_attrs=False)
    payload = None
    bad = not ok
    if kids:
        local = _local(kids[0].tag)
        reader = _PAYLOAD_READERS.get(local)
        if reader is None:
            ctx.fail((path, local, 0), "choice", "not a Where payload")
            bad = True
        else:
            payload = reader(ctx, kids[0], _named(ctx, kids[0], path, local))
        if payload is _BAD:
            payload, bad = None, True
        if len(kids) > 1:
            ctx.fail((path, _local(kids[1].tag), 0), "choice", "multiple Where payloads")
            bad = True
    return _BAD if bad else Where(payload, name, urn)


# (local name, keyword on Observation, reader), in schema order
_OBS_OPTIONAL = (
    ("altitude", "altitude", lambda ctx, el, p: _read_quantity(
        ctx, el, p, Altitude, AltitudeUnit, AltitudeUnit.METRES, False, "altitude")),
    ("speed", "speed", lambda ctx, el, p: _read_quantity(
        ctx, el, p, Speed, SpeedUnit, SpeedUnit.KNOTS, True, "speed")),
    ("course", "course", _double(0.0, 360.0, "course")),
    ("magneticVariation", "magnetic_variation", _double(0.0, 360.0, "magneticVariation")),
    ("satellitesVisible", "satellites_visible", _read_sat_count),
    ("PDOP", "pdop", _read_double),
    ("HDOP", "hdop", _read_double),
    ("VDOP", "vdop", _read_double),
    ("HPE", "hpe", _read_double),
    ("VPE", "vpe", _read_double),
)
_OBSERVATION = _grammar(
    ("timeOfObservation", "1", _read_datetime),
    ("where", "1", _read_where),
    (None, "...", _optional_fields(_OBS_OPTIONAL, "observation", ("timeOfObservation", "where"))),
)


def _read_observation(ctx: _Ctx, el: ET.Element, path):
    t, where, fields = _walk(ctx, el, path, _OBSERVATION)
    if fields is _BAD or t is _BAD or where is _BAD:
        return _BAD
    return Observation(time_of_observation=t, where=where, **fields)


_STEP = _grammar(("dateTime", "1", _read_datetime), ("description", "1", _read_text))


def _read_step(ctx: _Ctx, el: ET.Element, path):
    when, description = _walk(ctx, el, path, _STEP, check_attrs=False)
    if when is _BAD or description is _BAD:
        return _BAD
    return ProcessingStep(when, description)


_SEQUENCE = _grammar(("processingStep", "*", _read_step))


def _read_sequence(ctx: _Ctx, el: ET.Element, path):
    return _walk(ctx, el, path, _SEQUENCE, check_attrs=False)[0]


_EVENT = _grammar(
    ("ID", "1", _read_id),
    ("processingSequence", "1", _read_sequence),
    ("observation", "+", _read_observation),
)


def _read_event(ctx: _Ctx, root: ET.Element):
    event_id, steps, observations = _walk(ctx, root, "/locationEvent", _EVENT)
    if event_id is _BAD or steps is _BAD or observations is _BAD:
        return _BAD
    return LocationEvent(event_id, tuple(steps), tuple(observations))


def _document_root(ctx: _Ctx, document):
    if isinstance(document, str):
        data = document.encode("utf-8")
    else:
        data = bytes(document)
    try:
        root = ET.fromstring(data)
    except ET.ParseError as e:
        if ctx.strict:
            raise NotWellFormed(str(e)) from None
        ctx.fail("/", "well-formed", str(e))
        return _BAD
    local = _local(root.tag)
    if local != "locationEvent":
        ctx.fail("/", "unexpected", f"root is {local!r}, expected locationEvent")
        return _BAD
    if root.tag != _QNAME["locationEvent"]:
        ctx.fail("/locationEvent", "namespace", f"root element not in {NS}")
    return root


def parse_location_event(document) -> LocationEvent:
    """Parse one document (bytes or text) into a validated event.

    Raises NotWellFormed for broken XML, SchemaViolation at the first
    grammar or value-space breach, and SchemaViolation with rule "depth",
    as validate_document reports it, for nesting too deep to read.
    """
    ctx = _Ctx(strict=True)
    root = _document_root(ctx, document)
    try:
        return _read_event(ctx, root)
    except RecursionError:
        raise SchemaViolation("/", "depth", "document nesting too deep") from None


def validate_document(document) -> ValidationReport:
    """Total validation: every violation collected, never raises."""
    ctx = _Ctx(strict=False)
    root = _document_root(ctx, document)
    if root is not _BAD:
        try:
            _read_event(ctx, root)
        except RecursionError:
            ctx.fail("/", "depth", "document nesting too deep")
    return ValidationReport(ctx.violations, ctx.warnings)


def _qualify(root: ET.Element):
    """Push namespace-less fragment tags into the wire namespace."""
    stack = [root]
    while stack:
        el = stack.pop()
        if not el.tag.startswith("{"):
            el.tag = _QUALIFIER + el.tag
            stack.extend(el)


def parse_where(fragment) -> Where:
    """Read a standalone Where (or bare payload) fragment.

    Namespace-less fragments are accepted for convenience and read as if
    they lived in the wire namespace.  Nesting too deep to read raises
    SchemaViolation with rule "depth", as parse_location_event does.
    """
    if isinstance(fragment, str):
        data = fragment.encode("utf-8")
    else:
        data = bytes(fragment)
    try:
        root = ET.fromstring(data)
    except ET.ParseError as e:
        raise NotWellFormed(str(e)) from None
    _qualify(root)
    ctx = _Ctx(strict=True)
    local = _local(root.tag)
    path = f"/{local}"
    if root.tag != _QUALIFIER + local:
        ctx.fail(path, "namespace", f"fragment not in {NS}")
    try:
        if local == "where":
            return _read_where(ctx, root, path)
        if local in _PAYLOAD_READERS:
            return Where(_PAYLOAD_READERS[local](ctx, root, path))
    except RecursionError:
        raise SchemaViolation("/", "depth", "document nesting too deep") from None
    raise SchemaViolation(path, "unexpected", "not a Where fragment")


# ---------------------------------------------------------------------------
# Writing


def _fmt_double(v: float) -> str:
    s = repr(float(v))
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
    for local, attr, _ in _ADDRESS_FIELDS:
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
        try:
            el.append(ET.fromstring(frag))
        except ET.ParseError as e:
            raise NotWellFormed(f"locale extension fragment: {e}") from None


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
