"""Location-event wire format: reader, writer and validator.

All documents live in one namespace and follow a fixed element grammar,
written here as small per-element tables that one walker reads (rather
than a generic schema engine).  The same reading code backs both surfaces:
parsing raises on the first broken rule, validation records every broken
rule and keeps going, so a document validates clean exactly when it parses.

Canonical output is UTF-8 after an XML declaration, with no whitespace of
its own, written directly as strings by ElementTree's rules, frozen:
- an element with no text and no children is `<tag />`;
- text escapes & < >; attribute values also " CR LF TAB (`&#10;` for LF);
- doubles: repr() less a trailing ".0", -0.0 as 0; dateTime years: 4 digits;
- a unit attribute is omitted when it is its class's default (M, m, knots);
- a locale extension fragment, held as model.Locale writes it, is
  re-read and written with every namespace declared on the root, sorted by
  prefix as strings (ns10 before ns2).  A namespace takes a well-known
  prefix (xsi, xs, dc, ...) or else `ns{namespaces declared so far}`, in
  document order, tag before attribute names; xml is never declared.
Round-trip equality is therefore defined on the model, not on the bytes.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Optional

from .errors import NotWellFormed, OutOfRange, SchemaViolation
from .model import (
    Address,
    AddressLocation,
    Altitude,
    CircularBounds,
    Classification,
    ClassifiedLocation,
    Distance,
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
    Speed,
    SymbolicLocation,
    Where,
    Information,
    field_default,
    make_constrained,
    _BEARING,
    _EMAIL_RE,
    _LATITUDE,
    _LONGITUDE,
    _PHONE_RE,
    _SAT_COUNT,
    _ATTR, _declare, _escape, _foreign,  # canonical text, shared with Locale
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
# Reject symbolic locations and locales nested deeper than this, long before
# the interpreter's stack runs out, so the verdict is the same whatever stack
# the caller has used.
_NESTING_CAP = 2 * _LOCALE_DEPTH_BOUND


# ---------------------------------------------------------------------------
# Wire-level model


@dataclass(frozen=True, slots=True)
class ProcessingStep:
    """One hop in an event's life: when it was handled and by what."""

    date_time: Time
    description: str


@dataclass(frozen=True, slots=True)
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
            make_constrained(_BEARING, self.course)
        if self.magnetic_variation is not None:
            make_constrained(_BEARING, self.magnetic_variation)
        if self.satellites_visible is not None:
            object.__setattr__(
                self,
                "satellites_visible",
                make_constrained(_SAT_COUNT, self.satellites_visible),
            )


@dataclass(frozen=True, slots=True)
class LocationEvent:
    id: Id
    processing_sequence: tuple[ProcessingStep, ...] = ()
    observations: tuple[Observation, ...] = ()

    def __post_init__(self):
        if not self.observations:
            raise ValueError("a location event carries at least one observation")


@dataclass(frozen=True, slots=True)
class Violation:
    path: str
    rule: str
    detail: str = ""


@dataclass(slots=True)
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
# reaches it, so breaches come in document order, and every child is read
# even after one fails, so validation sees them all.  A breach is reported
# where it is found, by ctx.fail, which returns _BAD; a reader that cannot
# build its value returns _BAD, and so does the walk of an element any of
# whose particles failed, so a reader tests its walk once, never each
# value.  A path is the root's string, or a (parent path, local name,
# index) tuple, index 0 meaning not indexed, spelled out only when a
# breach or a warning is reported.

_BAD = object()  # subtree failed; distinct from None, which is a legal value
# expat refuses a "}" in a namespace name, so a tag starts with _QUALIFIER
# exactly when it is in the wire namespace
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
        return _BAD

    def warn(self, path, message: str):
        if not self.strict:  # nothing reads a strict parse's warnings
            self.warnings.append(f"{_spell(path)}: {message}")


def _local(tag: str) -> str:
    return tag.rpartition("}")[2]


def _attrs_ok(ctx: _Ctx, el: ET.Element, path, allowed: tuple[str, ...] = ()):
    """Whether el has no plain attribute but the `allowed` ones, each other
    one reported.  Foreign-namespaced attributes (xsi:schemaLocation and
    friends) pass."""
    bad = False
    for k in el.keys():
        if k.startswith("{") or k in allowed:
            continue
        ctx.fail(path, "attribute", f"unexpected attribute {k!r}")
        bad = True
    return not bad


def _children(ctx: _Ctx, el: ET.Element, path, allowed: tuple[str, ...] = ()) -> list:
    """The child elements of a complex element, once its attributes (none
    but the `allowed` ones) and its lack of character content are checked."""
    if el.keys():
        _attrs_ok(ctx, el, path, allowed)
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
    if not kid.tag.startswith(_QUALIFIER):
        ctx.fail(child, "namespace", f"element {local!r} not in {NS}")
    return child


# in this order: _walk tests `occurs < _SOME` and `occurs < _CHOICE`
_ONE, _OPT, _SOME, _ANY, _CHOICE, _REST = range(6)
_OCCURS = {"1": _ONE, "?": _OPT, "+": _SOME, "*": _ANY, "|": _CHOICE, "...": _REST}


def _walk(ctx: _Ctx, el: ET.Element, path, grammar, exact=False):
    """One value per particle of `grammar`, reading el's children in order:
    a reader's result, None for an absent optional, a tuple for a run; or
    _BAD if a reader failed, a required child is missing or a run is empty
    where it may not be.  A child with a particle's local name in another
    namespace is read and reported, or with exact=True left for later
    particles.  The first child no particle claims is unexpected."""
    kids = _children(ctx, el, path)
    count = len(kids)
    i = 0
    values = []
    bad = False
    for occurs, local, qname, reader in grammar:
        if occurs < _SOME:  # "1" or "?"
            tag = kids[i].tag if i < count else None
            if tag == qname:
                child = (path, local, 0)
            elif tag is None or exact or tag.startswith(_QUALIFIER) or _local(tag) != local:
                if occurs == _ONE:
                    ctx.fail((path, local, 0), "minOccurs", f"missing {local}")
                    bad = True
                values.append(None)
                continue
            else:
                child = _named(ctx, kids[i], path, local)
            value = reader(ctx, kids[i], child)
            i += 1
        elif occurs < _CHOICE:  # "+" or "*"
            run = []
            while i < count:
                kid = kids[i]
                tag = kid.tag
                if tag != qname and (exact or tag.startswith(_QUALIFIER) or _local(tag) != local):
                    break
                i += 1
                child = (path, local, len(run) + 1)
                if tag != qname:
                    ctx.fail(child, "namespace", f"element {local!r} not in {NS}")
                item = reader(ctx, kid, child)
                if item is _BAD:
                    bad = True
                run.append(item)
            if not run and occurs == _SOME:
                ctx.fail((path, local, 0), "minOccurs", f"at least one {local} required")
                bad = True
            values.append(tuple(run))
            continue
        elif occurs == _CHOICE:
            value = None
            chosen = _local(kids[i].tag) if i < count else None
            if chosen in reader:
                value = reader[chosen](ctx, kids[i], _named(ctx, kids[i], path, chosen))
                i += 1
        else:
            value = reader(ctx, kids[i:], path)
            i = count
        if value is _BAD:
            bad = True
        values.append(value)
    if i < count:
        ctx.fail((path, _local(kids[i].tag), 0), "unexpected", "element not allowed here")
    return _BAD if bad else values


def _grammar(*particles):
    return tuple(
        (_OCCURS[occurs], local, local and _QUALIFIER + local, reader)
        for local, occurs, reader in particles
    )


# --- leaf readers ---


def _read_text(ctx: _Ctx, el: ET.Element, path) -> str:
    return el.text or ""


def _number(kind=None):
    """A reader of doubles; given a ScalarKind, of numbers in its closed
    interval, integers if it is integral, named in breaches by element."""
    lo, hi = (None, None) if kind is None else kind.bounds
    integral = kind is not None and kind.integral
    lexical, noun = ("integer", "an integer") if integral else ("double", "a double")

    def read(ctx: _Ctx, el: ET.Element, path):
        text = (el.text or "").strip()
        v = None
        if integral:
            if _INTEGER_RE.match(text):
                v = int(text)
        elif text and "_" not in text:
            try:
                v = float(text)
            except ValueError:
                pass
        if v is None:
            return ctx.fail(path, lexical, f"not {noun}: {text!r}")
        if lo is None or lo <= v <= hi:
            return v
        if v != v:  # NaN has no place in a closed interval
            return ctx.fail(path, "double", f"{path[1]} is NaN")
        if v < lo:
            return ctx.fail(path, "minInclusive", f"{path[1]} {v!r} violates minInclusive={lo}")
        return ctx.fail(path, "maxInclusive", f"{path[1]} {v!r} violates maxInclusive={hi}")

    return read


_read_double = _number()


def _read_datetime(ctx: _Ctx, el: ET.Element, path):
    text = (el.text or "").strip()
    try:
        millis, zoned = lex_datetime(text)
    except ValueError as e:
        return ctx.fail(path, "dateTime", str(e))
    if not zoned:
        ctx.warn(path, "zone-less timestamp read as UTC")
    return Time(millis)


def _read_time_of_day(ctx: _Ctx, el: ET.Element, path):
    text = (el.text or "").strip()
    try:
        return TimeOfDay.from_lexical(text)
    except ValueError as e:
        return ctx.fail(path, "time", str(e))


def _read_boolean(ctx: _Ctx, el: ET.Element, path):
    text = (el.text or "").strip()
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    return ctx.fail(path, "boolean", f"not a boolean: {text!r}")


def _read_email(ctx: _Ctx, el: ET.Element, path):
    value = el.text or ""
    if _EMAIL_RE.fullmatch(value) is None:
        return ctx.fail(path, "pattern", f"email {value!r} lacks '@' or a domain dot")
    return value


# quantity elements: the class, whose `unit` default is omitted when written
# and whose constructor refuses a value below its range
_QUANTITIES = {"altitude": Altitude, "speed": Speed, "radius": Distance}


def _read_quantity(ctx: _Ctx, el: ET.Element, path):
    cls = _QUANTITIES[path[1]]
    ok = _attrs_ok(ctx, el, path, allowed=("unit",))
    v = _read_double(ctx, el, path)
    raw_unit = el.get("unit")
    unit = field_default(cls, "unit")
    if raw_unit is not None:
        unit_enum = type(unit)
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
    try:
        return cls(v, unit)
    except OutOfRange:
        return ctx.fail(path, "minInclusive", f"{cls.__name__.lower()} {v!r} violates minInclusive=0")


def _optional_fields(fields, what: str, required=()):
    """A "..." reader: the children left as optional fields, each at most
    once and in the order of `fields`, a table of (local name, keyword,
    reader).  `required` names elements read before them, which a second
    copy breaches as maxOccurs.  Reads the keyword arguments, or _BAD."""
    index = {}
    for i, (local, _, _) in enumerate(fields):
        index[local] = index[_QUALIFIER + local] = i

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
            if not kid.tag.startswith(_QUALIFIER):
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
        return ctx.fail(path, "choice", "ID needs one of bitString|GUID|phone|email")
    local = _local(kids[0].tag)
    if local not in _ID_KINDS:
        return ctx.fail((path, local, 0), "choice", "not an ID form")
    child = _named(ctx, kids[0], path, local)
    if len(kids) > 1:
        return ctx.fail((path, _local(kids[1].tag), 0), "choice", "ID carries multiple forms")
    value = kids[0].text or ""
    if local == "phone" and _PHONE_RE.fullmatch(value) is None:
        return ctx.fail(child, "pattern", f"phone {value!r} must be '+' then digits/spaces")
    if local == "email" and _read_email(ctx, kids[0], child) is _BAD:
        return _BAD
    return Id(_ID_KINDS[local], value)


def _compound(make, *particles):
    """A reader of an element read by `particles`, whose values `make`
    combines unless the walk failed."""
    grammar = _grammar(*particles)

    def read(ctx: _Ctx, el: ET.Element, path):
        values = _walk(ctx, el, path, grammar)
        return _BAD if values is _BAD else make(*values)

    return read


_read_latlong = _compound(
    LatLongCoordinate,
    ("latitude", "1", _number(_LATITUDE)),
    ("longitude", "1", _number(_LONGITUDE)),
)
_read_coordinate = _compound(lambda coordinate: coordinate, ("latLongCoordinate", "?", _read_latlong))
_read_physical = _compound(PhysicalLocation, ("coordinate", "?", _read_coordinate))
_BOUNDS_FORMS = {
    "horizon": lambda ctx, el, path: Horizon(el.text or ""),
    "circularBounds": _compound(
        CircularBounds,
        ("centre", "1", _read_physical),
        ("radius", "1", _read_quantity),
    ),
    "rectangularBounds": _compound(
        RectangularBounds,
        ("topLeft", "1", _read_physical),
        ("bottomRight", "1", _read_physical),
    ),
}


def _one_of(ctx: _Ctx, kids: list, path, forms: dict, what: str):
    """The first of `kids` read by the reader `forms` has for its local
    name, or _BAD if it has none or another child follows it."""
    local = _local(kids[0].tag)
    reader = forms.get(local)
    if reader is None:
        result = ctx.fail((path, local, 0), "choice", f"not a {what}")
    else:
        result = reader(ctx, kids[0], _named(ctx, kids[0], path, local))
    if len(kids) > 1:
        return ctx.fail((path, _local(kids[1].tag), 0), "choice", f"multiple {what}s")
    return result


def _read_bounds(ctx: _Ctx, el: ET.Element, path):
    """The bounds choice may be empty; None is a legal result."""
    kids = _children(ctx, el, path)
    return _one_of(ctx, kids, path, _BOUNDS_FORMS, "bounds form") if kids else None


_read_region = _compound(
    Region, ("distinguishedPoint", "1", _read_physical), ("bounds", "1", _read_bounds)
)


_read_information = _compound(
    Information,
    ("info", "*", _read_text),
    ("link", "*", _read_text),
)


_CLASSIFICATION = _grammar(("classificationType", "*", _read_text))


def _read_classification(ctx: _Ctx, el: ET.Element, path):
    (types,) = _walk(ctx, el, path, _CLASSIFICATION)  # a run of text never fails
    if not types:
        return ctx.fail((path, "classificationType", 0), "minOccurs", "at least one type required")
    return Classification(types)


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


def _classified_location(located, classifications, description):
    if located is None:
        return ClassifiedLocation(classifications, description)
    product, address = located
    if product is None:
        return AddressLocation(classifications, description, address)
    return ProductLocation(classifications, description, address, *product)


_read_classified = _compound(
    _classified_location,
    ("addressLocation", "?", _compound(
        lambda product, address: (product, address),
        ("productLocation", "?", _compound(
            lambda open_time, close_time: (open_time, close_time),
            ("openTime", "1", _read_time_of_day),
            ("closeTime", "1", _read_time_of_day),
        )),
        ("address", "1", _compound(
            lambda fields: Address(**fields),
            (None, "...", _optional_fields(_ADDRESS_FIELDS, "address")),
        )),
    )),
    ("classification", "*", _read_classification),
    ("description", "1", _read_text),
)


def _deeper(ctx: _Ctx, el: ET.Element, path, grammar, exact=False):
    """_walk one symbolic location or locale deeper, or _BAD past _NESTING_CAP."""
    depth = ctx.depth
    if depth >= _NESTING_CAP:
        return ctx.fail("/", "depth", "document nesting too deep")
    ctx.depth = depth + 1
    values = _walk(ctx, el, path, grammar, exact)
    ctx.depth = depth
    return values


def _read_symbolic(ctx: _Ctx, el: ET.Element, path):
    values = _deeper(ctx, el, path, _SYMBOLIC)
    if values is _BAD:
        return _BAD
    subtype, information, region, locales, fixed = values
    return SymbolicLocation(information, region, subtype, locales, fixed)


def _read_locale(ctx: _Ctx, el: ET.Element, path):
    if ctx.depth == _LOCALE_DEPTH_BOUND:
        ctx.warn(path, f"locale nesting deeper than {_LOCALE_DEPTH_BOUND}")
    # exact matching: a same-name element outside the namespace falls
    # through to the extensions instead of being a violation
    values = _deeper(ctx, el, path, _LOCALE, exact=True)
    if values is _BAD:
        return _BAD
    parent, classifications, contents, neighbours, extensions = values
    return Locale(parent, classifications, contents, neighbours, extensions)


def _read_extensions(ctx: _Ctx, kids: list, path):
    """The children left, for Locale to hold, or _BAD if one holds an element in
    no namespace.  Locale refuses those too, at the first; this reports each."""
    bad = None
    for kid in kids:
        for el in kid.iter():
            if el.tag[:1] != "{":
                detail = f"element {el.tag!r} in no namespace"
                bad = ctx.fail((path, _local(kid.tag), 0), "namespace", detail)
    return bad or kids


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
    kids = _children(ctx, el, path, ("name", "glossURN"))
    payload = _one_of(ctx, kids, path, _PAYLOAD_READERS, "Where payload") if kids else None
    if payload is _BAD:
        return _BAD
    return Where(payload, el.get("name"), el.get("glossURN"))


# (local name, keyword on Observation, reader), in schema order
_OBS_OPTIONAL = (
    ("altitude", "altitude", _read_quantity),
    ("speed", "speed", _read_quantity),
    ("course", "course", _number(_BEARING)),
    ("magneticVariation", "magnetic_variation", _number(_BEARING)),
    ("satellitesVisible", "satellites_visible", _number(_SAT_COUNT)),
    ("PDOP", "pdop", _read_double),
    ("HDOP", "hdop", _read_double),
    ("VDOP", "vdop", _read_double),
    ("HPE", "hpe", _read_double),
    ("VPE", "vpe", _read_double),
)
_read_observation = _compound(
    lambda t, where, fields: Observation(t, where, **fields),
    ("timeOfObservation", "1", _read_datetime),
    ("where", "1", _read_where),
    (None, "...", _optional_fields(_OBS_OPTIONAL, "observation", ("timeOfObservation", "where"))),
)


_read_sequence = _compound(lambda steps: steps, ("processingStep", "*", _compound(
    ProcessingStep,
    ("dateTime", "1", _read_datetime),
    ("description", "1", _read_text),
)))


_read_event = _compound(
    LocationEvent,
    ("ID", "1", _read_id),
    ("processingSequence", "1", _read_sequence),
    ("observation", "+", _read_observation),
)


def _document_root(ctx: _Ctx, document):
    """The root element of a document, text or bytes; if it is not
    well-formed, NotWellFormed parsing, or reported and _BAD validating.
    Text is read as already decoded, whatever encoding it declares.  An
    encoding expat cannot use, or text it cannot encode, is not well-formed."""
    try:
        return ET.fromstring(document if isinstance(document, str) else bytes(document))
    except (ET.ParseError, LookupError, ValueError) as e:
        if ctx.strict:
            raise NotWellFormed(str(e)) from None
        return ctx.fail("/", "well-formed", str(e))


def _read_document(ctx: _Ctx, document):
    root = _document_root(ctx, document)
    if root is _BAD:
        return _BAD
    local = _local(root.tag)
    if local != "locationEvent":
        return ctx.fail("/", "unexpected", f"root is {local!r}, expected locationEvent")
    if not root.tag.startswith(_QUALIFIER):
        ctx.fail("/locationEvent", "namespace", f"root element not in {NS}")
    return _read_event(ctx, root, "/locationEvent")


def parse_location_event(document) -> LocationEvent:
    """Parse one document (bytes or text) into a validated event.

    Raises NotWellFormed for broken XML, SchemaViolation at the first
    grammar or value-space breach, and SchemaViolation with rule "depth",
    as validate_document reports it, for nesting too deep to read.
    """
    return _read_document(_Ctx(strict=True), document)


def validate_document(document) -> ValidationReport:
    """Total validation: every violation collected, never raises."""
    ctx = _Ctx(strict=False)
    _read_document(ctx, document)
    return ValidationReport(ctx.violations, ctx.warnings)


def _qualify(root: ET.Element):
    """Push namespace-less tags into the wire namespace, as if the fragment
    declared it as its default."""
    for el in root.iter():
        if not el.tag.startswith("{"):
            el.tag = _QUALIFIER + el.tag


def parse_where(fragment) -> Where:
    """Read a standalone Where (or bare payload) fragment.

    Namespace-less fragments are accepted for convenience and read as if
    they lived in the wire namespace.  Nesting too deep to read raises
    SchemaViolation with rule "depth", as parse_location_event does.
    """
    ctx = _Ctx(strict=True)
    root = _document_root(ctx, fragment)
    _qualify(root)
    local = _local(root.tag)
    path = f"/{local}"
    if not root.tag.startswith(_QUALIFIER):
        ctx.fail(path, "namespace", f"fragment not in {NS}")
    if local == "where":
        return _read_where(ctx, root, path)
    if local in _PAYLOAD_READERS:
        return Where(_PAYLOAD_READERS[local](ctx, root, path))
    raise SchemaViolation(path, "unexpected", "not a Where fragment")


# ---------------------------------------------------------------------------
# Writing: each writer returns the canonical string of one element.  `ns`
# maps each foreign namespace written so far to its prefix; the
# declarations go on the root once the whole document is written.

_XML_DECL = '<?xml version="1.0" encoding="UTF-8"?>\n'
_NS_ATTR = f' xmlns="{NS}"'


def _fmt_double(v: float) -> str:
    s = repr(float(v) + 0.0)  # -0.0 + 0.0 is 0.0: negative zero is written 0
    return s[:-2] if s.endswith(".0") else s


def _el(tag: str, content: str) -> str:
    return f"<{tag}>{content}</{tag}>" if content else f"<{tag} />"


def _leaf(tag: str, text: Optional[str]) -> str:
    return f"<{tag}>{_escape(text)}</{tag}>" if text else f"<{tag} />"


def _leaves(tag: str, texts) -> str:
    return "".join([_leaf(tag, text) for text in texts])


def _quantity(tag: str, q) -> str:
    if q.unit is field_default(type(q), "unit"):
        return f"<{tag}>{_fmt_double(q.value)}</{tag}>"
    return f'<{tag} unit="{_escape(q.unit.value, _ATTR)}">{_fmt_double(q.value)}</{tag}>'


def _physical(tag: str, p: PhysicalLocation) -> str:
    c = p.coordinate
    if c is None:
        return f"<{tag} />"
    return (
        f"<{tag}><coordinate><latLongCoordinate><latitude>{_fmt_double(c.latitude)}"
        f"</latitude><longitude>{_fmt_double(c.longitude)}</longitude>"
        f"</latLongCoordinate></coordinate></{tag}>"
    )


def _region(tag: str, r: Region) -> str:
    b = r.bounds
    bounds = ""
    if isinstance(b, Horizon):
        bounds = _leaf("horizon", b.description)
    elif isinstance(b, CircularBounds):
        centre = _physical("centre", b.centre)
        bounds = _el("circularBounds", centre + _quantity("radius", b.radius))
    elif isinstance(b, RectangularBounds):
        corners = _physical("topLeft", b.top_left) + _physical("bottomRight", b.bottom_right)
        bounds = _el("rectangularBounds", corners)
    point = _physical("distinguishedPoint", r.distinguished_point)
    return f"<{tag}>{point}{_el('bounds', bounds)}</{tag}>"


def _classifications(cs) -> str:
    return "".join([_el("classification", _leaves("classificationType", c.types)) for c in cs])


def _classified(c: ClassifiedLocation) -> str:
    located = ""
    if isinstance(c, AddressLocation):
        if isinstance(c, ProductLocation):
            located = (
                f"<productLocation><openTime>{c.open_time.lexical()}</openTime>"
                f"<closeTime>{c.close_time.lexical()}</closeTime></productLocation>"
            )
        fields = [(local, getattr(c.address, attr)) for local, attr, _ in _ADDRESS_FIELDS]
        address = "".join([_leaf(local, v) for local, v in fields if v is not None])
        located = _el("addressLocation", located + _el("address", address))
    located += _classifications(c.classifications) + _leaf("description", c.description)
    return _el("classifiedLocation", located)


def _symbolic(ns: dict, tag: str, s: SymbolicLocation) -> str:
    subtype = s.subtype
    head = ""
    if isinstance(subtype, ClassifiedLocation):
        head = _classified(subtype)
    elif isinstance(subtype, Landmark):
        head = _leaf("landmark", subtype.name)
    elif isinstance(subtype, District):
        head = _leaf("district", subtype.name)
    info = s.information
    head += _el("information", _leaves("info", info.info) + _leaves("link", info.links))
    locales = "".join([_locale(ns, "locale", loc) for loc in s.locales])
    fixed = "true" if s.fixed else "false"
    return f"<{tag}>{head}{_region('region', s.region)}{locales}<fixed>{fixed}</fixed></{tag}>"


def _locale(ns: dict, tag: str, loc: Locale) -> str:
    parts = [] if loc.parent is None else [_locale(ns, "parent", loc.parent)]
    parts.append(_classifications(loc.classifications))
    parts += [_symbolic(ns, "contents", s) for s in loc.contents]
    parts += [_locale(ns, "neighbours", n) for n in loc.neighbours]
    parts += [_foreign(ET.fromstring(frag), ns) for frag in loc.extensions]
    return _el(tag, "".join(parts))


def _where(ns: dict, head: str, w: Where) -> str:
    """A where element whose start tag begins with `head`."""
    if w.name is not None:
        head += f' name="{_escape(w.name, _ATTR)}"'
    if w.gloss_urn is not None:
        head += f' glossURN="{_escape(w.gloss_urn, _ATTR)}"'
    p = w.payload
    if p is None:
        return head + " />"
    if isinstance(p, SymbolicLocation):
        payload = _symbolic(ns, "symbolicLocation", p)
    elif isinstance(p, PhysicalLocation):
        payload = _physical("physicalLocation", p)
    elif isinstance(p, Region):
        payload = _region("region", p)
    elif isinstance(p, Locale):
        payload = _locale(ns, "locale", p)
    else:
        raise TypeError(f"not a Where payload: {type(p).__name__}")
    return f"{head}>{payload}</where>"


def _observation(ns: dict, o: Observation) -> str:
    parts = [f"<observation><timeOfObservation>{o.time_of_observation.lexical()}"
             f"</timeOfObservation>{_where(ns, '<where', o.where)}"]
    for local, keyword, _ in _OBS_OPTIONAL:
        value = getattr(o, keyword)
        if value is not None:  # satellitesVisible is an int 0-12: _fmt_double gives str()
            parts.append(_quantity(local, value) if local in _QUANTITIES
                         else f"<{local}>{_fmt_double(value)}</{local}>")
    return "".join(parts) + "</observation>"


def serialize_location_event(e: LocationEvent) -> bytes:
    """Canonical UTF-8 document; default unit attributes omitted."""
    ns: dict = {}
    steps = "".join([
        f"<processingStep><dateTime>{step.date_time.lexical()}</dateTime>"
        f"{_leaf('description', step.description)}</processingStep>"
        for step in e.processing_sequence
    ])
    written = (
        f"<locationEvent{_NS_ATTR}><ID>{_leaf(e.id.kind.value, e.id.value)}</ID>"
        f"{_el('processingSequence', steps)}"
        + "".join([_observation(ns, o) for o in e.observations]) + "</locationEvent>"
    )
    return (_XML_DECL + _declare(ns, written, len("<locationEvent"))).encode("utf-8")


def serialize_where(w: Where) -> bytes:
    """Standalone `<where>` fragment in the wire namespace."""
    ns: dict = {}
    written = _where(ns, "<where" + _NS_ATTR, w)
    return (_XML_DECL + _declare(ns, written, len("<where"))).encode("utf-8")
