"""Location-event wire format: reader, writer and validator.

All documents live in one namespace and follow a fixed element grammar
(hand-compiled here rather than driven by a generic schema engine).  The
same reading code backs both surfaces: parsing raises on the first broken
rule, validation records every broken rule and keeps going, so a document
validates clean exactly when it parses.

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
from .temporal import Time, TimeOfDay

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

_ZONE_SUFFIX_RE = re.compile(r"(Z|[+-]\d{2}:\d{2})$")
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

_BAD = object()  # subtree failed; distinct from None, which is a legal value


class _Ctx:
    __slots__ = ("strict", "violations", "warnings")

    def __init__(self, strict: bool):
        self.strict = strict
        self.violations: list[Violation] = []
        self.warnings: list[str] = []

    def fail(self, path: str, rule: str, detail: str = ""):
        if self.strict:
            raise SchemaViolation(path, rule, detail)
        self.violations.append(Violation(path, rule, detail))

    def warn(self, message: str):
        self.warnings.append(message)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[1] if tag.startswith("{") else tag


class _Cursor:
    """Walks the child elements of one complex element in schema order."""

    def __init__(self, ctx: _Ctx, el: ET.Element, path: str):
        self.ctx = ctx
        self.path = path
        self.kids = [k for k in el if isinstance(k.tag, str)]
        self.i = 0
        self.counts: dict[str, int] = {}
        self.last_path = path
        if (el.text or "").strip():
            ctx.fail(path, "text", "unexpected character content")
        else:
            for k in self.kids:
                if (k.tail or "").strip():
                    ctx.fail(path, "text", "unexpected character content")
                    break

    def peek(self) -> Optional[ET.Element]:
        return self.kids[self.i] if self.i < len(self.kids) else None

    def consume(self) -> ET.Element:
        el = self.kids[self.i]
        self.i += 1
        return el

    def _child_path(self, local: str, indexed: bool) -> str:
        n = self.counts.get(local, 0) + 1
        self.counts[local] = n
        return f"{self.path}/{local}" + (f"[{n}]" if indexed else "")

    def take(self, local: str, indexed: bool = False, exact: bool = False):
        """Consume and return the next child iff its local name matches.

        With exact=True a same-name element in the wrong namespace is left
        in place (the caller's wildcard tail may claim it); otherwise it is
        consumed and reported as a namespace violation.
        """
        el = self.peek()
        if el is None or _local(el.tag) != local:
            return None
        qualified = el.tag == f"{{{NS}}}{local}"
        if exact and not qualified:
            return None
        self.consume()
        self.last_path = self._child_path(local, indexed)
        if not qualified:
            self.ctx.fail(
                self.last_path, "namespace", f"element {local!r} not in {NS}"
            )
        return el

    def require(self, local: str, indexed: bool = False):
        el = self.take(local, indexed)
        if el is None:
            self.ctx.fail(f"{self.path}/{local}", "minOccurs", f"missing {local}")
        return el

    def done(self):
        el = self.peek()
        if el is not None:
            self.consume()
            self.ctx.fail(
                f"{self.path}/{_local(el.tag)}",
                "unexpected",
                "element not allowed here",
            )


# --- leaf readers ---


def _read_text(el: ET.Element) -> str:
    return el.text or ""


def _read_double(ctx: _Ctx, el: ET.Element, path: str):
    text = (el.text or "").strip()
    if not text or "_" in text:
        ctx.fail(path, "double", f"not a double: {text!r}")
        return _BAD
    try:
        return float(text)
    except ValueError:
        ctx.fail(path, "double", f"not a double: {text!r}")
        return _BAD


def _read_ranged_double(ctx, el, path, lo, hi, what):
    v = _read_double(ctx, el, path)
    if v is _BAD:
        return _BAD
    if v != v:  # NaN has no place in a closed interval
        ctx.fail(path, "double", f"{what} is NaN")
        return _BAD
    if v < lo:
        ctx.fail(path, "minInclusive", f"{what} {v!r} violates minInclusive={lo}")
        return _BAD
    if v > hi:
        ctx.fail(path, "maxInclusive", f"{what} {v!r} violates maxInclusive={hi}")
        return _BAD
    return v


def _read_sat_count(ctx: _Ctx, el: ET.Element, path: str):
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


def _read_datetime(ctx: _Ctx, el: ET.Element, path: str):
    text = (el.text or "").strip()
    try:
        t = Time.from_lexical(text)
    except ValueError as e:
        ctx.fail(path, "dateTime", str(e))
        return _BAD
    if _ZONE_SUFFIX_RE.search(text) is None:
        ctx.warn(f"{path}: zone-less timestamp read as UTC")
    return t


def _read_time_of_day(ctx: _Ctx, el: ET.Element, path: str):
    text = (el.text or "").strip()
    try:
        return TimeOfDay.from_lexical(text)
    except ValueError as e:
        ctx.fail(path, "time", str(e))
        return _BAD


def _read_boolean(ctx: _Ctx, el: ET.Element, path: str):
    text = (el.text or "").strip()
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    ctx.fail(path, "boolean", f"not a boolean: {text!r}")
    return _BAD


def _check_attrs(ctx: _Ctx, el: ET.Element, path: str, allowed: tuple[str, ...] = ()):
    """Foreign-namespaced attributes (xsi:schemaLocation and friends) pass;
    unknown plain attributes are violations."""
    bad = False
    for k in el.attrib:
        if k.startswith("{") or k in allowed:
            continue
        ctx.fail(path, "attribute", f"unexpected attribute {k!r}")
        bad = True
    return not bad


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


# --- structure readers ---


def _read_id(ctx: _Ctx, el: ET.Element, path: str):
    _check_attrs(ctx, el, path)
    cur = _Cursor(ctx, el, path)
    first = cur.peek()
    if first is None:
        ctx.fail(path, "choice", "ID needs one of bitString|GUID|phone|email")
        return _BAD
    local = _local(first.tag)
    if local not in ("bitString", "GUID", "phone", "email"):
        cur.consume()
        ctx.fail(f"{path}/{local}", "choice", "not an ID form")
        return _BAD
    chosen = cur.take(local)
    child_path = cur.last_path
    if cur.peek() is not None:
        extra = cur.consume()
        ctx.fail(f"{path}/{_local(extra.tag)}", "choice", "ID carries multiple forms")
        return _BAD
    value = _read_text(chosen)
    if local == "phone" and _PHONE_RE.fullmatch(value) is None:
        ctx.fail(
            child_path, "pattern", f"phone {value!r} must be '+' then digits/spaces"
        )
        return _BAD
    if local == "email" and _EMAIL_RE.fullmatch(value) is None:
        ctx.fail(child_path, "pattern", f"email {value!r} lacks '@' or a domain dot")
        return _BAD
    return Id(IdKind(local), value)


def _read_latlong(ctx: _Ctx, el: ET.Element, path: str):
    _check_attrs(ctx, el, path)
    cur = _Cursor(ctx, el, path)
    lat = lon = _BAD
    lat_el = cur.require("latitude")
    if lat_el is not None:
        lat = _read_ranged_double(ctx, lat_el, cur.last_path, -90.0, 90.0, "latitude")
    lon_el = cur.require("longitude")
    if lon_el is not None:
        lon = _read_ranged_double(
            ctx, lon_el, cur.last_path, -180.0, 180.0, "longitude"
        )
    cur.done()
    if lat is _BAD or lon is _BAD:
        return _BAD
    return LatLongCoordinate(lat, lon)


def _read_physical(ctx: _Ctx, el: ET.Element, path: str):
    _check_attrs(ctx, el, path)
    cur = _Cursor(ctx, el, path)
    coord = None
    bad = False
    coord_el = cur.take("coordinate")
    if coord_el is not None:
        inner = _Cursor(ctx, coord_el, cur.last_path)
        ll_el = inner.take("latLongCoordinate")
        if ll_el is not None:
            coord = _read_latlong(ctx, ll_el, inner.last_path)
            if coord is _BAD:
                coord, bad = None, True
        inner.done()
    cur.done()
    return _BAD if bad else PhysicalLocation(coord)


def _read_distance(ctx: _Ctx, el: ET.Element, path: str):
    return _read_quantity(
        ctx, el, path, Distance, DistanceUnit, DistanceUnit.M, True, "distance"
    )


def _read_bounds(ctx: _Ctx, el: ET.Element, path: str):
    """The bounds choice may be empty; None is a legal result."""
    _check_attrs(ctx, el, path)
    cur = _Cursor(ctx, el, path)
    first = cur.peek()
    if first is None:
        return None
    local = _local(first.tag)
    result = _BAD
    if local == "horizon":
        h = cur.take("horizon")
        result = Horizon(_read_text(h))
    elif local == "circularBounds":
        c = cur.take("circularBounds")
        inner = _Cursor(ctx, c, cur.last_path)
        centre = radius = _BAD
        centre_el = inner.require("centre")
        if centre_el is not None:
            centre = _read_physical(ctx, centre_el, inner.last_path)
        radius_el = inner.require("radius")
        if radius_el is not None:
            radius = _read_distance(ctx, radius_el, inner.last_path)
        inner.done()
        if centre is not _BAD and radius is not _BAD:
            result = CircularBounds(centre, radius)
    elif local == "rectangularBounds":
        r = cur.take("rectangularBounds")
        inner = _Cursor(ctx, r, cur.last_path)
        tl = br = _BAD
        tl_el = inner.require("topLeft")
        if tl_el is not None:
            tl = _read_physical(ctx, tl_el, inner.last_path)
        br_el = inner.require("bottomRight")
        if br_el is not None:
            br = _read_physical(ctx, br_el, inner.last_path)
        inner.done()
        if tl is not _BAD and br is not _BAD:
            result = RectangularBounds(tl, br)
    else:
        cur.consume()
        ctx.fail(f"{path}/{local}", "choice", "not a bounds form")
    if cur.peek() is not None:
        extra = cur.consume()
        ctx.fail(f"{path}/{_local(extra.tag)}", "choice", "multiple bounds forms")
        return _BAD
    return result


def _read_region(ctx: _Ctx, el: ET.Element, path: str):
    _check_attrs(ctx, el, path)
    cur = _Cursor(ctx, el, path)
    dp = bounds = _BAD
    dp_el = cur.require("distinguishedPoint")
    if dp_el is not None:
        dp = _read_physical(ctx, dp_el, cur.last_path)
    bounds_el = cur.require("bounds")
    if bounds_el is not None:
        bounds = _read_bounds(ctx, bounds_el, cur.last_path)
    cur.done()
    if dp is _BAD or bounds is _BAD:
        return _BAD
    return Region(dp, bounds)


def _read_information(ctx: _Ctx, el: ET.Element, path: str):
    _check_attrs(ctx, el, path)
    cur = _Cursor(ctx, el, path)
    info = []
    while (i := cur.take("info", indexed=True)) is not None:
        info.append(_read_text(i))
    links = []
    while (l := cur.take("link", indexed=True)) is not None:
        links.append(_read_text(l))
    cur.done()
    return Information(tuple(info), tuple(links))


def _read_classification(ctx: _Ctx, el: ET.Element, path: str):
    _check_attrs(ctx, el, path)
    cur = _Cursor(ctx, el, path)
    types = []
    while (t := cur.take("classificationType", indexed=True)) is not None:
        types.append(_read_text(t))
    cur.done()
    if not types:
        ctx.fail(
            f"{path}/classificationType", "minOccurs", "at least one type required"
        )
        return _BAD
    return Classification(tuple(types))


# (local name, attribute on Address, pattern-checked)
_ADDRESS_FIELDS = (
    ("nameNumber", "name_number", False),
    ("street", "street", False),
    ("town", "town", False),
    ("county", "county", False),
    ("postCode", "post_code", False),
    ("webAddress", "web_address", False),
    ("email", "email", True),
)


def _read_address(ctx: _Ctx, el: ET.Element, path: str):
    _check_attrs(ctx, el, path)
    cur = _Cursor(ctx, el, path)
    order = {local: i for i, (local, _, _) in enumerate(_ADDRESS_FIELDS)}
    fields: dict[str, str] = {}
    last = -1
    seen: set[int] = set()
    bad = False
    while (nxt := cur.peek()) is not None:
        local = _local(nxt.tag)
        if local not in order:
            cur.consume()
            ctx.fail(f"{path}/{local}", "unexpected", "not an address field")
            bad = True
            continue
        taken = cur.take(local)
        idx = order[local]
        if idx in seen:
            ctx.fail(cur.last_path, "maxOccurs", f"{local} appears more than once")
            bad = True
            continue
        if idx < last:
            ctx.fail(cur.last_path, "sequence", f"{local} out of schema order")
            bad = True
            continue
        seen.add(idx)
        last = idx
        value = _read_text(taken)
        _, attr, patterned = _ADDRESS_FIELDS[idx]
        if patterned and _EMAIL_RE.fullmatch(value) is None:
            ctx.fail(
                cur.last_path, "pattern", f"email {value!r} lacks '@' or a domain dot"
            )
            bad = True
            continue
        fields[attr] = value
    return _BAD if bad else Address(**fields)


def _read_classified(ctx: _Ctx, el: ET.Element, path: str):
    _check_attrs(ctx, el, path)
    cur = _Cursor(ctx, el, path)
    bad = False
    address = product = None
    al_el = cur.take("addressLocation")
    if al_el is not None:
        inner = _Cursor(ctx, al_el, cur.last_path)
        pl_el = inner.take("productLocation")
        if pl_el is not None:
            pcur = _Cursor(ctx, pl_el, inner.last_path)
            open_t = close_t = _BAD
            open_el = pcur.require("openTime")
            if open_el is not None:
                open_t = _read_time_of_day(ctx, open_el, pcur.last_path)
            close_el = pcur.require("closeTime")
            if close_el is not None:
                close_t = _read_time_of_day(ctx, close_el, pcur.last_path)
            pcur.done()
            if open_t is _BAD or close_t is _BAD:
                bad = True
            else:
                product = (open_t, close_t)
        addr_el = inner.require("address")
        if addr_el is None:
            bad = True
        else:
            address = _read_address(ctx, addr_el, inner.last_path)
            if address is _BAD:
                bad = True
        inner.done()
    classifications = []
    while (c := cur.take("classification", indexed=True)) is not None:
        cl = _read_classification(ctx, c, cur.last_path)
        if cl is _BAD:
            bad = True
        else:
            classifications.append(cl)
    desc_el = cur.require("description")
    description = _read_text(desc_el) if desc_el is not None else ""
    if desc_el is None:
        bad = True
    cur.done()
    if bad:
        return _BAD
    cls_tuple = tuple(classifications)
    if al_el is None:
        return ClassifiedLocation(cls_tuple, description)
    if product is None:
        return AddressLocation(cls_tuple, description, address)
    return ProductLocation(cls_tuple, description, address, product[0], product[1])


def _read_symbolic(ctx: _Ctx, el: ET.Element, path: str, depth: int = 0):
    _check_attrs(ctx, el, path)
    cur = _Cursor(ctx, el, path)
    bad = False
    subtype = None
    first = cur.peek()
    if first is not None:
        local = _local(first.tag)
        if local == "classifiedLocation":
            taken = cur.take(local)
            subtype = _read_classified(ctx, taken, cur.last_path)
            if subtype is _BAD:
                subtype, bad = None, True
        elif local == "landmark":
            subtype = Landmark(_read_text(cur.take(local)))
        elif local == "district":
            subtype = District(_read_text(cur.take(local)))
    info_el = cur.require("information")
    information = Information()
    if info_el is None:
        bad = True
    else:
        information = _read_information(ctx, info_el, cur.last_path)
        if information is _BAD:
            information, bad = Information(), True
    region_el = cur.require("region")
    region = Region(PhysicalLocation())
    if region_el is None:
        bad = True
    else:
        region = _read_region(ctx, region_el, cur.last_path)
        if region is _BAD:
            region, bad = Region(PhysicalLocation()), True
    locales = []
    while (loc_el := cur.take("locale", indexed=True)) is not None:
        loc = _read_locale(ctx, loc_el, cur.last_path, depth + 1)
        if loc is _BAD:
            bad = True
        else:
            locales.append(loc)
    fixed_el = cur.require("fixed")
    fixed = True
    if fixed_el is None:
        bad = True
    else:
        fixed = _read_boolean(ctx, fixed_el, cur.last_path)
        if fixed is _BAD:
            fixed, bad = True, True
    cur.done()
    if bad:
        return _BAD
    return SymbolicLocation(information, region, subtype, tuple(locales), fixed)


def _read_locale(ctx: _Ctx, el: ET.Element, path: str, depth: int = 0):
    if depth == _LOCALE_DEPTH_BOUND:
        ctx.warn(f"{path}: locale nesting deeper than {_LOCALE_DEPTH_BOUND}")
    _check_attrs(ctx, el, path)
    cur = _Cursor(ctx, el, path)
    bad = False
    parent = None
    # exact matching: a same-name element outside the namespace falls
    # through to the wildcard tail instead of being a violation
    parent_el = cur.take("parent", exact=True)
    if parent_el is not None:
        parent = _read_locale(ctx, parent_el, cur.last_path, depth + 1)
        if parent is _BAD:
            parent, bad = None, True
    classifications = []
    while (c := cur.take("classification", indexed=True, exact=True)) is not None:
        cl = _read_classification(ctx, c, cur.last_path)
        if cl is _BAD:
            bad = True
        else:
            classifications.append(cl)
    contents = []
    while (s := cur.take("contents", indexed=True, exact=True)) is not None:
        sl = _read_symbolic(ctx, s, cur.last_path, depth + 1)
        if sl is _BAD:
            bad = True
        else:
            contents.append(sl)
    neighbours = []
    while (n := cur.take("neighbours", indexed=True, exact=True)) is not None:
        nb = _read_locale(ctx, n, cur.last_path, depth + 1)
        if nb is _BAD:
            bad = True
        else:
            neighbours.append(nb)
    extensions = []
    while cur.peek() is not None:
        ext = cur.consume()
        ext.tail = None  # the fragment string must not drag document whitespace
        extensions.append(ET.tostring(ext, encoding="unicode"))
    if bad:
        return _BAD
    return Locale(
        parent,
        tuple(classifications),
        tuple(contents),
        tuple(neighbours),
        tuple(extensions),
    )


def _read_where(ctx: _Ctx, el: ET.Element, path: str):
    ok = _check_attrs(ctx, el, path, allowed=("name", "glossURN"))
    name = el.get("name")
    urn = el.get("glossURN")
    cur = _Cursor(ctx, el, path)
    payload = None
    bad = not ok
    first = cur.peek()
    if first is not None:
        local = _local(first.tag)
        if local == "symbolicLocation":
            payload = _read_symbolic(ctx, cur.take(local), cur.last_path)
        elif local == "physicalLocation":
            payload = _read_physical(ctx, cur.take(local), cur.last_path)
        elif local == "region":
            payload = _read_region(ctx, cur.take(local), cur.last_path)
        elif local == "locale":
            payload = _read_locale(ctx, cur.take(local), cur.last_path)
        else:
            cur.consume()
            ctx.fail(f"{path}/{local}", "choice", "not a Where payload")
            bad = True
        if payload is _BAD:
            payload, bad = None, True
        if cur.peek() is not None:
            extra = cur.consume()
            ctx.fail(
                f"{path}/{_local(extra.tag)}", "choice", "multiple Where payloads"
            )
            bad = True
    return _BAD if bad else Where(payload, name, urn)


# (local name, keyword on Observation, reader)
_OBS_OPTIONAL = (
    ("altitude", "altitude", lambda ctx, el, p: _read_quantity(
        ctx, el, p, Altitude, AltitudeUnit, AltitudeUnit.METRES, False, "altitude")),
    ("speed", "speed", lambda ctx, el, p: _read_quantity(
        ctx, el, p, Speed, SpeedUnit, SpeedUnit.KNOTS, True, "speed")),
    ("course", "course", lambda ctx, el, p: _read_ranged_double(
        ctx, el, p, 0.0, 360.0, "course")),
    ("magneticVariation", "magnetic_variation", lambda ctx, el, p: _read_ranged_double(
        ctx, el, p, 0.0, 360.0, "magneticVariation")),
    ("satellitesVisible", "satellites_visible", _read_sat_count),
    ("PDOP", "pdop", _read_double),
    ("HDOP", "hdop", _read_double),
    ("VDOP", "vdop", _read_double),
    ("HPE", "hpe", _read_double),
    ("VPE", "vpe", _read_double),
)
_OBS_INDEX = {local: i for i, (local, _, _) in enumerate(_OBS_OPTIONAL)}


def _read_observation(ctx: _Ctx, el: ET.Element, path: str):
    _check_attrs(ctx, el, path)
    cur = _Cursor(ctx, el, path)
    bad = False
    t = where = _BAD
    t_el = cur.require("timeOfObservation")
    if t_el is not None:
        t = _read_datetime(ctx, t_el, cur.last_path)
    where_el = cur.require("where")
    if where_el is not None:
        where = _read_where(ctx, where_el, cur.last_path)
    fields = {}
    last = -1
    seen: set[int] = set()
    while (nxt := cur.peek()) is not None:
        local = _local(nxt.tag)
        if local not in _OBS_INDEX:
            cur.consume()
            if local in ("timeOfObservation", "where"):
                ctx.fail(f"{path}/{local}", "maxOccurs", f"{local} appears more than once")
            else:
                ctx.fail(f"{path}/{local}", "unexpected", "not an observation field")
            bad = True
            continue
        taken = cur.take(local)
        idx = _OBS_INDEX[local]
        if idx in seen:
            ctx.fail(cur.last_path, "maxOccurs", f"{local} appears more than once")
            bad = True
            continue
        if idx < last:
            ctx.fail(cur.last_path, "sequence", f"{local} out of schema order")
            bad = True
            continue
        seen.add(idx)
        last = idx
        _, attr, reader = _OBS_OPTIONAL[idx]
        value = reader(ctx, taken, cur.last_path)
        if value is _BAD:
            bad = True
        else:
            fields[attr] = value
    if bad or t is _BAD or where is _BAD:
        return _BAD
    return Observation(time_of_observation=t, where=where, **fields)


def _read_event(ctx: _Ctx, root: ET.Element):
    path = "/locationEvent"
    _check_attrs(ctx, root, path)
    cur = _Cursor(ctx, root, path)
    bad = False
    event_id = _BAD
    id_el = cur.require("ID")
    if id_el is not None:
        event_id = _read_id(ctx, id_el, cur.last_path)
    steps: list[ProcessingStep] = []
    ps_el = cur.require("processingSequence")
    if ps_el is None:
        bad = True
    else:
        ps_cur = _Cursor(ctx, ps_el, cur.last_path)
        while (step_el := ps_cur.take("processingStep", indexed=True)) is not None:
            step_cur = _Cursor(ctx, step_el, ps_cur.last_path)
            when = _BAD
            when_el = step_cur.require("dateTime")
            if when_el is not None:
                when = _read_datetime(ctx, when_el, step_cur.last_path)
            desc_el = step_cur.require("description")
            step_cur.done()
            if when is _BAD or desc_el is None:
                bad = True
            else:
                steps.append(ProcessingStep(when, _read_text(desc_el)))
        ps_cur.done()
    observations: list[Observation] = []
    count = 0
    while (obs_el := cur.take("observation", indexed=True)) is not None:
        count += 1
        obs = _read_observation(ctx, obs_el, cur.last_path)
        if obs is _BAD:
            bad = True
        else:
            observations.append(obs)
    if count == 0:
        ctx.fail(f"{path}/observation", "minOccurs", "at least one observation required")
        bad = True
    cur.done()
    if bad or event_id is _BAD:
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
    if root.tag != f"{{{NS}}}locationEvent":
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


def _qualify(el: ET.Element):
    """Push namespace-less fragment tags into the wire namespace."""
    if not el.tag.startswith("{"):
        el.tag = f"{{{NS}}}{el.tag}"
        for child in el:
            _qualify(child)


def parse_where(fragment) -> Where:
    """Read a standalone Where (or bare payload) fragment.

    Namespace-less fragments are accepted for convenience and read as if
    they lived in the wire namespace.
    """
    if isinstance(fragment, str):
        data = fragment.encode("utf-8")
    else:
        data = bytes(fragment)
    try:
        root = ET.fromstring(data)
    except ET.ParseError as e:
        raise NotWellFormed(str(e)) from None
    if not root.tag.startswith("{"):
        _qualify(root)
    ctx = _Ctx(strict=True)
    local = _local(root.tag)
    if root.tag != f"{{{NS}}}{local}":
        ctx.fail(f"/{local}", "namespace", f"fragment not in {NS}")
    if local == "where":
        return _read_where(ctx, root, "/where")
    readers = {
        "symbolicLocation": _read_symbolic,
        "physicalLocation": _read_physical,
        "region": _read_region,
        "locale": _read_locale,
    }
    if local in readers:
        return Where(readers[local](ctx, root, f"/{local}"))
    raise SchemaViolation(f"/{local}", "unexpected", "not a Where fragment")


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
