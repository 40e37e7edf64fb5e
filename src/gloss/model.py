"""Core ontology types: identities, constrained scalars, quantities and the
Where hierarchy, plus gazetteer-backed region resolution.

Every type here is an immutable value; the wire nesting of subtype choices
is flattened into plain variant unions and subclass chains.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Union

from .errors import EmptyWhere, NotInteger, NotWellFormed, OutOfRange, PatternMismatch
from .errors import SchemaViolation, Unresolvable
from .temporal import TimeOfDay

__all__ = [
    "ScalarKind",
    "make_constrained",
    "IdKind",
    "Id",
    "make_id",
    "AltitudeUnit",
    "DistanceUnit",
    "SpeedUnit",
    "Altitude",
    "Distance",
    "Speed",
    "Information",
    "Classification",
    "Address",
    "LatLongCoordinate",
    "PhysicalLocation",
    "CircularBounds",
    "RectangularBounds",
    "Horizon",
    "SpatialBounds",
    "Region",
    "Landmark",
    "District",
    "ClassifiedLocation",
    "AddressLocation",
    "ProductLocation",
    "SymbolicLocation",
    "Locale",
    "Where",
    "ModeTransport",
    "Profile",
    "Activity",
    "ActorKind",
    "GlossObject",
    "Actor",
    "Artefact",
    "Conduit",
    "CompassDirection",
    "Keypoint",
    "Thoroughfare",
    "Junction",
    "Gazetteer",
    "resolve_region",
]


# ---------------------------------------------------------------------------
# Constrained scalars


class ScalarKind(Enum):
    """A constrained scalar: the value is its wire type name, ``bounds`` its
    closed interval and ``integral`` whether it takes whole numbers only."""

    LATITUDE = ("Latitude", -90.0, 90.0)
    LONGITUDE = ("Longitude", -180.0, 180.0)
    BEARING = ("Bearing", 0.0, 360.0)
    NON_NEGATIVE = ("NonNegativeDouble", 0.0, math.inf)
    SAT_COUNT = ("SatCount", 0, 12)

    def __new__(cls, type_name: str, lo: float, hi: float):
        member = object.__new__(cls)
        member._value_ = type_name
        # plain attributes, so a check reads them without hashing the member
        member.bounds = (lo, hi)
        member.integral = isinstance(lo, int)
        return member


# the members as module globals: reading one off the Enum class is a slow lookup
_LATITUDE, _LONGITUDE, _BEARING, _NON_NEGATIVE, _SAT_COUNT = ScalarKind


def make_constrained(kind: ScalarKind, value: float) -> float:
    """Validate *value* against the closed interval of *kind*.

    Returns the value unchanged (as int for SAT_COUNT).  Raises OutOfRange
    outside the interval, NotInteger for a fractional satellite count.
    """
    lo, hi = kind.bounds
    if kind.integral:
        if isinstance(value, float) and not value.is_integer():
            raise NotInteger(f"satellite count must be integral, got {value!r}")
        value = int(value)
    if not lo <= value <= hi:  # NaN fails both comparisons, hence rejected
        raise OutOfRange(kind.value, value, (lo, hi))
    return value


# ---------------------------------------------------------------------------
# Identities


class IdKind(Enum):
    BIT_STRING = "bitString"
    GUID = "GUID"
    PHONE = "phone"
    EMAIL = "email"


_PHONE_RE = re.compile(r"\+[0-9 ]*")
# at least one character before '@', at least one '.' in the domain
_EMAIL_RE = re.compile(r"[^@]+@[^.]+\..+")


@dataclass(frozen=True)
class Id:
    """Identity of a tracked person or artefact; an opaque, maybe-unique tag.
    Hashes as its value alone, which agrees with ``==``."""

    kind: IdKind
    value: str

    def __hash__(self):
        return hash(self.value)

    @property
    def key(self) -> str:
        return f"{self.kind.value}:{self.value}"


def make_id(kind: IdKind, value: str) -> Id:
    """Build a pattern-checked Id; phone and email enforce their lexicons."""
    if kind is IdKind.PHONE and _PHONE_RE.fullmatch(value) is None:
        raise PatternMismatch(f"phone must be '+' then digits/spaces: {value!r}")
    if kind is IdKind.EMAIL and _EMAIL_RE.fullmatch(value) is None:
        raise PatternMismatch(f"not an email address: {value!r}")
    return Id(kind, value)


# ---------------------------------------------------------------------------
# Quantities


class _Unit(Enum):
    """A unit of measure: the value is its wire name, ``factor`` its size in
    metres (in metres per second for a speed)."""

    def __new__(cls, wire_name: str, factor: float):
        member = object.__new__(cls)
        member._value_ = wire_name
        member.factor = factor
        return member


class AltitudeUnit(_Unit):
    METRES = ("M", 1.0)
    FEET = ("F", 0.3048)


class DistanceUnit(_Unit):
    M = ("m", 1.0)
    KM = ("km", 1000.0)
    MILES = ("miles", 1609.344)
    NAUTICAL_MILES = ("nautical miles", 1852.0)


class SpeedUnit(_Unit):
    M_PER_S = ("m/s", 1.0)
    KM_PER_H = ("km/h", 1000.0 / 3600.0)
    MILES_PER_H = ("miles/h", 1609.344 / 3600.0)
    KNOTS = ("knots", 1852.0 / 3600.0)


@dataclass(frozen=True)
class Altitude:
    """Height above the reference surface; may be negative."""

    value: float
    unit: AltitudeUnit = AltitudeUnit.METRES


@dataclass(frozen=True)
class Distance:
    value: float
    unit: DistanceUnit = DistanceUnit.M

    def __post_init__(self):
        make_constrained(_NON_NEGATIVE, self.value)


@dataclass(frozen=True)
class Speed:
    value: float
    unit: SpeedUnit = SpeedUnit.KNOTS

    def __post_init__(self):
        make_constrained(_NON_NEGATIVE, self.value)


# ---------------------------------------------------------------------------
# Space


@dataclass(frozen=True)
class Information:
    """Arbitrary annotations: free text plus links."""

    info: tuple[str, ...] = ()
    links: tuple[str, ...] = ()


@dataclass(frozen=True)
class Classification:
    types: tuple[str, ...]

    def __post_init__(self):
        if not self.types:
            raise ValueError("classification needs at least one type")


@dataclass(frozen=True)
class Address:
    name_number: Optional[str] = None
    street: Optional[str] = None
    town: Optional[str] = None
    county: Optional[str] = None
    post_code: Optional[str] = None
    web_address: Optional[str] = None
    email: Optional[str] = None

    def __post_init__(self):
        if self.email is not None and _EMAIL_RE.fullmatch(self.email) is None:
            raise PatternMismatch(f"not an email address: {self.email!r}")


@dataclass(frozen=True)
class LatLongCoordinate:
    """A 2-D point in degrees; the only concrete coordinate on the wire."""

    latitude: float
    longitude: float

    def __post_init__(self):
        make_constrained(_LATITUDE, self.latitude)
        make_constrained(_LONGITUDE, self.longitude)


@dataclass(frozen=True)
class PhysicalLocation:
    """A point; the coordinate is optional on the wire."""

    coordinate: Optional[LatLongCoordinate] = None


@dataclass(frozen=True)
class Horizon:
    """The region currently perceived by a user; opaque text, no geometry."""

    description: str


@dataclass(frozen=True)
class CircularBounds:
    centre: PhysicalLocation
    radius: Distance


@dataclass(frozen=True)
class RectangularBounds:
    top_left: PhysicalLocation
    bottom_right: PhysicalLocation


# The wire choice may be empty, hence None is a legal bounds payload.
SpatialBounds = Union[Horizon, CircularBounds, RectangularBounds, None]


@dataclass(frozen=True)
class Region:
    """A bounded fixed region: a distinguished point plus bounds.

    For circular bounds the distinguished point need not equal the centre.
    """

    distinguished_point: PhysicalLocation
    bounds: SpatialBounds = None


@dataclass(frozen=True)
class Landmark:
    name: str


@dataclass(frozen=True)
class District:
    name: str


@dataclass(frozen=True)
class ClassifiedLocation:
    """A symbolic location annotated with classifications."""

    classifications: tuple[Classification, ...] = ()
    description: str = ""


@dataclass(frozen=True)
class AddressLocation(ClassifiedLocation):
    address: Address = Address()


@dataclass(frozen=True)
class ProductLocation(AddressLocation):
    """An address location where a service is available during open hours."""

    open_time: TimeOfDay = TimeOfDay(0.0)
    close_time: TimeOfDay = TimeOfDay(0.0)


SymbolicSubtype = Union[ClassifiedLocation, Landmark, District, None]


@dataclass(frozen=True)
class SymbolicLocation:
    """An entity, fixed or moveable, that may contain people, artefacts and
    other locations; occupies a region that may move with it."""

    information: Information = Information()
    region: Region = Region(PhysicalLocation())
    subtype: SymbolicSubtype = None
    locales: tuple["Locale", ...] = ()
    fixed: bool = True


@dataclass(frozen=True)
class Locale:
    """A logical grouping of symbolic locations.

    Immutable construction makes parent chains finite by construction.
    Each of ``extensions``, text or a parsed element, is held as _foreign
    writes it with its own namespaces, so spellings of one fragment are
    equal.  Broken text, or a character XML 1.0 cannot carry, raises
    NotWellFormed; an element in no namespace, which a canonical document
    reads as a wire element, SchemaViolation.
    """

    parent: Optional["Locale"] = None
    classifications: tuple[Classification, ...] = ()
    contents: tuple[SymbolicLocation, ...] = ()
    neighbours: tuple["Locale", ...] = ()
    extensions: tuple[str, ...] = ()

    def __post_init__(self):
        held = []
        for ext in self.extensions:
            if isinstance(ext, str):
                try:
                    ext = ET.fromstring(ext)
                except (ET.ParseError, ValueError) as e:
                    raise NotWellFormed(f"locale extension fragment: {e}") from None
            ns: dict = {}  # _foreign fills it before _qualified reads it
            held.append(_declare(ns, _foreign(ext, ns), 1 + len(_qualified(ext.tag, ns))))
            if bad := _NOT_XML_CHAR.search(held[-1]):  # only a hand-built element holds one
                raise NotWellFormed(f"locale extension fragment: {bad[0]!r} is no XML character")
        object.__setattr__(self, "extensions", tuple(held))


WherePayload = Union[SymbolicLocation, PhysicalLocation, Region, Locale, None]


@dataclass(frozen=True)
class Where:
    """A place: point, region, symbolic location or locale — or nothing.

    An empty Where (no payload) is legal on the wire and kept explicit here.
    """

    payload: WherePayload = None
    name: Optional[str] = None
    gloss_urn: Optional[str] = None


# ---------------------------------------------------------------------------
# Canonical text, shared with the wire writer (see its notes on `ns`).
# ElementTree's built-in prefixes are frozen, so that register_namespace
# elsewhere in the process cannot change canonical bytes.
_PREFIXES = {
    "http://www.w3.org/XML/1998/namespace": "xml",
    "http://www.w3.org/1999/xhtml": "html",
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#": "rdf",
    "http://schemas.xmlsoap.org/wsdl/": "wsdl",
    "http://www.w3.org/2001/XMLSchema": "xs",
    "http://www.w3.org/2001/XMLSchema-instance": "xsi",
    "http://purl.org/dc/elements/1.1/": "dc",
}
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
_TEXT = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"))
_ATTR = _TEXT + (('"', "&quot;"), ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;"))


def _escape(s: str, escapes=_TEXT) -> str:
    for char, reference in escapes:
        if char in s:
            s = s.replace(char, reference)
    return s


def _qualified(name: str, ns: dict) -> str:
    """`prefix:local` for a `{uri}local` name; other names pass unchanged."""
    if name[:1] != "{":
        return name
    uri, local = name[1:].rsplit("}", 1)
    prefix = ns.get(uri)
    if prefix is None:
        prefix = _PREFIXES.get(uri) or f"ns{len(ns)}"
        if prefix != "xml":  # bound by XML itself, never declared
            ns[uri] = prefix
    return f"{prefix}:{local}"


def _declare(ns: dict, written: str, cut: int) -> str:
    """`written` with the declarations of `ns` after the root's name, at `cut`."""
    if not ns:
        return written
    decls = sorted(ns.items(), key=lambda item: item[1])
    declared = "".join(f' xmlns:{p}="{_escape(uri, _ATTR)}"' for uri, p in decls)
    return written[:cut] + declared + written[cut:]


def _foreign(root: ET.Element, ns: dict) -> str:
    """An extension fragment's element, without its tail.  Written from an
    explicit stack, so any depth reads the same from any caller; names
    still get their prefixes in document order, tag before attributes;
    an element in no namespace raises SchemaViolation."""
    parts = []
    stack = [root]  # elements still to write, and strings: closing tags and tails
    while stack:
        el = stack.pop()
        if isinstance(el, str):
            parts.append(el)
            continue
        if el.tag[:1] != "{":
            raise SchemaViolation(el.tag, "namespace", "extension element in no namespace")
        tag = _qualified(el.tag, ns)
        attrs = "".join([f' {_qualified(k, ns)}="{_escape(v, _ATTR)}"' for k, v in el.items()])
        if not el.text and not len(el):
            parts.append(f"<{tag}{attrs} />")
            continue
        parts.append(f"<{tag}{attrs}>{_escape(el.text or '')}")
        stack.append(f"</{tag}>")
        for kid in reversed(el):
            stack += (_escape(kid.tail or ""), kid)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Universe


class ModeTransport(Enum):
    CAR = "Car"
    TRAIN = "Train"
    AEROPLANE = "Aeroplane"
    BICYCLE = "Bicycle"
    FOOT = "Foot"


@dataclass(frozen=True)
class Profile:
    """Per-person profile: transport mode plus free-form preferences."""

    mode: Optional[ModeTransport] = None
    preferences: tuple[tuple[str, str], ...] = ()

    @classmethod
    def from_mapping(cls, mode=None, preferences: Mapping[str, str] | None = None):
        items = tuple(sorted((preferences or {}).items()))
        return cls(mode=mode, preferences=items)


@dataclass(frozen=True)
class Activity:
    description: str


class ActorKind(Enum):
    NATURAL = "natural"
    ARTIFICIAL = "artificial"


@dataclass(frozen=True)
class GlossObject:
    """Any identity tracked within the fabric; always carries exactly one Id."""

    id: Id
    name: Optional[str] = None

    def __post_init__(self):
        if type(self) is GlossObject:
            raise TypeError("GlossObject is abstract; use Actor or Artefact")


@dataclass(frozen=True)
class Actor(GlossObject):
    kind: ActorKind = ActorKind.NATURAL
    profile: Optional[Profile] = None


@dataclass(frozen=True)
class Artefact(GlossObject):
    pass


@dataclass(frozen=True)
class Conduit(Artefact):
    """A distinguished artefact information flows through (PDA, phone, screen)."""

    associated_with: Optional[Id] = None


@dataclass(frozen=True)
class CompassDirection:
    """Bearing in degrees from True North."""

    bearing: float

    def __post_init__(self):
        make_constrained(_BEARING, self.bearing)


@dataclass(frozen=True)
class Keypoint:
    where: Where


@dataclass(frozen=True)
class Thoroughfare:
    keypoints: tuple[Keypoint, ...] = ()
    locales: tuple[Locale, ...] = ()


@dataclass(frozen=True)
class Junction:
    meets: frozenset[Thoroughfare]

    def __init__(self, meets: Iterable[Thoroughfare]):
        object.__setattr__(self, "meets", frozenset(meets))
        if len(self.meets) < 2:
            raise ValueError("a junction joins at least two thoroughfares")


# ---------------------------------------------------------------------------
# Gazetteer and region resolution


class Gazetteer:
    """Read-mostly name/URN -> SymbolicLocation map.

    Mutation happens by building a new instance from a whole map; lookups
    on a live instance never see partial updates.
    """

    def __init__(self, entries: Mapping[str, SymbolicLocation] | None = None):
        self._entries = dict(entries or {})

    def lookup(self, key: str | None) -> Optional[SymbolicLocation]:
        if key is None:
            return None
        return self._entries.get(key)

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def from_file(cls, path) -> "Gazetteer":
        """Load ``name<TAB>lat<TAB>lon[<TAB>radius_m]`` lines; '#' comments."""
        entries: dict[str, SymbolicLocation] = {}
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                try:  # three or four fields, or the unpacking fails
                    name, lat, lon, radius = parts if len(parts) == 4 else parts + ["0"]
                    lat, lon, radius = float(lat), float(lon), float(radius)
                except ValueError:
                    raise ValueError(f"bad gazetteer line: {raw!r}") from None
                point = PhysicalLocation(LatLongCoordinate(lat, lon))
                region = Region(point, CircularBounds(point, Distance(radius)))
                entries[name] = SymbolicLocation(region=region)
        return cls(entries)


def _region_is_bare(region: Region) -> bool:
    return region.distinguished_point.coordinate is None and region.bounds is None


def resolve_region(w: Where, gazetteer: Gazetteer | None = None) -> Region:
    """Resolve any Where to a Region.

    Points become degenerate circular regions of radius zero; symbolic
    locations fall back to a gazetteer lookup by name then URN when their
    own region carries nothing.  Locales have no geometry of their own.
    """
    payload = w.payload
    if payload is None:
        raise EmptyWhere("where has no payload")
    if isinstance(payload, Region):
        return payload
    if isinstance(payload, PhysicalLocation):
        if payload.coordinate is None:
            raise Unresolvable("physical location has no coordinate")
        return Region(payload, CircularBounds(payload, Distance(0.0)))
    if isinstance(payload, SymbolicLocation):
        if not _region_is_bare(payload.region):
            return payload.region
        if gazetteer is not None:
            for key in (w.name, w.gloss_urn):
                entry = gazetteer.lookup(key)
                if entry is not None and not _region_is_bare(entry.region):
                    return entry.region
        raise Unresolvable(
            f"symbolic location {w.name or w.gloss_urn or '<anonymous>'} has no region"
        )
    raise Unresolvable("a locale does not occupy a region")
