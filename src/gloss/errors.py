"""Exception hierarchy shared by all gloss modules."""

from __future__ import annotations


class GlossError(Exception):
    """Base class for all errors raised by this package.  A reader of outside
    bytes raises nothing else but OSError."""


class BadFrame(GlossError, EOFError):
    """A length-prefixed frame is torn or announces more than the cap."""


class BadInput(GlossError, ValueError):
    """A manifest, policy line, ID key or gazetteer line cannot be read."""


class OutOfRange(GlossError):
    """A constrained scalar fell outside its closed value space."""

    def __init__(self, kind, value, interval):
        self.kind = kind
        self.value = value
        self.interval = interval
        super().__init__(f"{kind} value {value!r} outside {interval}")


class NotInteger(GlossError):
    """An integer-valued scalar was given a fractional value."""


class PatternMismatch(GlossError):
    """An ID value violated its lexical pattern."""


class UnitKindMismatch(GlossError):
    """Conversion target unit belongs to a different quantity kind."""


class CoincidentPoints(GlossError):
    """Bearing is undefined between two identical coordinates."""


class UnsupportedBounds(GlossError):
    """Geometry was requested on bounds it cannot interpret (e.g. a horizon)."""


class MissingCoordinate(GlossError):
    """A physical location needed for geometry carries no coordinate."""


class Unresolvable(GlossError):
    """A Where could not be resolved to a region."""


class EmptyWhere(GlossError):
    """The Where carries no variant payload."""


class NotWellFormed(GlossError):
    """The byte sequence is not well-formed XML."""


class SchemaViolation(GlossError):
    """A document violated the wire schema.

    Carries the path of the offending node and the violated rule so
    callers can report precisely what failed.
    """

    def __init__(self, path: str, rule: str, detail: str = ""):
        self.path = path
        self.rule = rule
        self.detail = detail
        super().__init__(f"{path}: {rule}" + (f" ({detail})" if detail else ""))


class OutOfOrderObservation(GlossError):
    """A candidate observation predates the trail's last kept node."""


class EmptyInput(GlossError):
    """An operation that needs at least one element received none."""


class NoOrderExists(GlossError):
    """No visit order satisfies the requested constraints."""


class TooLarge(GlossError):
    """Input exceeds the hard cap placed on exhaustive searches."""


class UnknownEndpoint(GlossError):
    """A route endpoint is not a node of the trail."""


class SpecificityMismatch(GlossError):
    """A content-specific resource was coupled to content of another class."""


class UnknownSubject(GlossError):
    """No observations have been ingested for the queried ID."""


class SinkUnavailable(GlossError):
    """The forwarding sink refused the write."""
