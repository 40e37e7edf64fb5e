"""Interaction resources and their couplings.

Surfaces, instruments, actuators and sensors can attach to information
content; surfaces can also couple to each other, either by hand or by a
proximity rule over a topology.  Attribute and property axes are carried
as metadata only: nothing here infers modalities from them.

CouplingState is a pure value.  Every transition returns a new state, so
callers snapshot freely and a registry wrapping one needs a single-writer
discipline and nothing else.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Optional, Union

from .errors import SpecificityMismatch
from .geo import distance_in_metres, pairs_within, resolved_point
from .model import (
    Actor,
    CompassDirection,
    Distance,
    Gazetteer,
    Id,
    Information,
    Where,
)

__all__ = [
    "Role",
    "SocialUse",
    "Solidity",
    "Rigidity",
    "Opacity",
    "OrdinalScore",
    "SurfaceAttrs",
    "SurfaceProps",
    "InstrumentAttrs",
    "InstrumentProps",
    "Generic",
    "Specific",
    "Genericity",
    "InteractionResource",
    "Actuator",
    "Sensor",
    "ActionSurface",
    "ObservationSurface",
    "InformationContent",
    "RawContent",
    "Content",
    "Couplable",
    "Placement",
    "Topology",
    "CouplingState",
    "CouplingDegree",
    "Compatibility",
    "CompatibilityContext",
    "couple",
    "decouple",
    "couple_surfaces",
    "decouple_surfaces",
    "coupling_degree",
    "is_time_multiplexed",
    "proximity_coupling",
    "classify_compatibility",
]


class Role(Enum):
    SURFACE = "surface"
    INSTRUMENT = "instrument"


class SocialUse(Enum):
    PUBLIC = "public"
    PRIVATE = "private"


class Solidity(Enum):
    SOLID = "solid"
    FLUID = "fluid"
    NEBULOUS = "nebulous"


class Rigidity(Enum):
    RIGID = "rigid"
    FLEXIBLE = "flexible"


class Opacity(Enum):
    OPAQUE = "opaque"
    TRANSPARENT = "transparent"


class OrdinalScore(Enum):
    """Three-step scale for instrument properties; compares by rank."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3

    def __lt__(self, other):
        if isinstance(other, OrdinalScore):
            return self.value < other.value
        return NotImplemented


@dataclass(frozen=True, slots=True)
class SurfaceAttrs:
    shape: Optional[str] = None
    size: Optional[str] = None
    weight: Optional[str] = None
    material: Optional[str] = None
    color: Optional[str] = None
    texture: Optional[str] = None
    social_use: Optional[SocialUse] = None


@dataclass(frozen=True, slots=True)
class SurfaceProps:
    solidity: Optional[Solidity] = None
    rigidity: Optional[Rigidity] = None
    opacity: Optional[Opacity] = None
    mobile: Optional[bool] = None
    light: Optional[bool] = None
    small: Optional[bool] = None
    writable: Optional[bool] = None
    erasable: Optional[bool] = None
    heterogeneous: Optional[bool] = None
    refractive: Optional[bool] = None
    reflexive: Optional[bool] = None
    reachable: Optional[bool] = None


@dataclass(frozen=True, slots=True)
class InstrumentAttrs:
    shape: Optional[str] = None
    size: Optional[str] = None
    weight: Optional[str] = None
    material: Optional[str] = None
    social_use: Optional[SocialUse] = None


@dataclass(frozen=True, slots=True)
class InstrumentProps:
    precision: Optional[OrdinalScore] = None
    stability: Optional[OrdinalScore] = None
    manipulability: Optional[OrdinalScore] = None


@dataclass(frozen=True, slots=True)
class Generic:
    pass


@dataclass(frozen=True, slots=True)
class Specific:
    """Usable with exactly one content class (a face-shaped mask, say)."""

    content_class: str

    def __post_init__(self):
        if not self.content_class:
            raise ValueError("a specific resource names its content class")


Genericity = Union[Generic, Specific]


@dataclass(frozen=True, slots=True)
class InteractionResource:
    """A mediator between actors; serves as instrument and/or surface.
    Hashes as its id's value alone, which agrees with ``==``: resources
    that share an id collide, and ``==`` tells them apart."""

    id: Id
    roles: frozenset[Role]
    surface_attrs: Optional[SurfaceAttrs] = None
    surface_props: Optional[SurfaceProps] = None
    instrument_attrs: Optional[InstrumentAttrs] = None
    instrument_props: Optional[InstrumentProps] = None
    genericity: Genericity = Generic()
    owner: Optional[Actor] = None

    def __post_init__(self):
        roles = frozenset(self.roles)
        if not roles:
            raise ValueError("a resource serves as instrument and/or surface")
        object.__setattr__(self, "roles", roles)

    def __hash__(self):
        return hash(self.id.value)  # as hash(self.id), one call shorter


@dataclass(frozen=True, slots=True)
class Actuator:
    """Modifies resource state on an actor's behalf (a finger, a motor)."""

    id: Id
    description: str = ""


@dataclass(frozen=True, slots=True)
class Sensor:
    """Observes resource state on an actor's behalf."""

    id: Id
    description: str = ""


@dataclass(frozen=True, slots=True)
class ActionSurface:
    # named sub-resource only; sub-surface geometry is not modeled
    parent: Id
    name: str = ""


@dataclass(frozen=True, slots=True)
class ObservationSurface:
    parent: Id
    name: str = ""


@dataclass(frozen=True, slots=True)
class InformationContent:
    id: Id
    payload: Information = Information()
    content_class: str = ""
    sources: tuple[Id, ...] = ()


@dataclass(frozen=True, slots=True)
class RawContent:
    """Content as observed from surfaces; always cites where it came from."""

    id: Id
    sources: tuple[Id, ...]
    payload: Information = Information()
    content_class: str = ""

    def __post_init__(self):
        if not self.sources:
            raise ValueError("raw content cites at least one source surface")


Content = Union[InformationContent, RawContent]
Couplable = Union[InteractionResource, Actuator, Sensor]


@dataclass(frozen=True, slots=True)
class Placement:
    where: Where
    orientation: Optional[CompassDirection] = None


class Topology:
    """Placement of entities in one reference frame, at most one each,
    listed in the order of their last ``place`` (constructor order for the
    rest).  ``==``, ``hash``, ``repr`` and pickling go by that tuple.

    Versions share one dict of ``entity -> (seq, entity, Placement)`` by
    shallow binding (Baker, "Shallow binding makes functional arrays
    fast", 1991): the newest version holds it, and each older one keeps an
    undo record pointing at the version made from it; ``seq`` numbers the
    entry's last ``place``.  ``place`` is O(1) when each version is moved
    once, and hashes only the moved entity.  Reading a version k moves
    back costs O(k), since the read reroots the dict to it, and
    ``placements`` sorts on each read.  Reads mutate the shared dict, so
    each family of versions shares one lock, held by every read."""

    __slots__ = ("_lock", "_next", "_data", "__weakref__")

    def __init__(self, placements: tuple[tuple[object, Placement], ...] = ()):
        index = {}
        for seq, (entity, placement) in enumerate(placements):
            if entity in index:
                raise ValueError(f"{entity!r} placed twice")
            index[entity] = (seq, entity, placement)
        self._lock = threading.Lock()
        self._next = len(index)  # the seq of the next place
        self._data = index  # the dict while this version holds it, else an undo record

    def _reroot(self) -> dict:
        """Move the shared dict to this version and return it.  Call with
        the lock held."""
        path = []
        version = self
        while isinstance(version._data, tuple):
            path.append(version)
            version = version._data[2]
        index = version._data
        for older in reversed(path):  # undo the newest change first
            entity, previous, newer = older._data
            current = index.pop(entity, None)
            if previous is not None:
                index[entity] = previous
            newer._data = (entity, current, older)
            older._data = index
        return index

    def place(self, entity, where: Where, orientation=None) -> "Topology":
        moved = object.__new__(Topology)
        moved._lock, moved._next = self._lock, self._next + 1
        with self._lock:
            index = self._reroot()
            previous = index.get(entity)
            index[entity] = (self._next, entity, Placement(where, orientation))
            self._data = (entity, previous, moved)
            moved._data = index
        return moved

    def placement_of(self, entity) -> Optional[Placement]:
        with self._lock:
            entry = self._reroot().get(entity)
        return None if entry is None else entry[2]

    def _entries(self) -> list:
        """This version's ``(seq, entity, Placement)`` entries, unordered."""
        with self._lock:
            return list(self._reroot().values())

    @property
    def placements(self) -> tuple[tuple[object, Placement], ...]:
        # each seq is unique within a version, so no two entities are compared
        return tuple(entry[1:] for entry in sorted(self._entries()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.placements == other.placements

    def __hash__(self):
        return hash(self.placements)

    def __repr__(self):
        return f"Topology(placements={self.placements!r})"

    def __reduce__(self):
        return Topology, (self.placements,)


def _pair(a: InteractionResource, b: InteractionResource) -> frozenset:
    if a == b:
        raise ValueError("a surface cannot couple to itself")
    return frozenset((a, b))


@dataclass(frozen=True, slots=True)
class CouplingState:
    """Who is attached to what, with rule-added surface pairs kept apart
    from manual ones so the proximity rule never clobbers a manual
    coupling."""

    content_couplings: frozenset = frozenset()
    manual_surface_couplings: frozenset = frozenset()
    proximity_surface_couplings: frozenset = frozenset()

    @property
    def surface_couplings(self) -> frozenset:
        return self.manual_surface_couplings | self.proximity_surface_couplings


def couple(state: CouplingState, resource: Couplable, content: Content) -> CouplingState:
    """Attach a resource to content; a no-op if already attached."""
    if isinstance(resource, InteractionResource) and isinstance(
        resource.genericity, Specific
    ):
        if resource.genericity.content_class != content.content_class:
            raise SpecificityMismatch(
                f"resource is specific to {resource.genericity.content_class!r},"
                f" content is {content.content_class!r}"
            )
    return replace(
        state, content_couplings=state.content_couplings | {(resource, content)}
    )


def decouple(state: CouplingState, resource: Couplable, content: Content) -> CouplingState:
    return replace(
        state, content_couplings=state.content_couplings - {(resource, content)}
    )


def couple_surfaces(
    state: CouplingState, a: InteractionResource, b: InteractionResource
) -> CouplingState:
    for s in (a, b):
        if Role.SURFACE not in s.roles:
            raise ValueError(f"{s.id.key} has no surface role")
    return replace(
        state,
        manual_surface_couplings=state.manual_surface_couplings | {_pair(a, b)},
    )


def decouple_surfaces(
    state: CouplingState, a: InteractionResource, b: InteractionResource
) -> CouplingState:
    # only manual pairs; rule-added ones belong to proximity_coupling
    return replace(
        state,
        manual_surface_couplings=state.manual_surface_couplings - {_pair(a, b)},
    )


@dataclass(frozen=True, slots=True)
class CouplingDegree:
    actuators: int = 0
    sensors: int = 0
    instruments: int = 0
    surfaces: int = 0

    @property
    def total(self) -> int:
        return self.actuators + self.sensors + self.instruments + self.surfaces


def coupling_degree(state: CouplingState, content: Content) -> CouplingDegree:
    """How many actuators, sensors, instruments and surfaces are attached
    to this content right now.  Each resource lands in exactly one class;
    a dual-role resource counts as an instrument."""
    actuators = sensors = instruments = surfaces = 0
    for resource, attached in state.content_couplings:
        if attached.id != content.id:
            continue
        if isinstance(resource, Actuator):
            actuators += 1
        elif isinstance(resource, Sensor):
            sensors += 1
        elif Role.INSTRUMENT in resource.roles:
            instruments += 1
        else:
            surfaces += 1
    return CouplingDegree(actuators, sensors, instruments, surfaces)


def is_time_multiplexed(state: CouplingState, content: Content) -> bool:
    """At most one instrument attached at a time; more means the coupling
    is space-multiplexed."""
    return coupling_degree(state, content).instruments <= 1


def proximity_coupling(
    state: CouplingState,
    topology: Topology,
    threshold: Distance,
    gazetteer: Gazetteer | None = None,
) -> CouplingState:
    """Recompute rule-added surface couplings from placement distances.

    Every pair of placed surface-role resources within the threshold gets
    coupled; rule-added pairs now beyond it drop out.  Manual couplings
    are untouched, and a second application with the same topology is a
    no-op.
    """
    reach = distance_in_metres(threshold)
    placed = [
        (entity, resolved_point(placement.where, gazetteer))
        for _, entity, placement in topology._entries()
        if isinstance(entity, InteractionResource) and Role.SURFACE in entity.roles
    ]
    pairs = frozenset(
        frozenset((placed[i][0], placed[j][0]))  # not _pair: entities are unique
        for i, j in pairs_within([point for _, point in placed], reach)
    )
    return replace(state, proximity_surface_couplings=pairs)


class Compatibility(Enum):
    COMPLEMENTARY = "complementary"
    REDUNDANT = "redundant"
    EQUIVALENT = "equivalent"
    ASSIGNED = "assigned"
    INCOMPATIBLE = "incompatible"


@dataclass(frozen=True, slots=True)
class CompatibilityContext:
    """What each surface is for: task sets, exclusive role assignments,
    and the current couplings (redundancy is about the here-and-now)."""

    tasks: tuple[tuple[InteractionResource, frozenset[str]], ...] = ()
    assigned: tuple[tuple[InteractionResource, str], ...] = ()
    state: CouplingState = field(default_factory=CouplingState)

    @classmethod
    def of(
        cls,
        tasks: Mapping[InteractionResource, frozenset[str]] | None = None,
        assigned: Mapping[InteractionResource, str] | None = None,
        state: CouplingState | None = None,
    ) -> "CompatibilityContext":
        return cls(
            tuple((s, frozenset(ts)) for s, ts in (tasks or {}).items()),
            tuple((assigned or {}).items()),
            state if state is not None else CouplingState(),
        )

    def task_set(self, surface: InteractionResource) -> frozenset[str]:
        for candidate, tasks in self.tasks:
            if candidate == surface:
                return tasks
        return frozenset()

    def assignment(self, surface: InteractionResource) -> Optional[str]:
        for candidate, role in self.assigned:
            if candidate == surface:
                return role
        return None


def _share_content(state: CouplingState, a: InteractionResource, b: InteractionResource) -> bool:
    attached_a = {c.id for r, c in state.content_couplings if r == a}
    attached_b = {c.id for r, c in state.content_couplings if r == b}
    return bool(attached_a & attached_b)


def classify_compatibility(
    s1: InteractionResource,
    s2: InteractionResource,
    declarations: CompatibilityContext,
) -> Compatibility:
    """First matching rule wins: assigned, equivalent, redundant,
    complementary, else incompatible."""
    a1 = declarations.assignment(s1)
    a2 = declarations.assignment(s2)
    if (a1 is not None or a2 is not None) and a1 != a2:
        return Compatibility.ASSIGNED
    t1 = declarations.task_set(s1)
    t2 = declarations.task_set(s2)
    if t1 and t1 == t2:
        return Compatibility.EQUIVALENT
    if t1 & t2 and _share_content(declarations.state, s1, s2):
        return Compatibility.REDUNDANT
    if t1 and t2 and not (t1 & t2):
        return Compatibility.COMPLEMENTARY
    return Compatibility.INCOMPATIBLE
