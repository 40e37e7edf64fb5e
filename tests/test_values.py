"""Values keep their fields in slots: no instance carries a ``__dict__`` or
takes a weak reference, and each survives pickle and deepcopy whole."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import weakref

import pytest

import gloss
from gloss import model, temporal, wire
from gloss.model import (
    Activity,
    Actor,
    ActorKind,
    Address,
    AddressLocation,
    Altitude,
    AltitudeUnit,
    Artefact,
    CircularBounds,
    Classification,
    ClassifiedLocation,
    CompassDirection,
    Conduit,
    Distance,
    DistanceUnit,
    District,
    Horizon,
    Id,
    IdKind,
    Information,
    Junction,
    Keypoint,
    Landmark,
    LatLongCoordinate,
    Locale,
    ModeTransport,
    PhysicalLocation,
    ProductLocation,
    Profile,
    RectangularBounds,
    Region,
    Speed,
    SpeedUnit,
    SymbolicLocation,
    Thoroughfare,
    Where,
)
from gloss.temporal import Period, SymbolicTime, TemporalRegion, Time, TimeOfDay
from gloss.wire import LocationEvent, Observation, ProcessingStep, ValidationReport, Violation

_ID = Id(IdKind.PHONE, "+447941615809")
_POINT = PhysicalLocation(LatLongCoordinate(56.34, -2.79))
_REGION = Region(_POINT, CircularBounds(_POINT, Distance(1.5, DistanceUnit.MILES)))
_CLASSIFIED = ClassifiedLocation((Classification(("pub", "inn")),), "the Central")
_LOCALE = Locale(
    Locale(),
    (Classification(("town",)),),
    (SymbolicLocation(subtype=Landmark("quad")),),
    extensions=('<x:tag xmlns:x="urn:x" a="1">text</x:tag>',),
)
_THOROUGHFARES = (Thoroughfare((Keypoint(Where(_POINT)),)), Thoroughfare(locales=(_LOCALE,)))
_PERIOD = Period(Time(0), Time(3_600_000))
_OBSERVATION = Observation(
    Time(1_000), Where(_REGION, "home", "urn:gloss:home"), Altitude(-3.0, AltitudeUnit.FEET),
    Speed(2.5), 90.0, 4.0, 7, 1.5,
)

# one instance of each value class in model, wire and temporal
SAMPLES = [
    _ID,
    Altitude(12.0),
    Distance(3.0),
    Speed(1.0, SpeedUnit.KM_PER_H),
    Information(("note",), ("http://example.org",)),
    Classification(("pub",)),
    Address("1", "North Street", email="a@b.cd"),
    LatLongCoordinate(56.34, -2.79),
    _POINT,
    Horizon("what I can see"),
    CircularBounds(_POINT, Distance(1.0)),
    RectangularBounds(_POINT, PhysicalLocation(LatLongCoordinate(56.0, -2.0))),
    _REGION,
    Landmark("quad"),
    District("old town"),
    _CLASSIFIED,
    AddressLocation(address=Address(town="St Andrews")),
    ProductLocation(open_time=TimeOfDay(32_400.5), close_time=TimeOfDay(61_200.0)),
    SymbolicLocation(Information(("x",)), _REGION, _CLASSIFIED, (_LOCALE,), fixed=False),
    _LOCALE,
    Where(_LOCALE, "town"),
    Profile.from_mapping(ModeTransport.FOOT, {"pace": "slow"}),
    Activity("walking"),
    Actor(_ID, "Ann", ActorKind.ARTIFICIAL, Profile()),
    Artefact(Id(IdKind.GUID, "g")),
    Conduit(Id(IdKind.GUID, "pda"), associated_with=_ID),
    CompassDirection(270.0),
    Keypoint(Where(_POINT)),
    _THOROUGHFARES[1],
    Junction(_THOROUGHFARES),
    ProcessingStep(Time(2_000), "relay"),
    _OBSERVATION,
    LocationEvent(_ID, (ProcessingStep(Time(2_000), "relay"),), (_OBSERVATION,)),
    Violation("locationEvent/id", "pattern", "no '+'"),
    ValidationReport([Violation("p", "r")], ["zone-less"]),
    Time(1_287_000_000_123),
    _PERIOD,
    TemporalRegion((_PERIOD, Period(Time(7_200_000), Time(7_200_000)))),
    SymbolicTime("lunchtime", TemporalRegion((_PERIOD,))),
    TimeOfDay(43_200.25),
]


def _dataclasses(module) -> list[type]:
    """The public dataclasses *module* defines."""
    return [
        cls
        for name, cls in vars(module).items()
        if not name.startswith("_") and isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__module__ == module.__name__
    ]


@pytest.mark.parametrize("module", [info.name for info in pkgutil.iter_modules(gloss.__path__)])
def test_every_public_dataclass_keeps_its_fields_in_slots(module):
    for cls in _dataclasses(importlib.import_module(f"gloss.{module}")):
        # an instance has a __dict__ unless every class it inherits from lists slots without one
        for klass in cls.__mro__[:-1]:
            assert "__slots__" in vars(klass), (cls, klass)
            assert "__dict__" not in klass.__slots__, (cls, klass)


def test_the_samples_hold_every_value_class_of_model_wire_and_temporal():
    classes = {cls for module in (model, wire, temporal) for cls in _dataclasses(module)}
    assert classes - {type(x) for x in SAMPLES} == {model.GlossObject}  # abstract
    assert len(SAMPLES) == len(classes) - 1


@pytest.mark.parametrize("value", SAMPLES, ids=lambda x: type(x).__name__)
def test_a_value_has_no_dict_nor_weak_reference(value):
    assert not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(value)


@pytest.mark.parametrize("value", SAMPLES, ids=lambda x: type(x).__name__)
def test_a_value_survives_pickle_and_deepcopy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
        if type(value).__hash__ is not None:  # all but the mutable ValidationReport
            assert hash(twin) == hash(value)
