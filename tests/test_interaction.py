"""Resource/surface/instrument model: coupling state, degree bookkeeping,
the proximity rule, and surface compatibility classification."""

import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gloss.errors import SpecificityMismatch
from gloss.geo import destination_point, great_circle_distance
from gloss.interaction import (
    ActionSurface,
    Actuator,
    Compatibility,
    CompatibilityContext,
    CouplingState,
    Generic,
    InformationContent,
    InteractionResource,
    ObservationSurface,
    OrdinalScore,
    Placement,
    RawContent,
    Role,
    Sensor,
    Specific,
    SurfaceAttrs,
    Topology,
    classify_compatibility,
    couple,
    couple_surfaces,
    coupling_degree,
    decouple,
    decouple_surfaces,
    is_time_multiplexed,
    proximity_coupling,
)
from gloss.model import (
    CompassDirection,
    Distance,
    DistanceUnit,
    Id,
    IdKind,
    LatLongCoordinate,
    PhysicalLocation,
    Where,
)

BASE = LatLongCoordinate(56.34, -2.8)


def _id(name: str) -> Id:
    return Id(IdKind.BIT_STRING, name)


def _res(name: str, *roles: Role, genericity=Generic()) -> InteractionResource:
    return InteractionResource(_id(name), frozenset(roles), genericity=genericity)


def _surface(name: str, **kw) -> InteractionResource:
    return _res(name, Role.SURFACE, **kw)


def _content(name: str, content_class: str = "") -> InformationContent:
    return InformationContent(_id(name), content_class=content_class)


def _at(metres: float, bearing: float = 90.0) -> Where:
    return Where(PhysicalLocation(destination_point(BASE, bearing, metres)))


class TestResourceInvariants:
    def test_roles_required(self):
        with pytest.raises(ValueError):
            InteractionResource(_id("x"), frozenset())

    def test_roles_coerced_to_frozenset(self):
        r = InteractionResource(_id("x"), [Role.SURFACE, Role.SURFACE])
        assert r.roles == frozenset((Role.SURFACE,))

    def test_specific_names_its_class(self):
        Specific("face")
        with pytest.raises(ValueError):
            Specific("")

    def test_raw_content_cites_sources(self):
        RawContent(_id("r"), (_id("board"),))
        with pytest.raises(ValueError):
            RawContent(_id("r"), ())

    def test_ordinal_scale(self):
        assert OrdinalScore.LOW < OrdinalScore.MEDIUM < OrdinalScore.HIGH
        assert sorted(
            [OrdinalScore.HIGH, OrdinalScore.LOW, OrdinalScore.MEDIUM]
        ) == [OrdinalScore.LOW, OrdinalScore.MEDIUM, OrdinalScore.HIGH]
        with pytest.raises(TypeError):
            OrdinalScore.LOW < 1

    def test_sub_surfaces_point_at_parent(self):
        parent = _surface("board")
        a = ActionSurface(parent.id, "top-left quadrant")
        o = ObservationSurface(parent.id)
        assert a.parent == o.parent == parent.id


class TestContentCoupling:
    def test_couple_then_decouple_is_identity(self):
        state = CouplingState()
        pen, doc = _res("pen", Role.INSTRUMENT), _content("doc")
        coupled = couple(state, pen, doc)
        assert (pen, doc) in coupled.content_couplings
        assert decouple(coupled, pen, doc) == state

    def test_couple_is_idempotent(self):
        state = CouplingState()
        pen, doc = _res("pen", Role.INSTRUMENT), _content("doc")
        once = couple(state, pen, doc)
        assert couple(once, pen, doc) == once

    def test_decouple_absent_is_noop(self):
        state = CouplingState()
        assert decouple(state, _res("pen", Role.INSTRUMENT), _content("doc")) == state

    def test_actuators_and_sensors_couple(self):
        state = CouplingState()
        doc = _content("doc")
        state = couple(state, Actuator(_id("finger")), doc)
        state = couple(state, Sensor(_id("eye")), doc)
        assert len(state.content_couplings) == 2

    def test_specific_resource_checks_content_class(self):
        mask = _res("mask", Role.SURFACE, genericity=Specific("face"))
        with pytest.raises(SpecificityMismatch):
            couple(CouplingState(), mask, _content("doc", "document"))
        ok = couple(CouplingState(), mask, _content("portrait", "face"))
        assert len(ok.content_couplings) == 1

    def test_generic_resource_takes_anything(self):
        board = _surface("board")
        state = couple(CouplingState(), board, _content("doc", "document"))
        assert len(state.content_couplings) == 1


class TestSurfaceCoupling:
    def test_couple_and_decouple(self):
        a, b = _surface("a"), _surface("b")
        state = couple_surfaces(CouplingState(), a, b)
        assert frozenset((a, b)) in state.surface_couplings
        assert decouple_surfaces(state, b, a) == CouplingState()

    def test_requires_surface_role(self):
        pen = _res("pen", Role.INSTRUMENT)
        with pytest.raises(ValueError):
            couple_surfaces(CouplingState(), pen, _surface("b"))

    def test_self_pair_rejected(self):
        a = _surface("a")
        with pytest.raises(ValueError):
            couple_surfaces(CouplingState(), a, a)

    def test_decouple_leaves_rule_added_pairs(self):
        a, b = _surface("a"), _surface("b")
        state = CouplingState(proximity_surface_couplings=frozenset({frozenset((a, b))}))
        after = decouple_surfaces(state, a, b)
        assert frozenset((a, b)) in after.surface_couplings


class TestCouplingDegree:
    def test_partition_precedence(self):
        doc = _content("doc")
        state = CouplingState()
        state = couple(state, Actuator(_id("finger")), doc)
        state = couple(state, Sensor(_id("eye")), doc)
        state = couple(state, _res("pen", Role.INSTRUMENT), doc)
        # dual role counts as instrument, never as surface
        state = couple(state, _res("tray", Role.INSTRUMENT, Role.SURFACE), doc)
        state = couple(state, _surface("board"), doc)
        got = coupling_degree(state, doc)
        assert got.actuators == 1
        assert got.sensors == 1
        assert got.instruments == 2
        assert got.surfaces == 1
        assert got.total == 4 + 1

    def test_other_content_does_not_count(self):
        doc, memo = _content("doc"), _content("memo")
        state = couple(CouplingState(), _surface("board"), doc)
        assert coupling_degree(state, memo).total == 0

    def test_matches_bookkeeping_oracle(self):
        rng = random.Random(8003)
        kinds = ("actuator", "sensor", "instrument", "dual", "surface")
        for round_no in range(30):
            doc, decoy = _content("doc"), _content("decoy")
            state = CouplingState()
            expected = {"actuator": 0, "sensor": 0, "instrument": 0, "surface": 0}
            for i in range(rng.randint(0, 12)):
                kind = rng.choice(kinds)
                name = f"r{round_no}-{i}"
                if kind == "actuator":
                    resource = Actuator(_id(name))
                elif kind == "sensor":
                    resource = Sensor(_id(name))
                elif kind == "instrument":
                    resource = _res(name, Role.INSTRUMENT)
                elif kind == "dual":
                    resource = _res(name, Role.INSTRUMENT, Role.SURFACE)
                else:
                    resource = _surface(name)
                target = doc if rng.random() < 0.7 else decoy
                state = couple(state, resource, target)
                if target is doc:
                    bucket = "instrument" if kind == "dual" else kind
                    expected[bucket] += 1
            got = coupling_degree(state, doc)
            assert (got.actuators, got.sensors, got.instruments, got.surfaces) == (
                expected["actuator"],
                expected["sensor"],
                expected["instrument"],
                expected["surface"],
            )
            assert got.total == sum(expected.values())

    def test_time_multiplexed(self):
        doc = _content("doc")
        state = couple(CouplingState(), _res("pen", Role.INSTRUMENT), doc)
        assert is_time_multiplexed(state, doc)
        state = couple(state, _res("stylus", Role.INSTRUMENT), doc)
        assert not is_time_multiplexed(state, doc)


class _Counted:
    """An entity that records every __eq__ and __hash__ call."""

    def __init__(self, key: int, calls: list):
        self.key, self.calls = key, calls

    def __eq__(self, other):
        self.calls.append("eq")
        return isinstance(other, _Counted) and self.key == other.key

    def __hash__(self):
        self.calls.append("hash")
        return hash(self.key)


# two equal surfaces "a", one instrument, a plain-string entity, and "z",
# which the differential test never places
_POOL = (
    _surface("a"),
    _surface("a"),
    _surface("b"),
    _res("pen", Role.INSTRUMENT),
    "label",
    _surface("z"),
)


def _linear_place(placements, entity, where, orientation=None):
    """Topology.place as a linear scan: keep the rest, append the entity."""
    kept = tuple(p for p in placements if p[0] != entity)
    return kept + ((entity, Placement(where, orientation)),)


def _linear_placement_of(placements, entity):
    for candidate, placement in placements:
        if candidate == entity:
            return placement
    return None


class TestTopology:
    def test_duplicate_placement_rejected(self):
        a = _surface("a")
        with pytest.raises(ValueError):
            Topology(((a, Placement(_at(0))), (a, Placement(_at(1)))))

    def test_place_replaces(self):
        a = _surface("a")
        topo = Topology().place(a, _at(0)).place(a, _at(5))
        assert len(topo.placements) == 1
        assert topo.placement_of(a).where == _at(5)
        checked = Topology(((a, Placement(_at(5))),))
        assert topo == checked and hash(topo) == hash(checked)

    def test_placement_of_unknown(self):
        assert Topology().placement_of(_surface("a")) is None

    @given(
        st.integers(0, 4),
        st.lists(
            st.tuples(
                st.integers(0, len(_POOL) - 2),
                st.integers(0, 3),
                st.none() | st.sampled_from((0.0, 90.0, 359.5)),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=300)
    def test_matches_linear_oracle(self, start, moves):
        # the pool holds equal but distinct objects and a non-resource
        # entity; its last entry is never placed, so lookups also miss
        placements = tuple((_POOL[k], Placement(_at(k))) for k in range(1, start + 1))
        topo = Topology(placements)
        for k, metres, bearing in moves:
            orientation = None if bearing is None else CompassDirection(bearing)
            topo = topo.place(_POOL[k], _at(metres), orientation)
            placements = _linear_place(placements, _POOL[k], _at(metres), orientation)
            assert topo.placements == placements
            assert all(a is b for (a, _), (b, _) in zip(topo.placements, placements))
            for entity in _POOL:
                assert topo.placement_of(entity) == _linear_placement_of(placements, entity)
            checked = Topology(placements)
            assert topo == checked and hash(topo) == hash(checked)
            assert repr(topo) == repr(checked)
        copy = pickle.loads(pickle.dumps(topo))
        assert copy == topo and [copy.placement_of(e) for e in _POOL] == [
            topo.placement_of(e) for e in _POOL
        ]

    def test_place_hashes_only_the_moved_entity(self):
        calls = []
        entities = [_Counted(k, calls) for k in range(400)]
        topo = Topology(tuple((e, Placement(_at(k))) for k, e in enumerate(entities)))
        calls.clear()
        moved = topo.place(entities[200], _at(1.0))
        assert len(calls) <= 4
        assert moved.placements[-1][0] is entities[200]
        calls.clear()
        assert moved.placement_of(entities[200]) == Placement(_at(1.0))
        assert len(calls) <= 4


class TestProximityCoupling:
    def test_close_pair_couples(self):
        a, b = _surface("a"), _surface("b")
        topo = Topology().place(a, _at(0.0)).place(b, _at(0.1))
        state = proximity_coupling(CouplingState(), topo, Distance(0.5))
        assert frozenset((a, b)) in state.surface_couplings

    def test_distant_pair_does_not(self):
        a, b = _surface("a"), _surface("b")
        topo = Topology().place(a, _at(0.0)).place(b, _at(10.0))
        state = proximity_coupling(CouplingState(), topo, Distance(0.5))
        assert state.surface_couplings == frozenset()

    def test_moving_apart_drops_the_pair(self):
        a, b = _surface("a"), _surface("b")
        near = Topology().place(a, _at(0.0)).place(b, _at(0.1))
        state = proximity_coupling(CouplingState(), near, Distance(0.5))
        far = near.place(b, _at(10.0))
        state = proximity_coupling(state, far, Distance(0.5))
        assert state.surface_couplings == frozenset()

    def test_manual_couplings_untouched(self):
        a, b, c = _surface("a"), _surface("b"), _surface("c")
        state = couple_surfaces(CouplingState(), a, c)
        far = Topology().place(a, _at(0.0)).place(b, _at(500.0)).place(c, _at(900.0))
        state = proximity_coupling(state, far, Distance(0.5))
        assert frozenset((a, c)) in state.surface_couplings

    def test_single_application_reaches_fixpoint(self):
        a, b, c = _surface("a"), _surface("b"), _surface("c")
        topo = Topology().place(a, _at(0.0)).place(b, _at(0.2)).place(c, _at(0.3))
        once = proximity_coupling(CouplingState(), topo, Distance(0.25))
        twice = proximity_coupling(once, topo, Distance(0.25))
        assert once == twice

    def test_lone_surface_has_no_pairs(self):
        topo = Topology().place(_surface("a"), _at(0.0))
        state = proximity_coupling(CouplingState(), topo, Distance(5.0))
        assert state.surface_couplings == frozenset()

    def test_non_surfaces_ignored(self):
        pen = _res("pen", Role.INSTRUMENT)
        board = _surface("board")
        topo = Topology().place(pen, _at(0.0)).place(board, _at(0.1))
        state = proximity_coupling(CouplingState(), topo, Distance(5.0))
        assert state.surface_couplings == frozenset()

    def test_threshold_unit_respected(self):
        a, b = _surface("a"), _surface("b")
        topo = Topology().place(a, _at(0.0)).place(b, _at(1500.0))
        km = proximity_coupling(CouplingState(), topo, Distance(2.0, DistanceUnit.KM))
        assert km.surface_couplings  # 1.5 km < 2 km


_ids = st.builds(Id, st.sampled_from(IdKind), st.sampled_from(("a", "b", "+44 1334")))
# few ids, so that many resources share one while their roles or attributes differ
_resources = st.builds(
    InteractionResource,
    _ids,
    st.frozensets(st.sampled_from(Role), min_size=1),
    surface_attrs=st.none() | st.builds(SurfaceAttrs, color=st.sampled_from(("red", "blue"))),
    genericity=st.just(Generic()) | st.builds(Specific, st.sampled_from(("face", "map"))),
)


def _all_pairs_within(topology: Topology, metres: float) -> frozenset:
    """proximity_coupling's pairs, by testing every pair of placed surfaces."""
    placed = [
        (entity, placement.where.payload.coordinate)
        for entity, placement in topology.placements
        if isinstance(entity, InteractionResource) and Role.SURFACE in entity.roles
    ]
    return frozenset(
        frozenset((a, b))
        for i, (a, pa) in enumerate(placed)
        for b, pb in placed[i + 1:]
        if great_circle_distance(pa, pb).value <= metres
    )


class TestHashContract:
    @given(st.lists(_ids | _resources, max_size=8))
    @settings(max_examples=300)
    def test_equal_values_hash_equal_and_survive_pickling(self, values):
        for x in values:
            copy = pickle.loads(pickle.dumps(x))
            assert copy == x and hash(copy) == hash(x)
            for y in values:
                if x == y:
                    assert hash(x) == hash(y)
        distinct = []
        for x in values:
            if x not in distinct:  # by == alone
                distinct.append(x)
        assert len(set(values)) == len(distinct)

    def test_a_pickle_made_under_another_hash_seed_hashes_here(self):
        # a hash kept on the instance would travel inside the pickle
        code = (
            "import pickle, sys; from gloss.interaction import InteractionResource, Role;"
            "from gloss.model import Id, IdKind; sys.stdout.buffer.write(pickle.dumps("
            "InteractionResource(Id(IdKind.GUID, 'g'), {Role.SURFACE})))"
        )
        env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=os.pathsep.join(sys.path))
        made = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60)
        here = InteractionResource(Id(IdKind.GUID, "g"), {Role.SURFACE})
        assert {pickle.loads(made.stdout), here} == {here}

    @given(
        st.lists(st.tuples(_resources, st.floats(0.0, 3.0), st.floats(0.0, 360.0)), max_size=12),
        st.floats(0.1, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_proximity_coupling_matches_all_pairs(self, layout, metres):
        topology = Topology()
        for resource, r, bearing in layout:
            topology = topology.place(resource, _at(r, bearing))
        state = proximity_coupling(CouplingState(), topology, Distance(metres))
        assert state.proximity_surface_couplings == _all_pairs_within(topology, metres)


class TestCompatibility:
    def _ctx(self, tasks=None, assigned=None, state=None):
        return CompatibilityContext.of(tasks, assigned, state)

    def test_equal_task_sets_are_equivalent(self):
        a, b = _surface("a"), _surface("b")
        ctx = self._ctx({a: {"display"}, b: {"display"}})
        assert classify_compatibility(a, b, ctx) is Compatibility.EQUIVALENT

    def test_disjoint_task_sets_are_complementary(self):
        painter, palette = _surface("canvas"), _surface("palette")
        ctx = self._ctx({painter: {"paint"}, palette: {"mix colors"}})
        assert classify_compatibility(painter, palette, ctx) is Compatibility.COMPLEMENTARY

    def test_shared_task_and_content_is_redundant(self):
        board, screen = _surface("board"), _surface("screen")
        notes = _content("notes")
        state = couple(couple(CouplingState(), board, notes), screen, notes)
        ctx = self._ctx(
            {board: {"annotate", "display"}, screen: {"display", "edit"}},
            state=state,
        )
        assert classify_compatibility(board, screen, ctx) is Compatibility.REDUNDANT

    def test_shared_task_without_content_is_incompatible(self):
        board, screen = _surface("board"), _surface("screen")
        ctx = self._ctx({board: {"annotate", "display"}, screen: {"display", "edit"}})
        assert classify_compatibility(board, screen, ctx) is Compatibility.INCOMPATIBLE

    def test_differing_assignment_wins(self):
        lectern, gallery = _surface("lectern"), _surface("gallery")
        ctx = self._ctx(
            {lectern: {"display"}, gallery: {"display"}},
            assigned={lectern: "speaker"},
        )
        assert classify_compatibility(lectern, gallery, ctx) is Compatibility.ASSIGNED

    def test_same_assignment_falls_through(self):
        a, b = _surface("a"), _surface("b")
        ctx = self._ctx(
            {a: {"display"}, b: {"display"}},
            assigned={a: "speaker", b: "speaker"},
        )
        assert classify_compatibility(a, b, ctx) is Compatibility.EQUIVALENT

    def test_no_declarations_is_incompatible(self):
        a, b = _surface("a"), _surface("b")
        assert classify_compatibility(a, b, self._ctx()) is Compatibility.INCOMPATIBLE

    def test_classification_is_symmetric(self):
        rng = random.Random(5511)
        task_pool = ["display", "edit", "annotate", "mix", "project"]
        role_pool = ["speaker", "audience", None]
        for i in range(60):
            a, b = _surface(f"a{i}"), _surface(f"b{i}")
            tasks = {
                s: frozenset(rng.sample(task_pool, rng.randint(0, 3))) for s in (a, b)
            }
            assigned = {}
            for s in (a, b):
                role = rng.choice(role_pool)
                if role is not None:
                    assigned[s] = role
            state = CouplingState()
            if rng.random() < 0.5:
                shared = _content(f"c{i}")
                state = couple(couple(state, a, shared), b, shared)
            ctx = self._ctx(tasks, assigned, state)
            assert classify_compatibility(a, b, ctx) is classify_compatibility(
                b, a, ctx
            )
