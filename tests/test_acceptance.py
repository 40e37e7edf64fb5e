"""Acceptance gate: one test per conformance criterion, each printing a
single [ACCEPT] pass/fail line.  Tolerances and sample counts are part of
the contract; do not loosen them."""

import functools
import itertools
import math
import random
import statistics
import time

import pytest

import eventgen
from gloss.errors import (
    NotWellFormed,
    OutOfRange,
    SchemaViolation,
)
from gloss.eventd import EventStore, forward, read_frame
from gloss.geo import (
    EARTH_RADIUS_M,
    components_within,
    contains,
    convert_quantity,
    destination_point,
    great_circle_distance,
)
from gloss.interaction import (
    Actuator,
    Compatibility,
    CompatibilityContext,
    CouplingState,
    InformationContent,
    InteractionResource,
    Placement,
    Role,
    Sensor,
    Topology,
    classify_compatibility,
    couple,
    coupling_degree,
    proximity_coupling,
)
from gloss.model import (
    Altitude,
    AltitudeUnit,
    CircularBounds,
    Distance,
    DistanceUnit,
    Id,
    IdKind,
    LatLongCoordinate,
    PhysicalLocation,
    Speed,
    SpeedUnit,
    Where,
)
from gloss.temporal import Period, Time, utc_to_swatch
from gloss.trails import (
    IntentionalNode,
    IntentionalTrail,
    Path,
    distill_archetypal,
    routes_through,
)
from gloss.trails import ObservedNode, ObservedTrail
from gloss.wire import (
    LocationEvent,
    Observation,
    parse_location_event,
    serialize_location_event,
    validate_document,
)

import io


def criterion(number: int, name: str):
    """Wrap a test so it announces its verdict on one line."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPT] {number} {name}: FAIL")
                raise
            print(f"[ACCEPT] {number} {name}: PASS")

        return wrapper

    return decorate


# -- 1: conformance corpus ------------------------------------------------------


@criterion(1, "conformance corpus")
def test_corpus_round_trips(corpus_documents):
    started = time.perf_counter()
    assert set(corpus_documents) == {
        "coordinate-email.xml",
        "gps-fix-phone.xml",
        "region-relay.xml",
    }
    for name, data in corpus_documents.items():
        event = parse_location_event(data)
        assert validate_document(data).ok, name
        again = parse_location_event(serialize_location_event(event))
        assert again == event, name
    assert time.perf_counter() - started < 1.0


# -- 2: negative conformance -----------------------------------------------------


def _wire_violation(document: str, rule: str):
    with pytest.raises(SchemaViolation) as exc:
        parse_location_event(document)
    assert exc.value.rule == rule, exc.value


@criterion(2, "negative conformance")
def test_named_mutations(corpus_documents):
    gps = corpus_documents["gps-fix-phone.xml"].decode("latin-1")
    relay = corpus_documents["region-relay.xml"].decode("latin-1")

    _wire_violation(gps.replace(">56.340", ">95.340"), "maxInclusive")  # lat 95
    _wire_violation(
        gps.replace(">-2.86754378657099878<", ">-181<"), "minInclusive"
    )  # lon -181
    _wire_violation(gps.replace(">45<", ">361<"), "maxInclusive")  # bearing 361
    _wire_violation(gps.replace(">05<", ">13<"), "maxInclusive")  # satellites 13
    _wire_violation(gps.replace("+447941615809", "447941615809"), "pattern")
    _wire_violation(
        corpus_documents["coordinate-email.xml"]
        .decode("latin-1")
        .replace("graham@dcs.st-and.ac.uk", "graham.dcs.st-and.ac.uk"),
        "pattern",
    )  # email without @
    start = gps.index("<observation>")
    end = gps.index("</observation>") + len("</observation>")
    _wire_violation(gps[:start] + gps[end:], "minOccurs")  # missing observation
    _wire_violation(
        gps.replace(
            "http://www-systems.dcs.st-and.ac.uk/gloss/xml/2003-07/",
            "http://example.org/other/",
        ),
        "namespace",
    )
    _wire_violation(
        gps.replace("<PDOP>1.5</PDOP>", "<PDOP>1.5</PDOP><PDOP>1.5</PDOP>"),
        "maxOccurs",
    )  # duplicate optional field
    with pytest.raises(OutOfRange):
        Period(Time(10_000), Time(0))  # start > end
    _wire_violation(
        gps.replace(
            "<dateTime>2003-05-16T18:31:59</dateTime>",
            "<dateTime>sixish</dateTime>",
        ),
        "dateTime",
    )
    _wire_violation(
        relay.replace('<radius unit="miles">1<', '<radius unit="miles">-1<'),
        "minInclusive",
    )  # negative radius


# -- 3: round-trip property --------------------------------------------------------


@criterion(3, "round-trip and parser/validator agreement")
def test_ten_thousand_round_trips():
    started = time.perf_counter()
    rng = random.Random(424242)
    for i in range(10_000):
        event = eventgen.gen_event(rng)
        data = serialize_location_event(event)
        assert parse_location_event(data) == event, i

    # agreement: the validator accepts exactly what the parser accepts
    rng = random.Random(727272)
    for i in range(1500):
        data = eventgen.gen_document(rng)
        if rng.random() < 0.7:
            data = eventgen.mutate_document(rng, data)
        ok = validate_document(data).ok
        try:
            parse_location_event(data)
            parsed = True
        except (NotWellFormed, SchemaViolation):
            parsed = False
        assert parsed == ok, i
    assert time.perf_counter() - started < 30.0


# -- 4: geometry suite ---------------------------------------------------------------


def _law_of_cosines_m(a: LatLongCoordinate, b: LatLongCoordinate) -> float:
    p1, p2 = math.radians(a.latitude), math.radians(b.latitude)
    dl = math.radians(b.longitude - a.longitude)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_M * math.acos(max(-1.0, min(1.0, c)))


def _random_coord(rng: random.Random) -> LatLongCoordinate:
    return LatLongCoordinate(rng.uniform(-90, 90), rng.uniform(-180, 180))


@criterion(4, "geometry suite")
def test_geometry_suite():
    rng = random.Random(31415)

    # symmetry / identity / antipodal
    for _ in range(200):
        a, b = _random_coord(rng), _random_coord(rng)
        assert great_circle_distance(a, b).value == great_circle_distance(b, a).value
        assert great_circle_distance(a, a).value == 0.0
    anti = great_circle_distance(
        LatLongCoordinate(0, 0), LatLongCoordinate(0, 180)
    ).value
    assert math.isclose(anti, math.pi * EARTH_RADIUS_M, rel_tol=1e-12)

    # triangle inequality, 10 000 triples, 1e-6 m slack
    for _ in range(10_000):
        a, b, c = (_random_coord(rng) for _ in range(3))
        ab = great_circle_distance(a, b).value
        bc = great_circle_distance(b, c).value
        ac = great_circle_distance(a, c).value
        assert ac <= ab + bc + 1e-6

    # law-of-cosines oracle, 1 000 pairs at 1e-6 relative; the oracle is
    # ill-conditioned close in, so resample pairs under a kilometre apart
    checked = 0
    while checked < 1000:
        a, b = _random_coord(rng), _random_coord(rng)
        d = great_circle_distance(a, b).value
        if d < 1000.0:
            continue
        assert math.isclose(d, _law_of_cosines_m(a, b), rel_tol=1e-6)
        checked += 1

    # containment tracks distance for 10 000 cases
    for _ in range(10_000):
        centre = LatLongCoordinate(rng.uniform(-89, 89), rng.uniform(-179, 179))
        radius = rng.uniform(0.0, 2_000_000.0)
        p = destination_point(centre, rng.uniform(0, 360), rng.uniform(0, 3_000_000.0))
        circle = CircularBounds(PhysicalLocation(centre), Distance(radius))
        inside = contains(circle, p)
        assert inside == (great_circle_distance(centre, p).value <= radius)


# -- 5: unit conversions ---------------------------------------------------------------


@criterion(5, "unit conversions")
def test_unit_conversions():
    quantities = [
        (Distance, DistanceUnit, 123.456),
        (Speed, SpeedUnit, 42.5),
        (Altitude, AltitudeUnit, 678.9),
    ]
    for cls, unit_enum, value in quantities:
        for u1, u2 in itertools.product(unit_enum, repeat=2):
            q = cls(value, u1)
            back = convert_quantity(convert_quantity(q, u2), u1)
            assert math.isclose(back.value, value, rel_tol=1e-9), (u1, u2)

    feet = Altitude(123.45, AltitudeUnit.FEET)
    metres = convert_quantity(feet, AltitudeUnit.METRES)
    assert abs(metres.value - 37.62756) <= math.ulp(37.62756)


# -- 6: decimal-day beats -----------------------------------------------------------------


@criterion(6, "decimal-day beats")
def test_swatch_time():
    assert utc_to_swatch(Time.from_lexical("2003-05-15T23:00:00Z")) == 0.0
    assert utc_to_swatch(Time.from_lexical("2003-05-16T11:00:00Z")) == 500.0

    rng = random.Random(86400)
    for _ in range(10_000):
        t = Time(rng.randint(0, 2_000_000_000_000))
        beats = utc_to_swatch(t)
        assert 0.0 <= beats < 1000.0
        stepped = utc_to_swatch(Time(t.epoch_millis + 86_400))
        assert math.isclose(
            (beats + 1.0) % 1000.0, stepped, rel_tol=0.0, abs_tol=1e-6
        )


# -- 7: trail distillation ----------------------------------------------------------------


def _bfs_clusters(coords, eps_m):
    n = len(coords)
    label = [None] * n
    nxt = 0
    for i in range(n):
        if label[i] is not None:
            continue
        frontier, label[i] = [i], nxt
        while frontier:
            u = frontier.pop()
            for v in range(n):
                if (
                    label[v] is None
                    and great_circle_distance(coords[u], coords[v]).value <= eps_m
                ):
                    label[v] = nxt
                    frontier.append(v)
        nxt += 1
    return label


BASE = LatLongCoordinate(56.34, -2.8)


def _trail_fixture(rng: random.Random, sites, eps_m: float):
    """Walks over well-separated sites with jitter below eps/2, so the
    clustering is unambiguous and every walk covers every site."""
    subject = Id(IdKind.BIT_STRING, "fixture")
    trails = []
    t = 0
    for _ in range(rng.randint(1, 3)):
        order = list(range(len(sites)))
        rng.shuffle(order)
        nodes = []
        for site_index in order:
            jitter = destination_point(
                sites[site_index], rng.uniform(0, 360), rng.uniform(0, eps_m / 2 - 1)
            )
            nodes.append(
                ObservedNode(Time(t * 1000), Where(PhysicalLocation(jitter)))
            )
            t += rng.randint(30, 90)
        trails.append(ObservedTrail(subject, tuple(nodes)))
    return trails


@criterion(7, "trail distillation")
def test_trail_distillation():
    rng = random.Random(9090)
    eps = 100.0

    for fixture_no in range(25):
        n_sites = rng.randint(1, 6)
        sites = [
            destination_point(BASE, rng.uniform(0, 360), 1000.0 * (i + 1))
            for i in range(n_sites)
        ]
        trails = _trail_fixture(rng, sites, eps)
        flat = [n for trail in trails for n in trail.nodes]
        assert len(flat) <= 20
        coords = [n.where.payload.coordinate for n in flat]

        got = distill_archetypal(trails, Distance(eps))
        # clustering equals the brute-force closure oracle
        oracle = _bfs_clusters(coords, eps)
        assert components_within(coords, eps) == oracle, fixture_no
        assert len(got.nodes) == max(oracle) + 1
        # deterministic
        assert distill_archetypal(trails, Distance(eps)) == got
        # the recommended order covers every node, over edges
        keys = [n.key for n in got.nodes]
        assert sorted(got.recommended_order) == sorted(keys)
        edge_pairs = {(e.source, e.target) for e in got.edges}
        for a, b in zip(got.recommended_order, got.recommended_order[1:]):
            assert (a, b) in edge_pairs

    # routes_through equals the exhaustive simple-path oracle on <=5 nodes
    wheres = [
        Where(PhysicalLocation(destination_point(BASE, b * 60.0, 500.0)))
        for b in range(5)
    ]
    trail = IntentionalTrail("errands", [IntentionalNode(w) for w in wheres])
    for case in range(40):
        pairs = {
            (i, j)
            for i in range(5)
            for j in range(5)
            if i != j and rng.random() < 0.4
        }
        paths = {Path(wheres[i], wheres[j]) for i, j in pairs}
        got_routes = routes_through(trail, wheres[0], wheres[4], paths)
        got_seqs = set()
        for route in got_routes:
            seq = [0]
            for p in route.paths:
                seq.append(wheres.index(p.to_where))
            got_seqs.add(tuple(seq))
        expected = set()
        for k in range(4):
            for mid in itertools.permutations([1, 2, 3], k):
                seq = (0,) + mid + (4,)
                if all(p in pairs for p in zip(seq, seq[1:])):
                    expected.add(seq)
        assert got_seqs == expected, case


# -- 8: event relay and query ------------------------------------------------------------------


def _tick(start: int = 0):
    counter = iter(range(start, start + 10_000_000))

    def clock() -> Time:
        return Time(next(counter) * 1000)

    return clock


def _snapshot(store: EventStore) -> bytes:
    parts = []
    for subject in sorted(store.subjects(), key=lambda s: s.key):
        parts.append(subject.key.encode())
        for event in store.events_for(subject):
            parts.append(serialize_location_event(event))
        parts.append(repr(store.observations(subject)).encode())
        parts.append(repr(store.trail_for(subject)).encode())
    return b"\x00".join(parts)


@criterion(8, "event relay and query")
def test_eventd_chain_and_query():
    # three-node chain: produce -> relay -> ingest, three steps, ordered
    producer = EventStore(step_label="processed on PDA", clock=_tick(0))
    relay = EventStore(step_label="routed through node 18B6", clock=_tick(100))
    server = EventStore(step_label="received on server", clock=_tick(200))
    event = LocationEvent(
        Id(IdKind.BIT_STRING, "graham"),
        (),
        (
            Observation(
                time_of_observation=Time(0),
                where=Where(PhysicalLocation(LatLongCoordinate(56.34, -2.87))),
            ),
        ),
    )
    hop1, hop2 = io.BytesIO(), io.BytesIO()
    forward(producer, event, hop1)
    hop1.seek(0)
    forward(relay, parse_location_event(read_frame(hop1)), hop2)
    hop2.seek(0)
    server.ingest(read_frame(hop2))
    (stored,) = server.events_for(event.id)
    assert len(stored.processing_sequence) == 3
    stamps = [s.date_time.epoch_millis for s in stored.processing_sequence]
    assert stamps == sorted(stamps)

    # query_last equals the max-by-(timestamp, arrival) oracle, 1 000 ingests
    rng = random.Random(606060)
    store = EventStore(clock=_tick())
    subjects = [Id(IdKind.BIT_STRING, f"s{i}") for i in range(7)]
    best: dict[str, tuple[int, int, float]] = {}
    arrival = 0
    for _ in range(1000):
        subject = rng.choice(subjects)
        millis = rng.randint(0, 500) * 1000
        lat = round(rng.uniform(-89, 89), 6)
        doc = serialize_location_event(
            LocationEvent(
                subject,
                (),
                (
                    Observation(
                        time_of_observation=Time(millis),
                        where=Where(PhysicalLocation(LatLongCoordinate(lat, 0.0))),
                    ),
                ),
            )
        )
        if store.ingest(doc):
            arrival += 1
            key = subject.key
            if key not in best or (millis, arrival) > best[key][:2]:
                best[key] = (millis, arrival, lat)
    for subject in subjects:
        if subject.key not in best:
            continue
        got = store.query_last(subject)
        want_millis, _, want_lat = best[subject.key]
        assert got.time_of_observation.epoch_millis == want_millis
        assert got.where.payload.coordinate.latitude == want_lat

    # a failed ingest leaves the store byte-identical
    before = _snapshot(store)
    bad = serialize_location_event(
        LocationEvent(
            subjects[0],
            (),
            (
                Observation(
                    time_of_observation=Time(1000),
                    where=Where(PhysicalLocation(LatLongCoordinate(1.0, 1.0))),
                ),
            ),
        )
    ).replace(b"<latitude>1</latitude>", b"<latitude>91</latitude>")
    with pytest.raises(SchemaViolation):
        store.ingest(bad)
    assert _snapshot(store) == before


# -- 9: interaction scenarios -------------------------------------------------------------------


def _surface(name: str) -> InteractionResource:
    return InteractionResource(
        Id(IdKind.BIT_STRING, name), frozenset((Role.SURFACE,))
    )


@criterion(9, "interaction scenarios")
def test_interaction_scenarios():
    # coupling_degree equals a filter-count oracle
    rng = random.Random(111213)
    doc = InformationContent(Id(IdKind.BIT_STRING, "doc"))
    decoy = InformationContent(Id(IdKind.BIT_STRING, "decoy"))
    state = CouplingState()
    ledger = []
    for i in range(60):
        kind = rng.choice(("actuator", "sensor", "instrument", "dual", "surface"))
        name = f"r{i}"
        if kind == "actuator":
            resource = Actuator(Id(IdKind.BIT_STRING, name))
        elif kind == "sensor":
            resource = Sensor(Id(IdKind.BIT_STRING, name))
        elif kind == "instrument":
            resource = InteractionResource(
                Id(IdKind.BIT_STRING, name), frozenset((Role.INSTRUMENT,))
            )
        elif kind == "dual":
            resource = InteractionResource(
                Id(IdKind.BIT_STRING, name),
                frozenset((Role.INSTRUMENT, Role.SURFACE)),
            )
        else:
            resource = _surface(name)
        target = doc if rng.random() < 0.6 else decoy
        state = couple(state, resource, target)
        ledger.append((kind, target))
    got = coupling_degree(state, doc)
    f = lambda *kinds: sum(1 for k, t in ledger if k in kinds and t is doc)
    assert got.actuators == f("actuator")
    assert got.sensors == f("sensor")
    assert got.instruments == f("instrument", "dual")
    assert got.surfaces == f("surface")
    assert got.total == f("actuator", "sensor", "instrument", "dual", "surface")

    # proximity coupling reaches its fixpoint in one application
    a, b, c = _surface("a"), _surface("b"), _surface("c")
    topo = Topology(
        (
            (a, Placement(Where(PhysicalLocation(BASE)))),
            (b, Placement(Where(PhysicalLocation(destination_point(BASE, 90, 0.1))))),
            (c, Placement(Where(PhysicalLocation(destination_point(BASE, 90, 50.0))))),
        )
    )
    once = proximity_coupling(CouplingState(), topo, Distance(0.5))
    assert frozenset((a, b)) in once.surface_couplings
    assert proximity_coupling(once, topo, Distance(0.5)) == once

    # painter metaphor: palette and canvas serve disjoint tasks
    palette, canvas = _surface("palette"), _surface("canvas")
    ctx = CompatibilityContext.of(
        {palette: frozenset({"mix colors"}), canvas: frozenset({"render strokes"})}
    )
    assert classify_compatibility(palette, canvas, ctx) is Compatibility.COMPLEMENTARY

    # mirrored whiteboard: shared display duty over the same notes
    board, screen = _surface("board"), _surface("screen")
    notes = InformationContent(Id(IdKind.BIT_STRING, "notes"))
    mirrored = couple(couple(CouplingState(), board, notes), screen, notes)
    ctx = CompatibilityContext.of(
        {
            board: frozenset({"annotate", "display"}),
            screen: frozenset({"display", "edit"}),
        },
        state=mirrored,
    )
    assert classify_compatibility(board, screen, ctx) is Compatibility.REDUNDANT

    # the web reached from any pocket device: interchangeable surfaces
    pda, phone, workstation = _surface("pda"), _surface("phone"), _surface("ws")
    web = frozenset({"browse the web"})
    ctx = CompatibilityContext.of({pda: web, phone: web, workstation: web})
    for s1, s2 in itertools.combinations((pda, phone, workstation), 2):
        assert classify_compatibility(s1, s2, ctx) is Compatibility.EQUIVALENT
