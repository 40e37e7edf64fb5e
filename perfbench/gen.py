"""Seeded inputs for the three workloads, with the expected outputs
computed from the generated model objects rather than by gloss.

The same seed and sizes always give the same bytes.  Nothing here times
anything; the workload modules do.
"""

from __future__ import annotations

import itertools
import random
import struct
from dataclasses import dataclass, replace

import eventgen
from gloss.geo import destination_point
from gloss.interaction import InteractionResource, Role
from gloss.model import (
    CircularBounds,
    Distance,
    Gazetteer,
    Id,
    IdKind,
    Information,
    LatLongCoordinate,
    PhysicalLocation,
    Region,
    SymbolicLocation,
    Where,
    make_id,
)
from gloss.temporal import Time
from gloss.trails import ObservedNode, ObservedTrail
from gloss.wire import NS, LocationEvent, Observation, serialize_location_event

# 2020-09-13T12:26:40Z; long-history and spatial timestamps count from here
_T0 = 1_600_000_000_000
_NS_ATTR = f'xmlns="{NS}"'.encode()


def frame(document: bytes) -> bytes:
    return struct.pack(">I", len(document)) + document


# ---------------------------------------------------------------------------
# fleet


@dataclass
class Frame:
    document: bytes
    event: LocationEvent | None  # None: damaged, the node must reject it
    expected_new: int = 0  # observations the node must report as new


@dataclass
class FleetInputs:
    subjects: list[Id]
    burst: list[Frame]
    paced: list[Frame]
    last: dict[str, Observation]  # reference query_last per subject key


def _damage(rng: random.Random, document: bytes) -> bytes:
    """Break a valid document in a way every conforming parser rejects."""
    kind = rng.randrange(3)
    if kind == 0:  # truncated inside the root element
        return document[: rng.randrange(len(document) // 2, document.rindex(b"</"))]
    if kind == 1:  # wrong namespace
        return document.replace(_NS_ATTR, b'xmlns="http://example.org/not-gloss/"')
    return document.replace(b"</locationEvent>", b"<trailing/></locationEvent>")


def _frames(rng, events, reject_share, resend_share, earlier) -> list[Frame]:
    out: list[Frame] = []
    for event in events:
        if rng.random() < reject_share:
            spare = replace(eventgen.gen_event(rng), id=event.id)
            out.append(Frame(_damage(rng, serialize_location_event(spare)), None))
        if earlier and rng.random() < resend_share:
            resent = rng.choice(earlier)
            out.append(Frame(resent.document, resent.event))
        accepted = Frame(serialize_location_event(event), event)
        out.append(accepted)
        earlier.append(accepted)
    return out


def fleet_inputs(
    seed: int, subjects: int, docs_per_subject: int, paced_frames: int
) -> FleetInputs:
    rng = random.Random(seed)
    ids: dict[str, Id] = {}
    while len(ids) < subjects:
        subject = eventgen.gen_id(rng)
        ids.setdefault(subject.key, subject)
    id_list = list(ids.values())
    events = [
        replace(eventgen.gen_event(rng), id=subject)
        for subject in id_list
        for _ in range(docs_per_subject)
    ]
    rng.shuffle(events)
    earlier: list[Frame] = []
    burst = _frames(rng, events, 0.05, 0.01, earlier)
    paced_events = [
        replace(eventgen.gen_event(rng), id=rng.choice(id_list))
        for _ in range(int(paced_frames * 0.94))
    ]
    paced = _frames(rng, paced_events, 0.05, 0.01, earlier)

    # reference outcomes: frames are ingested in order on one connection
    seen: dict[str, set] = {}
    newest: dict[str, tuple[int, int, Observation]] = {}
    arrivals = itertools.count()
    for f in burst + paced:
        if f.event is None:
            continue
        key = f.event.id.key
        known = seen.setdefault(key, set())
        f_new = 0
        for obs in f.event.observations:
            if obs in known:
                continue
            known.add(obs)
            f_new += 1
            rank = (obs.time_of_observation.epoch_millis, next(arrivals), obs)
            if key not in newest or rank[:2] > newest[key][:2]:
                newest[key] = rank
        f.expected_new = f_new
    last = {key: rank[2] for key, rank in newest.items()}
    return FleetInputs(id_list, burst, paced, last)


# ---------------------------------------------------------------------------
# long-history


@dataclass
class Delivery:
    document: bytes
    subject: int
    observation: Observation
    expected_new: int
    read_after: bool = False  # query_last + trail_for on this subject next


@dataclass
class LongHistoryInputs:
    subjects: list[Id]
    deliveries: list[Delivery]
    gazetteer_lines: list[str]
    gazetteer: Gazetteer  # the same entries, built without reading the file


def long_history_inputs(
    seed: int,
    subjects: int,
    per_subject: int,
    gazetteer_entries: int,
    read_every: int,
) -> LongHistoryInputs:
    rng = random.Random(seed)
    centre = LatLongCoordinate(rng.uniform(-55, 55), rng.uniform(-170, 170))
    spots = {}
    for k in range(40):
        point = destination_point(centre, rng.uniform(0, 360), rng.uniform(0, 3000))
        spots[f"spot-{seed}-{k}"] = point
    spot_names = list(spots)
    entries = dict(spots)
    while len(entries) < gazetteer_entries:
        name = f"{eventgen._word(rng)}-{rng.getrandbits(40):010x}"
        entries[name] = LatLongCoordinate(rng.uniform(-89, 89), rng.uniform(-179, 179))
    lines = [f"{name}\t{p.latitude!r}\t{p.longitude!r}\t25.0" for name, p in entries.items()]
    reference = Gazetteer(
        {
            name: SymbolicLocation(
                region=Region(
                    PhysicalLocation(p), CircularBounds(PhysicalLocation(p), Distance(25.0))
                )
            )
            for name, p in entries.items()
        }
    )

    ids = [make_id(IdKind.EMAIL, f"walker{i}.{seed}@example.org") for i in range(subjects)]
    queues: list[list[Observation]] = []
    for _ in ids:
        here = destination_point(centre, rng.uniform(0, 360), rng.uniform(0, 2000))
        observations = []
        for i in range(per_subject):
            when = Time(_T0 + i * 60_000 + rng.randrange(0, 30_000))
            roll = rng.random()
            if i > 0 and roll < 0.02:
                where = rng.choice(
                    [Where(), Where(PhysicalLocation()), Where(SymbolicLocation(), name="nowhere")]
                )
            elif i > 0 and roll < 0.22:
                name = rng.choice(spot_names)
                here = spots[name]
                where = Where(SymbolicLocation(), name=name)
            else:
                here = destination_point(here, rng.uniform(0, 360), rng.uniform(0, 120))
                where = Where(PhysicalLocation(here))
            observations.append(Observation(time_of_observation=when, where=where))
        # about one in ten arrives late, behind a few later observations
        order = list(range(per_subject))
        for i in range(1, per_subject - 1):
            if rng.random() < 0.1:
                j = min(per_subject - 1, i + rng.randint(2, 12))
                order.insert(j, order.pop(order.index(i)))
        queues.append([observations[i] for i in order])

    deliveries: list[Delivery] = []
    delivered: dict[tuple[int, Observation], bytes] = {}
    pending = [list(reversed(q)) for q in queues]
    while any(pending):
        s = rng.choice([i for i, q in enumerate(pending) if q])
        if delivered and rng.random() < 0.03:
            (s_old, obs), doc = rng.choice(list(delivered.items()))
            deliveries.append(Delivery(doc, s_old, obs, 0))
            continue
        obs = pending[s].pop()
        event = LocationEvent(ids[s], (), (obs,))
        doc = serialize_location_event(event)
        delivered[(s, obs)] = doc
        deliveries.append(Delivery(doc, s, obs, 1))
    for i in range(read_every - 1, len(deliveries), read_every):
        deliveries[i].read_after = True
    return LongHistoryInputs(ids, deliveries, lines, reference)


# ---------------------------------------------------------------------------
# spatial


@dataclass
class Bundle:
    walks: list[ObservedTrail]
    points: int
    expected_order: tuple[str, ...]  # recommended order, keyed as distill keys it
    spot_of_key: dict[str, LatLongCoordinate]


@dataclass
class CouplingInputs:
    placements: list[tuple[InteractionResource, Where]]
    group_of: list[int]  # per placement; -1 for resources without a surface role
    moves: list[list[tuple[int, int, Where]]]  # per round: (placement, group, where)


@dataclass
class SpatialInputs:
    bundles: list[Bundle]  # n, 2n, 4n points
    epsilon_m: float
    jitter_m: float
    coupling: CouplingInputs
    threshold_m: float


def _walk(rng, subject, spots, order, fixes, start_ms):
    nodes = []
    t = start_ms
    for s in order:
        for k in range(fixes):
            fix = destination_point(spots[s], rng.uniform(0, 360), rng.uniform(0, 20.0))
            info = Information(info=(f"near spot {s}",)) if k == 0 else None
            nodes.append(ObservedNode(Time(t), Where(PhysicalLocation(fix)), info))
            t += 30_000
        t += rng.randint(180, 540) * 1000
    return ObservedTrail(subject, tuple(nodes))


def _bundle(rng, subject, spots, majority, walks, fixes, start_ms) -> Bundle:
    contrarian = set(rng.sample(range(walks), walks // 3))
    orders = []
    for w in range(walks):
        order = majority
        if w in contrarian:
            while order in orders:  # each contrarian order is seen once
                order = rng.sample(range(len(spots)), len(spots))
        orders.append(order)
    trails = [
        _walk(rng, subject, spots, order, fixes, start_ms + w * 86_400_000)
        for w, order in enumerate(orders)
    ]
    # every walk covers every spot, so distill numbers clusters n0, n1, ...
    # in the first walk's visiting order
    key_of = {spot: f"n{i}" for i, spot in enumerate(orders[0])}
    return Bundle(
        trails,
        walks * len(spots) * fixes,
        tuple(key_of[s] for s in majority),
        {key_of[s]: spots[s] for s in key_of},
    )


def spatial_inputs(
    seed: int, base_walks: int, spots: int, fixes: int, surfaces: int, moves: int, move_rounds: int
) -> SpatialInputs:
    rng = random.Random(seed)
    centre = LatLongCoordinate(rng.uniform(-55, 55), rng.uniform(-170, 170))
    ring = [
        destination_point(centre, j * 360.0 / spots + rng.uniform(-5, 5), 2500 + rng.uniform(-100, 100))
        for j in range(spots)
    ]
    subject = make_id(IdKind.EMAIL, f"walker.{seed}@example.org")
    majority = rng.sample(range(spots), spots)
    bundles = [
        _bundle(rng, subject, ring, majority, base_walks * scale, fixes, _T0 + scale * 10**11)
        for scale in (1, 2, 4)
    ]

    # surfaces in tight groups on a grid of 0.5 degree cells, far apart
    centres: list[LatLongCoordinate] = []
    cells = rng.sample(range(200 * 600), max(1, surfaces // 10))
    for cell in cells:
        lat = -50 + (cell // 600) * 0.5 + rng.uniform(0.1, 0.4)
        lon = -150 + (cell % 600) * 0.5 + rng.uniform(0.1, 0.4)
        centres.append(LatLongCoordinate(lat, lon))

    def near(group: int) -> Where:
        return Where(PhysicalLocation(destination_point(centres[group], rng.uniform(0, 360), rng.uniform(0, 3.0))))

    placements = []
    group_of = []
    for i in range(surfaces):
        group = rng.randrange(len(centres))
        surface = rng.random() >= 0.05  # a few instruments that never couple
        roles = frozenset({Role.SURFACE}) if surface else frozenset({Role.INSTRUMENT})
        resource = InteractionResource(make_id(IdKind.GUID, f"{seed:08x}{i:08x}"), roles)
        placements.append((resource, near(group)))
        group_of.append(group if surface else -1)
    rounds = []
    for _ in range(move_rounds):
        moved = []
        for i in rng.sample(range(surfaces), moves):
            group = rng.randrange(len(centres))
            moved.append((i, group, near(group)))
        rounds.append(moved)
    return SpatialInputs(
        bundles,
        epsilon_m=100.0,
        jitter_m=20.0,
        coupling=CouplingInputs(placements, group_of, rounds),
        threshold_m=20.0,
    )
