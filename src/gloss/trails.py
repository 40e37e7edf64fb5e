"""Trails: observed snail trails, distilled archetypal graphs, themed sets.

Distillation clusters observation points by single linkage at a caller-set
epsilon, drops one node per cluster at the spherical centroid, and derives
directed edges from consecutive-observation cluster transitions.  All
exhaustive searches are capped at 12 nodes and error beyond that rather
than silently approximate.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import Optional, Union

from .errors import (
    BadInput,
    EmptyInput,
    GlossError,
    NoOrderExists,
    OutOfOrderObservation,
    OutOfRange,
    PatternMismatch,
    TooLarge,
    UnknownEndpoint,
    Unresolvable,
)
from .geo import (
    _haversine_m,
    _radians,
    components_within,
    distance_in_metres,
    resolved_point,
    spherical_centroid,
)
from .model import (
    Distance,
    DistanceUnit,
    Gazetteer,
    Id,
    IdKind,
    Information,
    ModeTransport,
    PhysicalLocation,
    Region,
    ScalarKind,
    Where,
    make_constrained,
    make_id,
)
from .temporal import SymbolicTime, TemporalRegion, Time, When
from .wire import (
    LocationEvent,
    Observation,
    parse_location_event,
    serialize_location_event,
    serialize_where,
)

__all__ = [
    "ObservedNode",
    "ObservedTrail",
    "ArchetypalNode",
    "TrailEdge",
    "ArchetypalTrail",
    "IntentionalNode",
    "IntentionalTrail",
    "Path",
    "Route",
    "FixedTime",
    "FixedSpatial",
    "Manual",
    "Proximity",
    "RecordingPolicy",
    "admits",
    "policy_rule",
    "record_observation",
    "distill_archetypal",
    "recommended_order",
    "routes_through",
    "parse_id_key",
    "export_observed",
    "import_observed",
    "export_archetypal",
]

_SEARCH_CAP = 12


def _when_millis(when: When) -> int:
    """Order key for a When: instants order by themselves, period sets by
    their earliest start, a symbolic time as the period set it denotes."""
    if isinstance(when, Time):
        return when.epoch_millis
    if isinstance(when, SymbolicTime):
        when = when.denotes
    if isinstance(when, TemporalRegion):
        return min(p.start.epoch_millis for p in when.periods)
    raise TypeError(f"not a When: {when!r}")


@dataclass(frozen=True, slots=True)
class ObservedNode:
    when: When
    where: Where
    info: Optional[Information] = None


@dataclass(frozen=True, slots=True)
class ObservedTrail:
    """A snail trail: one subject, observations in non-decreasing time order."""

    subject: Id
    nodes: tuple[ObservedNode, ...] = ()

    def __post_init__(self):
        keys = [_when_millis(n.when) for n in self.nodes]
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise OutOfOrderObservation("trail timestamps must be non-decreasing")


@dataclass(frozen=True, slots=True)
class ArchetypalNode:
    key: str
    where: Where
    info: Information = Information()


@dataclass(frozen=True, slots=True)
class TrailEdge:
    source: str
    target: str
    mode: Optional[ModeTransport] = None
    median_travel_seconds: Optional[float] = None


@dataclass(frozen=True, slots=True)
class ArchetypalTrail:
    """Directed place graph with a recommended full-coverage visit order."""

    nodes: tuple[ArchetypalNode, ...]
    edges: tuple[TrailEdge, ...] = ()
    recommended_order: tuple[str, ...] = ()

    def __post_init__(self):
        keys = [n.key for n in self.nodes]
        key_set = set(keys)
        if len(key_set) != len(keys):
            raise ValueError("duplicate node keys")
        for e in self.edges:
            if e.source not in key_set or e.target not in key_set:
                raise ValueError(f"edge {e.source}->{e.target} leaves the node set")
        if sorted(self.recommended_order) != sorted(keys):
            raise ValueError("recommended order must visit every node exactly once")
        pairs = {(e.source, e.target) for e in self.edges}
        for a, b in zip(self.recommended_order, self.recommended_order[1:]):
            if (a, b) not in pairs:
                raise ValueError(f"recommended order step {a}->{b} is not an edge")


@dataclass(frozen=True, slots=True)
class IntentionalNode:
    where: Where
    info: Information = Information()


@dataclass(frozen=True, slots=True)
class IntentionalTrail:
    """Theme-linked unordered set of places."""

    theme: str
    nodes: frozenset[IntentionalNode]

    def __init__(self, theme: str, nodes):
        object.__setattr__(self, "theme", theme)
        object.__setattr__(self, "nodes", frozenset(nodes))


@dataclass(frozen=True, slots=True)
class Path:
    from_where: Where
    to_where: Where
    mode: Optional[ModeTransport] = None


@dataclass(frozen=True, slots=True)
class Route:
    """A chain of paths: each hop starts where the previous one ended."""

    paths: tuple[Path, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.paths, self.paths[1:]):
            if a.to_where != b.from_where:
                raise ValueError("route paths must chain end-to-start")


# --- recording policies ---


@dataclass(frozen=True, slots=True)
class FixedTime:
    interval_seconds: float

    def __post_init__(self):
        make_constrained(ScalarKind.NON_NEGATIVE, self.interval_seconds)


@dataclass(frozen=True, slots=True)
class FixedSpatial:
    min_distance: Distance


@dataclass(frozen=True, slots=True)
class Manual:
    pass


@dataclass(frozen=True, slots=True)
class Proximity:
    designated: tuple[Region, ...]
    threshold: Distance


RecordingPolicy = Union[FixedTime, FixedSpatial, Manual, Proximity]


def policy_rule(policy: RecordingPolicy, gazetteer: Gazetteer | None = None):
    """The policy split in two: ``(key, decide)``.

    ``key(node)`` is what the policy reads of one node: nothing for
    Manual, the time for FixedTime, the resolved point (radians and the
    cosine of its latitude) for FixedSpatial, and for Proximity whether
    the node lies within the threshold of a designated region, tried in
    order.  It raises Unresolvable or EmptyWhere where ``admits`` would.
    ``decide(last_key, key)`` is ``admits`` on two nodes' keys, with None
    for a node that could not be keyed: such a node is never admitted
    after another, and under FixedSpatial nothing is admitted after it.
    A store keys each node once and then replays decisions alone."""
    if isinstance(policy, Manual):
        return (lambda node: None), (lambda last, key: True)
    if isinstance(policy, FixedTime):
        seconds = policy.interval_seconds
        return (
            lambda node: _when_millis(node.when),
            lambda last, key: (key - last) / 1000.0 >= seconds,
        )
    if isinstance(policy, FixedSpatial):
        metres = distance_in_metres(policy.min_distance)

        def moved_enough(last, key) -> bool:  # great_circle_distance's arithmetic, bit for bit
            return last is not None and key is not None and _haversine_m(*last, *key) >= metres

        return (lambda node: _radians(resolved_point(node.where, gazetteer))), moved_enough
    if isinstance(policy, Proximity):
        reach = distance_in_metres(policy.threshold)
        anchors = [region.distinguished_point.coordinate for region in policy.designated]
        anchors = [None if a is None else _radians(a) for a in anchors]

        def near(node) -> bool:
            p = _radians(resolved_point(node.where, gazetteer))
            for anchor in anchors:
                if anchor is None:
                    raise Unresolvable("designated region has no distinguished coordinate")
                if _haversine_m(*anchor, *p) <= reach:
                    return True
            return False

        return near, (lambda last, key: key is True)
    raise TypeError(f"not a recording policy: {policy!r}")


def admits(
    last: Optional[ObservedNode],
    candidate: ObservedNode,
    policy: RecordingPolicy,
    gazetteer: Gazetteer | None = None,
) -> bool:
    """Whether the policy keeps the candidate after ``last``, the trail's
    last kept node; nothing earlier in the trail counts.  With no last node
    (an empty trail) the candidate is always kept.  Proximity reads only
    the candidate."""
    if last is None:
        return True
    key, decide = policy_rule(policy, gazetteer)
    last_key = None if isinstance(policy, Proximity) else key(last)
    return decide(last_key, key(candidate))


def record_observation(
    trail: ObservedTrail,
    candidate: ObservedNode,
    policy: RecordingPolicy,
    gazetteer: Gazetteer | None = None,
) -> ObservedTrail:
    """Append the candidate iff the policy admits it; the first observation
    is always kept.  Returns the (possibly unchanged) trail."""
    last = trail.nodes[-1] if trail.nodes else None
    if last is not None and _when_millis(candidate.when) < _when_millis(last.when):
        raise OutOfOrderObservation("candidate is earlier than the last node")
    if not admits(last, candidate, policy, gazetteer):
        return trail
    return ObservedTrail(trail.subject, trail.nodes + (candidate,))


# --- distillation ---


def _merge_info(nodes: list[ObservedNode]) -> Information:
    infos = [n.info for n in nodes if n.info is not None]
    return Information(
        tuple(dict.fromkeys(text for info in infos for text in info.info)),
        tuple(dict.fromkeys(link for info in infos for link in info.links)),
    )


def _smallest_hamiltonian(keys: list[str], pairs: set[tuple[str, str]]):
    """Lexicographically smallest full visit order over directed pairs, or
    None.  Caller enforces the size cap."""
    order = sorted(keys)
    target = len(order)

    def extend(path: list[str], used: set[str]):
        if len(path) == target:
            return list(path)
        for nxt in order:
            if nxt in used or (path and (path[-1], nxt) not in pairs):
                continue
            path.append(nxt)
            used.add(nxt)
            found = extend(path, used)
            if found is not None:
                return found
            path.pop()
            used.remove(nxt)
        return None

    return extend([], set())


def distill_archetypal(
    trails: list[ObservedTrail],
    epsilon: Distance,
    gazetteer: Gazetteer | None = None,
) -> ArchetypalTrail:
    """Collapse observed trails into a place graph.

    Nodes are single-linkage clusters at epsilon (keys n0, n1, ... by first
    appearance), placed at the spherical centroid with member info merged.
    Edges follow observed cluster transitions, annotated with the median
    travel time.  The recommended order is the most frequent observed
    sequence that covers every node exactly once; when no observed sequence
    qualifies, an exhaustive search over the edges stands in.
    """
    import statistics  # here, not at the top: it loads fractions and decimal, which ingest never needs

    eps_m = distance_in_metres(epsilon)
    if eps_m <= 0:
        raise ValueError("epsilon must be positive")
    flat = [node for trail in trails for node in trail.nodes]
    if not flat:
        raise EmptyInput("no observations to distill")
    coords = [resolved_point(n.where, gazetteer) for n in flat]
    assignment = components_within(coords, eps_m)
    n_clusters = max(assignment) + 1
    members: list[list[int]] = [[] for _ in range(n_clusters)]
    for i, c in enumerate(assignment):
        members[c].append(i)
    key_of = [f"n{c}" for c in range(n_clusters)]
    nodes = []
    for c in range(n_clusters):
        centroid = spherical_centroid([coords[i] for i in members[c]])
        merged = _merge_info([flat[i] for i in members[c]])
        nodes.append(ArchetypalNode(key_of[c], Where(PhysicalLocation(centroid)), merged))
    keys = [key_of[c] for c in assignment]  # each point's node key

    edge_deltas: dict[tuple[str, str], list[float]] = {}
    sequences: list[tuple[tuple[str, ...], int]] = []  # (collapsed seq, first-obs ms)
    end = 0
    for trail in trails:
        start, end = end, end + len(trail.nodes)  # the trail's [start, end) in flat
        if start == end:
            continue
        seq = [keys[start]]
        for i in range(start + 1, end):
            if keys[i] != seq[-1]:  # a change of node: the next step, and a hop
                delta = (_when_millis(flat[i].when) - _when_millis(flat[i - 1].when)) / 1000.0
                edge_deltas.setdefault((seq[-1], keys[i]), []).append(delta)
                seq.append(keys[i])
        sequences.append((tuple(seq), _when_millis(flat[start].when)))

    edges = tuple(
        TrailEdge(u, v, None, statistics.median(deltas))
        for (u, v), deltas in edge_deltas.items()
    )

    all_keys = set(key_of)
    covering: dict[tuple[str, ...], list[int]] = {}
    for seq, first_ms in sequences:
        if len(seq) == n_clusters and set(seq) == all_keys:
            covering.setdefault(seq, []).append(first_ms)
    if covering:
        best = min(
            covering.items(), key=lambda kv: (-len(kv[1]), min(kv[1]), kv[0])
        )[0]
    else:
        if n_clusters > _SEARCH_CAP:
            raise NoOrderExists(
                "no observed sequence covers every node and the graph is too"
                " large for exhaustive search"
            )
        pairs = set(edge_deltas)
        found = _smallest_hamiltonian(key_of, pairs)
        if found is None:
            raise NoOrderExists("the observed transitions admit no full visit order")
        best = tuple(found)
    return ArchetypalTrail(tuple(nodes), edges, best)


def recommended_order(
    trail: ArchetypalTrail, mode: Optional[ModeTransport] = None
) -> tuple[str, ...]:
    """The stored order, or with a mode the smallest full visit order over
    that mode's edges."""
    if mode is None:
        return trail.recommended_order
    if len(trail.nodes) > _SEARCH_CAP:
        raise TooLarge(f"mode search capped at {_SEARCH_CAP} nodes")
    pairs = {(e.source, e.target) for e in trail.edges if e.mode is mode}
    found = _smallest_hamiltonian([n.key for n in trail.nodes], pairs)
    if found is None:
        raise NoOrderExists(f"no full visit order over {mode.value} edges")
    return tuple(found)


def routes_through(
    trail: IntentionalTrail,
    start: Where,
    end: Where,
    connectivity: set[Path] | frozenset[Path] | tuple[Path, ...],
) -> list[Route]:
    """Every simple route from start to end over the given paths (a path
    given twice counts once), shortest first, deterministically ordered."""
    rank = {n.where: serialize_where(n.where) for n in trail.nodes}  # canonical bytes: a stable sort key
    if start not in rank:
        raise UnknownEndpoint("start is not a node of the trail")
    if end not in rank:
        raise UnknownEndpoint("end is not a node of the trail")
    if len(trail.nodes) > _SEARCH_CAP:
        raise TooLarge(f"route search capped at {_SEARCH_CAP} nodes")

    outgoing: dict[Where, list[Path]] = {}
    for p in set(connectivity):  # a repeated path would interleave copies of its routes
        if p.from_where in rank and p.to_where in rank:
            outgoing.setdefault(p.from_where, []).append(p)
    for options in outgoing.values():
        options.sort(key=lambda p: (rank[p.to_where], "" if p.mode is None else p.mode.value))

    routes: list[Route] = []

    def walk(at: Where, visited: set[Where], acc: list[Path]):
        if at == end:
            # simple routes cannot pass through the end and come back
            routes.append(Route(tuple(acc)))
            return
        for p in outgoing.get(at, ()):
            if p.to_where in visited:
                continue
            visited.add(p.to_where)
            acc.append(p)
            walk(p.to_where, visited, acc)
            acc.pop()
            visited.remove(p.to_where)

    walk(start, {start}, [])
    # the walk takes paths in (target key, mode) order, so a stable sort keeps hop order
    routes.sort(key=lambda r: len(r.paths))
    return routes


# ---------------------------------------------------------------------------
# Import/export


def _format_policy(policy: RecordingPolicy) -> str:
    if isinstance(policy, Manual):
        return "manual"
    if isinstance(policy, FixedTime):
        return f"fixed-time {policy.interval_seconds + 0.0!r}"
    if isinstance(policy, FixedSpatial):
        d = policy.min_distance
        return f"fixed-spatial {d.value + 0.0!r} {d.unit.value}"
    if isinstance(policy, Proximity):
        d = policy.threshold
        return f"proximity {d.value + 0.0!r} {d.unit.value}"
    raise TypeError(f"not a recording policy: {policy!r}")


def _parse_policy(text: str) -> RecordingPolicy:
    tokens = text.split()
    try:  # float() and DistanceUnit refuse with ValueError, a quantity with OutOfRange
        if tokens == ["manual"]:
            return Manual()
        if tokens[:1] == ["fixed-time"] and len(tokens) == 2:
            return FixedTime(float(tokens[1]))
        if tokens[:1] in (["fixed-spatial"], ["proximity"]) and len(tokens) >= 3:
            d = Distance(float(tokens[1]), DistanceUnit(" ".join(tokens[2:])))
            return FixedSpatial(d) if tokens[0] == "fixed-spatial" else Proximity((), d)
    except (ValueError, OutOfRange):
        pass
    raise BadInput(f"bad policy line: {text!r}")


def parse_id_key(key: str) -> Id:
    """Read the `<kind>:<value>` form used by manifests and the CLI."""
    kind_text, sep, value = key.partition(":")
    if not sep:
        raise BadInput(f"expected <kind>:<value>, got {key!r}")
    try:
        return make_id(IdKind(kind_text), value)
    except ValueError:  # from IdKind
        raise BadInput(f"unknown ID kind {kind_text!r}") from None
    except PatternMismatch as e:
        raise BadInput(str(e)) from None


def _read_manifest(text: str) -> tuple[Id, RecordingPolicy, list[tuple[str, Optional[Information]]]]:
    """The one reader of the manifest grammar: the subject, the policy
    (Manual if unnamed) and, per ``event`` line, its plain file name and
    the Information of the ``info``/``link`` lines after it, or None.
    Blank and ``#`` lines are skipped; lines and links are stripped."""
    subject: Optional[Id] = None
    policy: RecordingPolicy = Manual()
    files: list[tuple[str, list[str], list[str]]] = []  # (file name, info texts, links)
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        if keyword == "subject":
            subject = parse_id_key(rest.strip())
        elif keyword == "policy":
            policy = _parse_policy(rest)
        elif keyword == "event":
            name = rest.strip()
            if name in ("", ".", "..") or "/" in name or "\\" in name or "\0" in name:
                raise BadInput(f"event file {name!r} is not a plain file name")
            files.append((name, [], []))
        elif keyword == "info" and files:
            files[-1][1].append(rest)
        elif keyword == "link" and files:
            files[-1][2].append(rest.strip())
        else:
            raise BadInput(f"bad manifest line: {raw!r}")
    if subject is None:
        raise BadInput("manifest names no subject")
    return subject, policy, [
        (name, Information(tuple(info), tuple(links)) if info or links else None)
        for name, info, links in files
    ]


def export_observed(trail: ObservedTrail, policy: RecordingPolicy, directory) -> FilePath:
    """Write the trail as locationEvent files and a manifest; return its path.

    Each run of nodes goes into one event, one observation per node.  A
    run ends at a node with info and at the trail's last node; its file
    is named after that node (``0007.xml``), and the node's
    ``info``/``link`` lines follow the run's ``event`` line.

    Raises, before writing anything, if an event fails to serialize, and
    ValueError for a non-Time stamp or a manifest that would not read back
    as given: a Proximity policy's designated regions, a subject make_id
    refuses, a line break or stripped space in a text, an empty Information."""
    lines = [f"subject {trail.subject.key}", f"policy {_format_policy(policy)}"]
    files: list[tuple[str, Optional[Information], bytes]] = []  # (name, its info, serialized event)
    run: list[Observation] = []
    for i, node in enumerate(trail.nodes):
        if not isinstance(node.when, Time):
            raise ValueError("only Time-stamped nodes can be exported")
        run.append(Observation(time_of_observation=node.when, where=node.where))
        if node.info is None and i < len(trail.nodes) - 1:
            continue
        name = f"{i:04d}.xml"
        event = LocationEvent(trail.subject, (), tuple(run))
        files.append((name, node.info, serialize_location_event(event)))
        run.clear()
        lines.append(f"event {name}")
        if node.info is not None:
            lines.extend(f"info {text}" for text in node.info.info)
            lines.extend(f"link {link}" for link in node.info.links)
    text = "\n".join(lines) + "\n"
    if _read_manifest(text) != (trail.subject, policy, [(name, info) for name, info, _ in files]):
        raise ValueError("the manifest would not read back this subject, policy and info")
    directory = FilePath(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, _, data in files:
        (directory / name).write_bytes(data)
    manifest = directory / "trail.manifest"
    manifest.write_text(text, encoding="utf-8")
    return manifest


def import_observed(manifest_path) -> tuple[ObservedTrail, RecordingPolicy]:
    """Rebuild a trail from a manifest written by export_observed.  Each
    ``event`` line adds every observation of its file, in order, and the
    ``info``/``link`` lines after it annotate the last of them.  An event
    file must be a regular file, not a symlink, about the manifest's subject."""
    manifest_path = FilePath(manifest_path)
    base = manifest_path.parent
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise BadInput(f"manifest {manifest_path} is not UTF-8: {e}") from None
    subject, policy, files = _read_manifest(text)
    nodes: list[ObservedNode] = []
    for name, info in files:
        try:  # O_NONBLOCK: opening a FIFO must not wait for a writer
            fd = os.open(base / name, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
        except OSError:
            if os.path.islink(base / name):
                raise BadInput(f"event file {name} is a symlink") from None
            raise
        if not stat.S_ISREG(os.fstat(fd).st_mode):  # before open(), which leaks fd on a folder
            os.close(fd)
            raise BadInput(f"event file {name} is not a regular file")
        with open(fd, "rb") as f:
            event = parse_location_event(f.read())
        if event.id != subject:
            raise BadInput(f"{name} is about {event.id.key}, not the manifest's subject {subject.key}")
        nodes.extend(ObservedNode(obs.time_of_observation, obs.where) for obs in event.observations)
        if info is not None:
            nodes[-1] = ObservedNode(nodes[-1].when, nodes[-1].where, info)
    return ObservedTrail(subject, tuple(nodes)), policy


def export_archetypal(trail: ArchetypalTrail) -> str:
    """Plain-text adjacency listing: nodes with their points and notes,
    then directed edges."""
    lines = []
    for node in trail.nodes:
        try:
            p = resolved_point(node.where, None)
            lat, lon = repr(p.latitude + 0.0), repr(p.longitude + 0.0)
        except GlossError:
            lat = lon = "-"
        lines.append(f"node {node.key} {lat} {lon}")
        for text in node.info.info:
            lines.append(f"info {text}")
        for link in node.info.links:
            lines.append(f"link {link}")
    for e in trail.edges:
        mode = e.mode.value if e.mode is not None else "-"
        seconds = repr(e.median_travel_seconds + 0.0) if e.median_travel_seconds is not None else "-"
        lines.append(f"edge {e.source} {e.target} {mode} {seconds}")
    lines.append(f"order {' '.join(trail.recommended_order)}")
    return "\n".join(lines) + "\n"
