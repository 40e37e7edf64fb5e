"""Trail recording, distillation and route search, checked against
brute-force oracles (BFS clustering, permutation search)."""

import itertools
import math
import os
import random
import statistics
import tempfile
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gloss import geo
from gloss.errors import (
    BadInput,
    EmptyInput,
    EmptyWhere,
    NoOrderExists,
    OutOfOrderObservation,
    OutOfRange,
    TooLarge,
    UnknownEndpoint,
    Unresolvable,
)
from gloss.geo import (
    components_within,
    destination_point,
    great_circle_distance,
    resolved_point,
)
from gloss.model import (
    Distance,
    DistanceUnit,
    Gazetteer,
    Id,
    IdKind,
    Information,
    LatLongCoordinate,
    Locale,
    ModeTransport,
    PhysicalLocation,
    ProductLocation,
    Region,
    SymbolicLocation,
    Where,
)
from gloss.temporal import Period, SymbolicTime, TemporalRegion, Time, TimeOfDay
from gloss.trails import (
    ArchetypalNode,
    ArchetypalTrail,
    FixedSpatial,
    FixedTime,
    IntentionalNode,
    IntentionalTrail,
    Manual,
    ObservedNode,
    ObservedTrail,
    Path,
    Proximity,
    Route,
    TrailEdge,
    _when_millis,
    admits,
    distill_archetypal,
    export_archetypal,
    export_observed,
    import_observed,
    parse_id_key,
    policy_rule,
    recommended_order,
    routes_through,
)
from gloss.wire import (
    LocationEvent,
    Observation,
    parse_location_event,
    serialize_location_event,
    serialize_where,
)

SUBJECT = Id(IdKind.BIT_STRING, "walker")
BASE = LatLongCoordinate(56.34, -2.8)


def T(seconds: float) -> Time:
    return Time(int(seconds * 1000))


def W(coord: LatLongCoordinate) -> Where:
    return Where(PhysicalLocation(coord))


def _site(bearing: float, metres: float) -> LatLongCoordinate:
    return destination_point(BASE, bearing, metres)


# three well-separated sites, >> epsilon apart
SITE_A = BASE
SITE_B = _site(90.0, 1000.0)
SITE_C = _site(90.0, 2000.0)


def _node(t: float, coord: LatLongCoordinate, info=None) -> ObservedNode:
    return ObservedNode(T(t), W(coord), info)


def _trail(*nodes) -> ObservedTrail:
    return ObservedTrail(SUBJECT, tuple(nodes))


def _bfs_clusters(coords, eps_m):
    """Connected components over the <=eps_m graph, numbered by first
    appearance; the independent view of single-linkage clustering."""
    n = len(coords)
    adj = [
        [j for j in range(n) if great_circle_distance(coords[i], coords[j]).value <= eps_m]
        for i in range(n)
    ]
    label = [None] * n
    next_label = 0
    for i in range(n):
        if label[i] is not None:
            continue
        frontier = [i]
        label[i] = next_label
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if label[v] is None:
                    label[v] = next_label
                    frontier.append(v)
        next_label += 1
    return label


class TestWhenOrdering:
    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(OutOfOrderObservation):
            _trail(_node(10, SITE_A), _node(5, SITE_B))

    def test_equal_timestamps_allowed(self):
        t = _trail(_node(10, SITE_A), _node(10, SITE_B))
        assert len(t.nodes) == 2

    def test_period_sets_order_by_earliest_start(self):
        region = TemporalRegion([Period(T(50), T(60)), Period(T(5), T(8))])
        lunch = SymbolicTime("lunchtime", TemporalRegion([Period(T(7), T(9))]))
        # region's earliest start is 5s, the symbolic time's is 7s
        t = _trail(
            ObservedNode(region, W(SITE_A)),
            ObservedNode(lunch, W(SITE_B)),
            _node(7, SITE_C),
        )
        assert len(t.nodes) == 3
        with pytest.raises(OutOfOrderObservation):
            _trail(ObservedNode(lunch, W(SITE_A)), ObservedNode(region, W(SITE_B)))

    def test_stamp_that_is_not_a_when_is_refused(self):
        with pytest.raises(TypeError, match="not a When"):
            _trail(ObservedNode("x", W(SITE_A)))


class TestRecordObservation:
    def test_first_observation_always_kept(self):
        empty = _trail()
        from gloss.trails import record_observation

        got = record_observation(empty, _node(0, SITE_A), FixedTime(3600.0))
        assert len(got.nodes) == 1

    def test_manual_keeps_everything(self):
        from gloss.trails import record_observation

        t = _trail(_node(0, SITE_A))
        t = record_observation(t, _node(0.001, SITE_A), Manual())
        assert len(t.nodes) == 2

    def test_fixed_time_threshold_is_closed(self):
        from gloss.trails import record_observation

        t = _trail(_node(0, SITE_A))
        policy = FixedTime(30.0)
        unchanged = record_observation(t, _node(29.999, SITE_B), policy)
        assert unchanged is t
        grown = record_observation(t, _node(30.0, SITE_B), policy)
        assert len(grown.nodes) == 2

    @pytest.mark.parametrize("seconds", [math.nan, -1.0, -math.inf])
    def test_fixed_time_refuses_nan_and_negative_intervals(self, seconds):
        with pytest.raises(OutOfRange):
            FixedTime(seconds)

    def test_fixed_spatial_threshold(self):
        from gloss.trails import record_observation

        t = _trail(_node(0, SITE_A))
        policy = FixedSpatial(Distance(500.0))
        near = record_observation(t, _node(1, _site(0.0, 499.0)), policy)
        assert near is t
        far = record_observation(t, _node(1, _site(0.0, 501.0)), policy)
        assert len(far.nodes) == 2

    def test_proximity_designated_regions(self):
        from gloss.trails import record_observation

        designated = (Region(PhysicalLocation(SITE_B)),)
        policy = Proximity(designated, Distance(100.0))
        t = _trail(_node(0, SITE_A))
        t2 = record_observation(t, _node(1, _site(90.0, 950.0)), policy)
        assert len(t2.nodes) == 2  # 50 m from site B
        t3 = record_observation(t, _node(1, _site(90.0, 500.0)), policy)
        assert t3 is t  # 500 m from site B

    def test_proximity_needs_anchor_coordinate(self):
        from gloss.trails import record_observation

        policy = Proximity((Region(PhysicalLocation()),), Distance(10.0))
        t = _trail(_node(0, SITE_A))
        with pytest.raises(Unresolvable):
            record_observation(t, _node(1, SITE_B), policy)

    def test_out_of_order_candidate_rejected(self):
        from gloss.trails import record_observation

        t = _trail(_node(10, SITE_A))
        with pytest.raises(OutOfOrderObservation):
            record_observation(t, _node(5, SITE_B), Manual())


def _admits_before(last, candidate, policy, gazetteer=None):
    """admits as it read before policies were split into a per-node key and
    a decision, resolving both wheres on every call: the oracle."""
    if last is None or isinstance(policy, Manual):
        return True
    if isinstance(policy, FixedTime):
        delta = (_when_millis(candidate.when) - _when_millis(last.when)) / 1000.0
        return delta >= policy.interval_seconds
    if isinstance(policy, FixedSpatial):
        moved = great_circle_distance(
            resolved_point(last.where, gazetteer), resolved_point(candidate.where, gazetteer)
        )
        return moved.value >= geo.distance_in_metres(policy.min_distance)
    if isinstance(policy, Proximity):
        p = resolved_point(candidate.where, gazetteer)
        reach = geo.distance_in_metres(policy.threshold)
        for region in policy.designated:
            anchor = region.distinguished_point.coordinate
            if anchor is None:
                raise Unresolvable("designated region has no distinguished coordinate")
            if great_circle_distance(anchor, p).value <= reach:
                return True
        return False
    raise TypeError(f"not a recording policy: {policy!r}")


_KEY_GAZETTEER = Gazetteer({"b": SymbolicLocation(region=Region(PhysicalLocation(SITE_B)))})
_coordinates = st.builds(
    LatLongCoordinate, st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)
)
_wheres = st.one_of(
    _coordinates.map(W),
    st.sampled_from(
        [
            W(SITE_A),
            W(_site(90.0, 99.0)),
            Where(SymbolicLocation(), name="b"),
            Where(SymbolicLocation(), name="nowhere"),
            Where(None),
            Where(PhysicalLocation()),
            Where(Locale()),
        ]
    ),
)
_key_nodes = st.builds(
    lambda seconds, where: ObservedNode(T(seconds), where),
    st.integers(0, 10), _wheres
)
_key_policies = st.sampled_from(
    [
        Manual(),
        FixedTime(2.0),
        FixedSpatial(Distance(100.0)),
        FixedSpatial(Distance(0.1, DistanceUnit.KM)),
        Proximity((), Distance(100.0)),
        Proximity((Region(PhysicalLocation(SITE_B)),), Distance(500.0)),
        Proximity(
            (Region(PhysicalLocation(SITE_A)), Region(PhysicalLocation())), Distance(150.0)
        ),
    ]
)


def _outcome(decide, *args):
    try:
        return decide(*args)
    except (Unresolvable, EmptyWhere) as exc:
        return type(exc), str(exc)


class TestPolicyKeys:
    @given(_key_policies, st.one_of(st.none(), _key_nodes), _key_nodes)
    @settings(max_examples=400)
    def test_admits_matches_resolving_every_call(self, policy, last, candidate):
        for gazetteer in (None, _KEY_GAZETTEER):
            assert _outcome(admits, last, candidate, policy, gazetteer) == _outcome(
                _admits_before, last, candidate, policy, gazetteer
            )

    @given(_coordinates, _coordinates)
    @settings(max_examples=300)
    def test_thresholds_hold_bit_for_bit(self, a, b):
        # a threshold of exactly the great-circle distance is met, one ulp more is not
        d = great_circle_distance(a, b).value
        last, candidate = ObservedNode(T(0), W(a)), ObservedNode(T(1), W(b))
        assert admits(last, candidate, FixedSpatial(Distance(d)))
        assert not admits(last, candidate, FixedSpatial(Distance(math.nextafter(d, math.inf))))
        near = Proximity((Region(PhysicalLocation(a)),), Distance(d))
        assert admits(last, candidate, near)
        if d > 0:
            short = Proximity((Region(PhysicalLocation(a)),), Distance(math.nextafter(d, 0.0)))
            assert not admits(last, candidate, short)

    def test_store_decisions_on_unplaceable_keys(self):
        key, decide = policy_rule(FixedSpatial(Distance(100.0)))
        here = key(_node(0, SITE_A))
        assert decide(here, key(_node(1, SITE_B)))
        assert not decide(None, key(_node(1, SITE_B)))  # nothing after an unplaceable node
        assert not decide(here, None)
        key, decide = policy_rule(Proximity((Region(PhysicalLocation(SITE_B)),), Distance(10.0)))
        assert decide(None, key(_node(1, SITE_B)))  # Proximity ignores the last node
        assert not decide(None, None)

    def test_unknown_policy(self):
        assert admits(None, _node(0, SITE_A), "sometimes")  # the first node is always kept
        with pytest.raises(TypeError):
            admits(_node(0, SITE_A), _node(1, SITE_B), "sometimes")


class TestClustering:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=360.0),
                st.floats(min_value=0.0, max_value=500.0),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([30.0, 80.0, 150.0, 400.0]),
    )
    @settings(max_examples=150)
    def test_matches_bfs_components(self, offsets, eps_m):
        coords = [destination_point(BASE, brg, d) for brg, d in offsets]
        assert components_within(coords, eps_m) == _bfs_clusters(coords, eps_m)

    def test_chaining_merges_beyond_epsilon(self):
        # 0 -- 90 -- 180 m: single linkage chains all three at eps=100
        coords = [_site(90.0, d) for d in (0.0, 90.0, 180.0)]
        assert components_within(coords, 100.0) == [0, 0, 0]
        assert components_within(coords, 80.0) == [0, 1, 2]

    def test_numbering_follows_first_appearance(self):
        coords = [SITE_C, SITE_A, SITE_C, SITE_B]
        assert components_within(coords, 100.0) == [0, 1, 0, 2]

    def test_dense_spot_costs_a_few_tests_per_point(self, monkeypatch):
        calls = 0
        kernel = geo._haversine_m

        def counting(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        monkeypatch.setattr(geo, "_haversine_m", counting)
        points = [destination_point(SITE_A, 137.5 * k, 20.0 * (k % 97) / 97) for k in range(1000)]
        assert components_within(points, 100.0) == [0] * 1000
        assert calls <= 2 * len(points)  # testing every pair would take 499 500


class TestDistill:
    def _walks(self):
        # two identical A->B->C walks and one B->A, jitter under eps/2
        def jig(site, brg, d):
            return destination_point(site, brg, d)

        t1 = _trail(
            _node(0, jig(SITE_A, 10, 20), Information(("start here",), ())),
            _node(60, jig(SITE_B, 200, 30)),
            _node(150, jig(SITE_C, 80, 10)),
        )
        t2 = _trail(
            _node(1000, jig(SITE_A, 300, 15)),
            _node(1070, jig(SITE_B, 40, 25), Information((), ("https://b.example",))),
            _node(1150, jig(SITE_C, 120, 5)),
        )
        t3 = _trail(_node(2000, jig(SITE_B, 0, 5)), _node(2040, jig(SITE_A, 0, 5)))
        return [t1, t2, t3]

    def test_three_sites_distilled(self):
        got = distill_archetypal(self._walks(), Distance(100.0))
        assert [n.key for n in got.nodes] == ["n0", "n1", "n2"]
        # centroids stay within the jitter radius of each true site
        for node, site in zip(got.nodes, (SITE_A, SITE_B, SITE_C)):
            p = node.where.payload.coordinate
            assert great_circle_distance(p, site).value < 50.0
        assert {(e.source, e.target) for e in got.edges} == {
            ("n0", "n1"),
            ("n1", "n2"),
            ("n1", "n0"),
        }
        assert got.recommended_order == ("n0", "n1", "n2")

    def test_median_travel_seconds(self):
        got = distill_archetypal(self._walks(), Distance(100.0))
        by_hop = {(e.source, e.target): e.median_travel_seconds for e in got.edges}
        assert by_hop[("n0", "n1")] == statistics.median([60.0, 70.0])
        assert by_hop[("n1", "n2")] == statistics.median([90.0, 80.0])
        assert by_hop[("n1", "n0")] == 40.0

    def test_empty_trail_adds_nothing(self):
        # last, so that reading past its empty span would run off the end
        first = self._walks()[0]
        got = distill_archetypal([first, ObservedTrail(SUBJECT, ())], Distance(100.0))
        assert got == distill_archetypal([first], Distance(100.0))

    def test_info_merged_onto_nodes(self):
        got = distill_archetypal(self._walks(), Distance(100.0))
        assert got.nodes[0].info.info == ("start here",)
        assert got.nodes[1].info.links == ("https://b.example",)

    def test_merged_info_keeps_first_appearance_once(self):
        walk = _trail(
            _node(0, SITE_A, Information(("b", "a"), ("https://2",))),
            _node(10, SITE_A, Information()),
            _node(20, SITE_A),
            _node(30, SITE_A, Information(("c", "b"), ("https://1", "https://2"))),
            _node(40, SITE_B, Information(("far",), ())),
        )
        later = _trail(_node(100, SITE_A, Information(("a", "d", "c"), ("https://3", "https://1"))))
        got = distill_archetypal([walk, later], Distance(100.0))
        assert got.nodes[0].info == Information(
            ("b", "a", "c", "d"), ("https://2", "https://1", "https://3")
        )
        assert got.nodes[1].info == Information(("far",), ())

    def test_deterministic(self):
        walks = self._walks()
        assert distill_archetypal(walks, Distance(100.0)) == distill_archetypal(
            walks, Distance(100.0)
        )

    def test_most_frequent_covering_sequence_wins(self):
        reverse = _trail(
            _node(5000, SITE_C), _node(5050, SITE_B), _node(5100, SITE_A)
        )
        got = distill_archetypal(self._walks() + [reverse], Distance(100.0))
        # forward cover appears twice, reverse once
        assert got.recommended_order == ("n0", "n1", "n2")

    def test_frequency_tie_breaks_on_earliest_walk(self):
        forward = _trail(_node(100, SITE_A), _node(160, SITE_B), _node(220, SITE_C))
        reverse = _trail(_node(0, SITE_C), _node(60, SITE_B), _node(120, SITE_A))
        got = distill_archetypal([forward, reverse], Distance(100.0))
        # keys number by first appearance: n0=A n1=B n2=C; the reverse walk
        # started earlier, so its sequence wins the one-all tie
        assert got.recommended_order == ("n2", "n1", "n0")

    def test_fallback_exhaustive_order(self):
        # A->B->A never covers {A,B} exactly once, but the edges do
        loop = _trail(_node(0, SITE_A), _node(60, SITE_B), _node(120, SITE_A))
        got = distill_archetypal([loop], Distance(100.0))
        assert got.recommended_order == ("n0", "n1")

    def test_no_order_exists(self):
        walks = [
            _trail(_node(0, SITE_A), _node(60, SITE_B)),
            _trail(_node(100, SITE_C), _node(160, SITE_B)),
        ]
        with pytest.raises(NoOrderExists):
            distill_archetypal(walks, Distance(100.0))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            distill_archetypal([], Distance(100.0))
        with pytest.raises(EmptyInput):
            distill_archetypal([_trail()], Distance(100.0))

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            distill_archetypal([_trail(_node(0, SITE_A))], Distance(0.0))

    def test_epsilon_unit_respected(self):
        # 0.12 km = 120 m merges the 100 m pair that 100 m epsilon keeps apart
        pair = [_trail(_node(0, SITE_A), _node(10, _site(0.0, 110.0)))]
        two = distill_archetypal(pair, Distance(100.0))
        assert len(two.nodes) == 2
        one = distill_archetypal(pair, Distance(0.12, DistanceUnit.KM))
        assert len(one.nodes) == 1

    def test_large_graph_without_cover_is_refused(self):
        walks = [
            _trail(_node(i * 10, _site(45.0, 1000.0 * (i + 3))), _node(i * 10 + 5, SITE_A))
            for i in range(13)
        ]
        with pytest.raises(NoOrderExists):
            distill_archetypal(walks, Distance(100.0))


class TestRecommendedOrder:
    def _graph(self, keys, edges, order):
        nodes = tuple(
            ArchetypalNode(k, W(_site(float(i * 7), 100.0 * (i + 1))))
            for i, k in enumerate(keys)
        )
        return ArchetypalTrail(nodes, tuple(edges), tuple(order))

    def test_without_mode_returns_stored(self):
        trail = self._graph(
            ["a", "b"], [TrailEdge("a", "b", ModeTransport.FOOT)], ["a", "b"]
        )
        assert recommended_order(trail) == ("a", "b")

    def test_mode_filtered_search(self):
        edges = [
            TrailEdge("a", "b", ModeTransport.FOOT),
            TrailEdge("b", "c", ModeTransport.FOOT),
            TrailEdge("a", "c", ModeTransport.TRAIN),
        ]
        trail = self._graph(["a", "b", "c"], edges, ["a", "b", "c"])
        assert recommended_order(trail, ModeTransport.FOOT) == ("a", "b", "c")
        with pytest.raises(NoOrderExists):
            recommended_order(trail, ModeTransport.TRAIN)

    def test_matches_permutation_oracle(self):
        rng = random.Random(401)
        for _ in range(40):
            n = rng.randint(2, 5)
            keys = [f"k{i}" for i in range(n)]
            pairs = {
                (a, b)
                for a in keys
                for b in keys
                if a != b and rng.random() < 0.45
            }
            edges = [TrailEdge(a, b, ModeTransport.FOOT) for a, b in sorted(pairs)]
            stored = None
            for perm in itertools.permutations(sorted(keys)):
                if all(p in pairs for p in zip(perm, perm[1:])):
                    stored = perm
                    break
            if stored is None:
                continue  # need a valid stored order to build the trail at all
            trail = self._graph(keys, edges, stored)
            assert recommended_order(trail, ModeTransport.FOOT) == stored

    def test_size_cap(self):
        keys = [f"k{i:02d}" for i in range(13)]
        edges = [TrailEdge(a, b) for a, b in zip(keys, keys[1:])]
        trail = self._graph(keys, edges, keys)
        with pytest.raises(TooLarge):
            recommended_order(trail, ModeTransport.FOOT)

    def test_constructor_rejects_bad_orders(self):
        nodes = (ArchetypalNode("a", W(SITE_A)), ArchetypalNode("b", W(SITE_B)))
        edge = TrailEdge("a", "b")
        with pytest.raises(ValueError):
            ArchetypalTrail(nodes, (edge,), ("a",))  # misses b
        with pytest.raises(ValueError):
            ArchetypalTrail(nodes, (edge,), ("b", "a"))  # b->a is not an edge
        with pytest.raises(ValueError):
            ArchetypalTrail(nodes, (TrailEdge("a", "zz"),), ("a", "b"))
        with pytest.raises(ValueError):
            ArchetypalTrail(nodes + (ArchetypalNode("a", W(SITE_C)),), (), ())


_ROUTE_PLACES = [W(_site(float(b), 300.0)) for b in range(0, 360, 50)]  # seven places


@st.composite
def _route_searches(draw):
    """A route search over 2-7 places: any start and end (equal too), and
    paths drawn with repeats, self-loops and parallel modes, given as a
    set, a frozenset or a tuple."""
    places = _ROUTE_PLACES[: draw(st.integers(2, len(_ROUTE_PLACES)))]
    place = st.sampled_from(places)
    hops = draw(
        st.lists(
            st.tuples(place, place, st.sampled_from([None, ModeTransport.FOOT, ModeTransport.CAR])),
            max_size=2 * len(places),
        )
    )
    connectivity = draw(st.sampled_from([set, frozenset, tuple]))(Path(*hop) for hop in hops)
    return places, draw(place), draw(place), connectivity


def _sorted_by_hop_keys(routes):
    """The order routes_through gave by sorting on the full key, kept as an
    oracle: length first, then each hop's serialized ends and mode."""

    def full_key(r: Route):
        hops = tuple(
            (
                serialize_where(p.from_where),
                serialize_where(p.to_where),
                "" if p.mode is None else p.mode.value,
            )
            for p in r.paths
        )
        return (len(r.paths), hops)

    return sorted(routes, key=full_key)


class TestRoutesThrough:
    W1, W2, W3, W4 = (W(_site(float(b), 300.0)) for b in (0, 90, 180, 270))

    def _trail_of(self, *wheres):
        return IntentionalTrail("errand", [IntentionalNode(w) for w in wheres])

    def test_all_simple_routes_sorted(self):
        trail = self._trail_of(self.W1, self.W2, self.W3, self.W4)
        paths = {
            Path(self.W1, self.W2),
            Path(self.W2, self.W4),
            Path(self.W1, self.W3),
            Path(self.W3, self.W4),
            Path(self.W2, self.W3),
        }
        got = routes_through(trail, self.W1, self.W4, paths)
        as_hops = [tuple((p.from_where, p.to_where) for p in r.paths) for r in got]
        assert len(as_hops) == 3
        assert sorted(len(h) for h in as_hops) == [2, 2, 3]
        assert ((self.W1, self.W2), (self.W2, self.W3), (self.W3, self.W4)) in as_hops
        # shortest first
        assert all(len(a.paths) <= len(b.paths) for a, b in zip(got, got[1:]))

    def test_matches_permutation_oracle(self):
        wheres = [self.W1, self.W2, self.W3, self.W4]
        rng = random.Random(977)
        for _ in range(30):
            pairs = {
                (i, j)
                for i in range(4)
                for j in range(4)
                if i != j and rng.random() < 0.5
            }
            paths = {Path(wheres[i], wheres[j]) for i, j in pairs}
            got = routes_through(self._trail_of(*wheres), self.W1, self.W4, paths)
            expected = set()
            for k in range(3):
                for mid in itertools.permutations([1, 2], k):
                    seq = (0,) + mid + (3,)
                    if all(p in pairs for p in zip(seq, seq[1:])):
                        expected.add(seq)
            got_seqs = set()
            for r in got:
                seq = [0]
                for p in r.paths:
                    seq.append(wheres.index(p.to_where))
                got_seqs.add(tuple(seq))
            assert got_seqs == expected

    def test_routes_stop_at_the_end(self):
        trail = self._trail_of(self.W1, self.W2, self.W3)
        paths = {Path(self.W1, self.W2), Path(self.W2, self.W3), Path(self.W3, self.W2)}
        got = routes_through(trail, self.W1, self.W2, paths)
        assert len(got) == 1
        assert len(got[0].paths) == 1

    def test_parallel_paths_both_enumerated(self):
        trail = self._trail_of(self.W1, self.W2)
        paths = {
            Path(self.W1, self.W2, ModeTransport.FOOT),
            Path(self.W1, self.W2, None),
        }
        got = routes_through(trail, self.W1, self.W2, paths)
        assert [r.paths[0].mode for r in got] == [None, ModeTransport.FOOT]

    def test_start_equals_end(self):
        trail = self._trail_of(self.W1, self.W2)
        got = routes_through(trail, self.W1, self.W1, {Path(self.W1, self.W2)})
        assert got == [Route(())]

    def test_unknown_endpoints(self):
        trail = self._trail_of(self.W1, self.W2)
        with pytest.raises(UnknownEndpoint):
            routes_through(trail, self.W3, self.W2, set())
        with pytest.raises(UnknownEndpoint):
            routes_through(trail, self.W1, self.W3, set())

    def test_size_cap(self):
        wheres = [W(_site(float(b * 5), 400.0)) for b in range(13)]
        trail = self._trail_of(*wheres)
        with pytest.raises(TooLarge):
            routes_through(trail, wheres[0], wheres[1], set())

    def _assert_one_node(self, a, b):
        # a and b are equal places: one node, so the route chains
        start, end = self.W1, self.W2
        trail = self._trail_of(start, a, end)
        (route,) = routes_through(trail, start, end, (Path(start, b), Path(a, end)))
        assert route.paths == (Path(start, b), Path(a, end))

    def test_fragment_spellings_are_one_node(self):
        self._assert_one_node(
            Where(Locale(extensions=('<e xmlns="urn:x"/>',))),
            Where(Locale(extensions=('<e xmlns="urn:x"></e>',))),
        )

    def test_sub_millisecond_opening_times_are_one_node(self):
        def shop(opens):
            return Where(SymbolicLocation(subtype=ProductLocation(open_time=TimeOfDay(opens))))

        self._assert_one_node(shop(32400.0004), shop(32400.0))

    def test_negative_zero_is_one_node(self):
        self._assert_one_node(
            Where(PhysicalLocation(LatLongCoordinate(0.0, 2.0))),
            Where(PhysicalLocation(LatLongCoordinate(-0.0, 2.0))),
        )

    def test_route_chaining_enforced(self):
        with pytest.raises(ValueError):
            Route((Path(self.W1, self.W2), Path(self.W3, self.W4)))

    @given(_route_searches())
    @example((  # a path given twice in a tuple
        _ROUTE_PLACES[:3], _ROUTE_PLACES[0], _ROUTE_PLACES[1],
        (
            Path(_ROUTE_PLACES[0], _ROUTE_PLACES[2]),
            Path(_ROUTE_PLACES[0], _ROUTE_PLACES[2]),
            Path(_ROUTE_PLACES[2], _ROUTE_PLACES[1]),
            Path(_ROUTE_PLACES[2], _ROUTE_PLACES[1], ModeTransport.FOOT),
        ),
    ))
    @settings(max_examples=300, deadline=None)
    def test_order_matches_the_full_hop_key_sort(self, search):
        places, start, end, connectivity = search
        trail = self._trail_of(*places)
        got = routes_through(trail, start, end, connectivity)
        # the walk did not change and the sort is stable, so sorting its
        # routes by the full key gives the list the full-key sort returned
        assert got == _sorted_by_hop_keys(got)
        assert len(set(got)) == len(got)  # a path given twice counts once


_NOTES = (
    Information(("note",), ()),
    Information((), ("https://x.example/a b",)),
    Information(("", "  two words"), ("l",)),
)


@st.composite
def _annotated_trails(draw):
    """Trails of 0-30 nodes with info on a subset: none, all, the first,
    the last, consecutive pairs, or any."""
    n = draw(st.integers(0, 30))
    pairs = {k for k in range(n) if k % 5 in (1, 2)}
    chosen = draw(
        st.sampled_from([set(), set(range(n)), {0}, {n - 1}, pairs])
        | st.sets(st.integers(0, max(n - 1, 0)), max_size=n)
    )
    t = 0
    nodes = []
    for k in range(n):
        t += draw(st.integers(0, 120))
        info = draw(st.sampled_from(_NOTES)) if k in chosen else None
        nodes.append(_node(t, draw(st.sampled_from([SITE_A, SITE_B, SITE_C])), info))
    return _trail(*nodes)


class TestExportImport:
    def _rich_trail(self):
        return ObservedTrail(
            Id(IdKind.PHONE, "+44 79 41"),
            (
                _node(0, SITE_A, Information(("left home", "locked door"), ())),
                _node(60, SITE_B),
                _node(120, SITE_C, Information((), ("https://c.example/a b",))),
            ),
        )

    @pytest.mark.parametrize(
        "policy",
        [
            Manual(),
            FixedTime(30.0),
            FixedSpatial(Distance(5.0, DistanceUnit.M)),
            Proximity((), Distance(0.25, DistanceUnit.NAUTICAL_MILES)),
        ],
    )
    def test_round_trip(self, tmp_path, policy):
        trail = self._rich_trail()
        manifest = export_observed(trail, policy, tmp_path / "t")
        got_trail, got_policy = import_observed(manifest)
        assert got_trail == trail
        assert got_policy == policy

    @pytest.mark.parametrize(
        "policy",
        [FixedTime, lambda zero: FixedSpatial(Distance(zero)), lambda zero: Proximity((), Distance(zero))],
        ids=["fixed-time", "fixed-spatial", "proximity"],
    )
    def test_equal_policies_write_one_manifest(self, tmp_path, policy):
        # -0.0 == 0.0: a policy holding either is one value, so one text
        manifests = [
            export_observed(self._rich_trail(), policy(zero), tmp_path / str(k)).read_text()
            for k, zero in enumerate((-0.0, 0.0))
        ]
        assert manifests[0] == manifests[1]

    def test_manifest_layout(self, tmp_path):
        manifest = export_observed(self._rich_trail(), Manual(), tmp_path)
        lines = manifest.read_text().splitlines()
        assert lines[0] == "subject phone:+44 79 41"
        assert lines[1] == "policy manual"
        assert lines[2] == "event 0000.xml"
        assert lines[3] == "info left home"
        assert (tmp_path / "0002.xml").exists()

    def test_period_stamped_nodes_cannot_travel(self, tmp_path):
        region = TemporalRegion([Period(T(0), T(10))])
        trail = ObservedTrail(SUBJECT, (ObservedNode(region, W(SITE_A)),))
        with pytest.raises(ValueError):
            export_observed(trail, Manual(), tmp_path)

    @given(_annotated_trails())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_in_runs(self, trail):
        with tempfile.TemporaryDirectory() as folder:
            manifest = export_observed(trail, Manual(), folder)
            got, _ = import_observed(manifest)
            lines = manifest.read_text().splitlines()
            names = [line[len("event "):] for line in lines if line.startswith("event ")]
            files = sorted(p.name for p in manifest.parent.glob("*.xml"))
            runs = [parse_location_event((manifest.parent / name).read_bytes()) for name in names]
        assert got == trail
        nodes = trail.nodes
        with_info = sum(node.info is not None for node in nodes)
        assert len(names) == with_info + (bool(nodes) and nodes[-1].info is None)
        # a run ends at a node with info and at the last node, and is named after its end
        ends = [i for i, node in enumerate(nodes) if node.info is not None or i == len(nodes) - 1]
        assert names == files == [f"{i:04d}.xml" for i in ends]
        assert [len(run.observations) for run in runs] == [b - a for a, b in zip([-1] + ends, ends)]

    def test_one_file_per_node_manifest_still_imports(self, tmp_path):
        # the layout export_observed wrote before it grouped runs
        trail = self._rich_trail()
        lines = [f"subject {trail.subject.key}", "policy manual"]
        for i, node in enumerate(trail.nodes):
            observation = Observation(time_of_observation=node.when, where=node.where)
            event = LocationEvent(trail.subject, (), (observation,))
            (tmp_path / f"{i:04d}.xml").write_bytes(serialize_location_event(event))
            lines.append(f"event {i:04d}.xml")
            lines += [f"info {text}" for text in (node.info.info if node.info else ())]
            lines += [f"link {link}" for link in (node.info.links if node.info else ())]
        (tmp_path / "trail.manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert import_observed(tmp_path / "trail.manifest") == (trail, Manual())

    @pytest.mark.parametrize(
        "trail",
        [
            pytest.param(
                _trail(_node(0, SITE_A), ObservedNode(TemporalRegion([Period(T(10), T(20))]), W(SITE_B))),
                id="period-after-time",
            ),
            pytest.param(_trail(_node(0, SITE_A, Information(("a\nlink evil",), ()))), id="info-newline"),
            pytest.param(_trail(_node(0, SITE_A, Information(("a\u2028b",), ()))), id="info-line-separator"),
            pytest.param(_trail(_node(0, SITE_A, Information((), ("a\rb",)))), id="link-carriage-return"),
            pytest.param(_trail(_node(0, SITE_A, Information(("x ",), ()))), id="info-trailing-space"),
            pytest.param(_trail(_node(0, SITE_A, Information((), (" l",)))), id="link-leading-space"),
            pytest.param(_trail(_node(0, SITE_A, Information((), ("l\t",)))), id="link-trailing-tab"),
            pytest.param(
                _trail(_node(0, SITE_A), _node(60, SITE_B, Information()), _node(120, SITE_C)),
                id="empty-information",
            ),
            pytest.param(
                ObservedTrail(Id(IdKind.BIT_STRING, "walker "), (_node(0, SITE_A),)),
                id="subject-trailing-space",
            ),
            pytest.param(
                ObservedTrail(Id(IdKind.BIT_STRING, "walk\x85er"), (_node(0, SITE_A),)),
                id="subject-next-line",
            ),
            pytest.param(
                ObservedTrail(Id(IdKind.PHONE, "abc"), (_node(0, SITE_A),)),
                id="subject-pattern",
            ),
        ],
    )
    def test_refused_export_writes_nothing(self, tmp_path, trail):
        with pytest.raises(ValueError):
            export_observed(trail, Manual(), tmp_path / "t")
        assert not (tmp_path / "t").exists()

    def test_designated_regions_cannot_travel(self, tmp_path):
        policy = Proximity((Region(PhysicalLocation(SITE_A)),), Distance(0.25, DistanceUnit.KM))
        with pytest.raises(ValueError):
            export_observed(self._rich_trail(), policy, tmp_path / "t")
        assert not (tmp_path / "t").exists()

    def test_event_files_must_be_about_the_subject(self, tmp_path):
        manifest = export_observed(self._rich_trail(), Manual(), tmp_path)
        text = manifest.read_text()
        manifest.write_text(text.replace("subject phone:+44 79 41", "subject bitString:someone else"))
        with pytest.raises(ValueError, match="0000.xml"):
            import_observed(manifest)

    def test_unreadable_policy_writes_nothing(self, tmp_path):
        # a policy line has no form for designated regions, so it would not read back equal
        policy = Proximity((Region(PhysicalLocation(SITE_B)),), Distance(1.0, DistanceUnit.KM))
        with pytest.raises(ValueError, match="would not read back"):
            export_observed(self._rich_trail(), policy, tmp_path / "t")
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize(
        "line",
        ["fixed-time nan", "fixed-time -1", "fixed-time 1 s", "fixed-spatial 3 parsec",
         "fixed-spatial nan m", "proximity -0.5 km", "proximity 1e999x m"],
    )
    def test_unreadable_policy_line_is_bad_input(self, tmp_path, line):
        manifest = export_observed(self._rich_trail(), Manual(), tmp_path)
        manifest.write_text(manifest.read_text().replace("policy manual", f"policy {line}"))
        with pytest.raises(BadInput, match=f"^bad policy line: '{line}'$"):
            import_observed(manifest)

    def test_serialization_failure_writes_nothing(self, tmp_path):
        # a dateTime past the year 9999 has no four-digit lexical form
        late = ObservedNode(Time(Time.from_lexical("9999-12-31T23:59:59.999").epoch_millis + 1),
                            W(SITE_B))
        trail = _trail(_node(0, SITE_A, Information(("a",), ())), late)
        with pytest.raises(ValueError, match="outside the years 1-9999"):
            export_observed(trail, Manual(), tmp_path / "t")
        assert not (tmp_path / "t").exists()

    def test_deleted_event_file_is_not_found(self, tmp_path):
        manifest = export_observed(self._rich_trail(), Manual(), tmp_path)
        (tmp_path / "0002.xml").unlink()
        with pytest.raises(FileNotFoundError):
            import_observed(manifest)

    def test_info_before_the_first_event_is_refused(self, tmp_path):
        manifest = export_observed(self._rich_trail(), Manual(), tmp_path)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:2] + ["info too early"] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match="too early"):
            import_observed(manifest)

    @pytest.mark.parametrize(
        "line, symlink",
        [
            pytest.param("event ..", False, id="dot-dot"),
            pytest.param("event ../b/0000.xml", False, id="sibling-folder"),
            pytest.param("event {b}/0000.xml", False, id="absolute"),
            pytest.param("event sub/0000.xml", False, id="separator"),
            pytest.param("event 0000.xml\0", False, id="nul"),
            pytest.param("event 0000.xml", True, id="symlink-outside"),
        ],
    )
    def test_event_files_stay_in_the_manifest_folder(self, tmp_path, line, symlink):
        # a's manifest reaches for the good export in b; every file it names exists
        export_observed(_trail(_node(0, SITE_A)), Manual(), tmp_path / "b")
        (tmp_path / "a" / "sub").mkdir(parents=True)
        (tmp_path / "a" / "sub" / "0000.xml").write_bytes((tmp_path / "b" / "0000.xml").read_bytes())
        if symlink:
            (tmp_path / "a" / "0000.xml").symlink_to(tmp_path / "b" / "0000.xml")
        manifest = tmp_path / "a" / "trail.manifest"
        manifest.write_text(f"subject {SUBJECT.key}\n{line.format(b=tmp_path / 'b')}\n")
        with pytest.raises(ValueError, match="symlink" if symlink else "plain file name"):
            import_observed(manifest)

    @pytest.mark.parametrize("make", [os.mkfifo, os.mkdir], ids=["fifo", "directory"])
    def test_event_file_that_is_not_a_regular_file_is_refused(self, tmp_path, make):
        make(tmp_path / "0000.xml")
        manifest = tmp_path / "trail.manifest"
        manifest.write_text(f"subject {SUBJECT.key}\nevent 0000.xml\n")
        done = threading.Event()

        def writer():
            # an import that waits on the FIFO for a writer gets one, which
            # hangs up at once, so the test fails instead of hanging
            deadline = time.monotonic() + 2
            while not done.is_set() and time.monotonic() < deadline:
                try:
                    os.close(os.open(tmp_path / "0000.xml", os.O_WRONLY | os.O_NONBLOCK))
                    return
                except OSError:  # no reader yet, or a directory
                    time.sleep(0.01)

        helper = threading.Thread(target=writer, daemon=True)
        open_before = len(os.listdir("/proc/self/fd"))
        helper.start()
        try:
            with pytest.raises(ValueError, match="event file 0000.xml is not a regular file"):
                import_observed(manifest)
        finally:
            done.set()
            helper.join()
        assert len(os.listdir("/proc/self/fd")) == open_before  # no descriptor left open

    def test_comment_and_blank_lines_are_skipped(self, tmp_path):
        trail = self._rich_trail()
        manifest = export_observed(trail, FixedTime(30.0), tmp_path)
        lines = manifest.read_text(encoding="utf-8").splitlines()
        padded = ["# exported trail", "", "   # indented comment", "\t"]
        for line in lines:
            padded += [line, "#after " + line.split()[0], "   ", "  # note"]
        manifest.write_text("\n".join(padded) + "\n", encoding="utf-8")
        assert import_observed(manifest) == (trail, FixedTime(30.0))

    def test_export_refuses_an_unknown_policy_before_writing(self, tmp_path):
        folder = tmp_path / "t"
        with pytest.raises(TypeError, match="not a recording policy"):
            export_observed(self._rich_trail(), object(), folder)
        assert not folder.exists()

    def test_import_rejects_junk(self, tmp_path):
        bad = tmp_path / "trail.manifest"
        bad.write_text("subject bitString:x\nfrobnicate hard\n")
        with pytest.raises(ValueError):
            import_observed(bad)
        bad.write_text("policy manual\n")
        with pytest.raises(ValueError):
            import_observed(bad)  # no subject named

    def test_parse_id_key(self):
        assert parse_id_key("phone:+44 1") == Id(IdKind.PHONE, "+44 1")
        assert parse_id_key("bitString:a:b").value == "a:b"
        with pytest.raises(ValueError):
            parse_id_key("no-colon")
        with pytest.raises(ValueError):
            parse_id_key("carrier-pigeon:x")


class TestExportArchetypal:
    def test_listing_format(self):
        nodes = (
            ArchetypalNode("n0", W(LatLongCoordinate(1.5, 2.5)), Information(("hi",), ("https://x",))),
            ArchetypalNode("n1", Where(None)),
        )
        trail = ArchetypalTrail(
            nodes, (TrailEdge("n0", "n1", None, 42.0),), ("n0", "n1")
        )
        text = export_archetypal(trail)
        assert text.splitlines() == [
            "node n0 1.5 2.5",
            "info hi",
            "link https://x",
            "node n1 - -",
            "edge n0 n1 - 42.0",
            "order n0 n1",
        ]

    def test_equal_trails_export_one_listing(self):
        # -0.0 == 0.0, so these trails are equal and hash alike
        def one_node(zero):
            return ArchetypalTrail((ArchetypalNode("n0", W(LatLongCoordinate(zero, zero))),), (), ("n0",))

        def with_edge(zero):
            nodes = (ArchetypalNode("n0", W(SITE_A)), ArchetypalNode("n1", W(SITE_B)))
            return ArchetypalTrail(nodes, (TrailEdge("n0", "n1", None, zero),), ("n0", "n1"))

        for trail in (one_node, with_edge):
            assert trail(-0.0) == trail(0.0)
            assert export_archetypal(trail(-0.0)) == export_archetypal(trail(0.0))

    def test_listing_raises_on_a_where_that_is_not_a_where(self):
        # only a where that names no point prints "-"; a wrong type is a bug
        trail = ArchetypalTrail((ArchetypalNode("n0", LatLongCoordinate(1.5, 2.5)),), (), ("n0",))
        with pytest.raises(AttributeError):
            export_archetypal(trail)

    def test_mode_edge(self):
        nodes = (ArchetypalNode("a", W(SITE_A)), ArchetypalNode("b", W(SITE_B)))
        trail = ArchetypalTrail(
            nodes, (TrailEdge("a", "b", ModeTransport.FOOT),), ("a", "b")
        )
        assert "edge a b Foot -" in export_archetypal(trail)
