"""Spherical geometry and unit conversion, cross-checked against
independent formulations (law of cosines, tangent-plane bearings)."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gloss import geo
from gloss.errors import (
    CoincidentPoints,
    EmptyWhere,
    MissingCoordinate,
    UnitKindMismatch,
    Unresolvable,
    UnsupportedBounds,
)
from gloss.geo import (
    EARTH_RADIUS_M,
    components_within,
    contains,
    convert_quantity,
    destination_point,
    distance_between_wheres,
    distance_in_metres,
    great_circle_distance,
    initial_bearing,
    intersects,
    pairs_within,
    resolved_point,
    spherical_centroid,
)
from gloss.model import (
    Altitude,
    AltitudeUnit,
    CircularBounds,
    Distance,
    DistanceUnit,
    Gazetteer,
    Horizon,
    LatLongCoordinate,
    Locale,
    PhysicalLocation,
    RectangularBounds,
    Region,
    Speed,
    SpeedUnit,
    SymbolicLocation,
    Where,
    resolve_region,
)

# -- oracles ----------------------------------------------------------------


def _law_of_cosines_m(a: LatLongCoordinate, b: LatLongCoordinate) -> float:
    """Spherical law of cosines; ill-conditioned below ~1 km, fine above."""
    p1, p2 = math.radians(a.latitude), math.radians(b.latitude)
    dl = math.radians(b.longitude - a.longitude)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_M * math.acos(max(-1.0, min(1.0, c)))


def _unit_vector(p: LatLongCoordinate):
    lat, lon = math.radians(p.latitude), math.radians(p.longitude)
    return (
        math.cos(lat) * math.cos(lon),
        math.cos(lat) * math.sin(lon),
        math.sin(lat),
    )


def _tangent_bearing_deg(a: LatLongCoordinate, b: LatLongCoordinate) -> float:
    """Bearing via tangent-plane projection: project the chord a->b onto
    the local east/north frame at a.  Undefined at the poles."""
    va, vb = _unit_vector(a), _unit_vector(b)
    dot = sum(x * y for x, y in zip(va, vb))
    chord = [y - dot * x for x, y in zip(va, vb)]
    # east = z_hat x va, normalised; north = va x east
    east = (-va[1], va[0], 0.0)
    norm = math.hypot(east[0], east[1])
    east = (east[0] / norm, east[1] / norm, 0.0)
    north = (
        va[1] * east[2] - va[2] * east[1],
        va[2] * east[0] - va[0] * east[2],
        va[0] * east[1] - va[1] * east[0],
    )
    e = sum(x * y for x, y in zip(chord, east))
    n = sum(x * y for x, y in zip(chord, north))
    return math.degrees(math.atan2(e, n)) % 360.0


coords = st.builds(
    LatLongCoordinate,
    st.floats(min_value=-90.0, max_value=90.0),
    st.floats(min_value=-180.0, max_value=180.0),
)
inland_coords = st.builds(
    LatLongCoordinate,
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.9, max_value=179.9),
)


def _point(lat, lon):
    return LatLongCoordinate(lat, lon)


def _circle(lat, lon, radius_m):
    return CircularBounds(PhysicalLocation(_point(lat, lon)), Distance(radius_m))


def _rect(lat_hi, lon_lo, lat_lo, lon_hi):
    return RectangularBounds(
        PhysicalLocation(_point(lat_hi, lon_lo)),
        PhysicalLocation(_point(lat_lo, lon_hi)),
    )


# -- conversions ------------------------------------------------------------


class TestConversions:
    @pytest.mark.parametrize(
        "q,target,expected",
        [
            (Distance(1.0, DistanceUnit.KM), DistanceUnit.M, 1000.0),
            (Distance(1.0, DistanceUnit.MILES), DistanceUnit.M, 1609.344),
            (Distance(1.0, DistanceUnit.NAUTICAL_MILES), DistanceUnit.M, 1852.0),
            (Distance(1852.0), DistanceUnit.NAUTICAL_MILES, 1.0),
            (Speed(1.0, SpeedUnit.KNOTS), SpeedUnit.M_PER_S, 1852.0 / 3600.0),
            (Speed(3.6, SpeedUnit.KM_PER_H), SpeedUnit.M_PER_S, 1.0),
            (Speed(1.0, SpeedUnit.MILES_PER_H), SpeedUnit.M_PER_S, 1609.344 / 3600.0),
            (Altitude(1.0, AltitudeUnit.FEET), AltitudeUnit.METRES, 0.3048),
        ],
    )
    def test_factor_table(self, q, target, expected):
        got = convert_quantity(q, target)
        assert got.unit is target
        assert math.isclose(got.value, expected, rel_tol=1e-12)

    def test_feet_to_metres_exact(self):
        got = convert_quantity(Altitude(123.45, AltitudeUnit.FEET), AltitudeUnit.METRES)
        assert abs(got.value - 37.62756) <= math.ulp(37.62756)

    def test_same_unit_returns_same_object(self):
        d = Distance(7.0, DistanceUnit.KM)
        assert convert_quantity(d, DistanceUnit.KM) is d

    def test_wire_string_target(self):
        got = convert_quantity(Distance(1.0, DistanceUnit.KM), "m")
        assert got.unit is DistanceUnit.M and got.value == 1000.0

    def test_kind_mismatch(self):
        with pytest.raises(UnitKindMismatch):
            convert_quantity(Distance(1.0), SpeedUnit.KNOTS)
        with pytest.raises(UnitKindMismatch):
            convert_quantity(Speed(1.0), "miles")
        with pytest.raises(UnitKindMismatch):
            convert_quantity("5 km", DistanceUnit.M)

    @given(
        st.floats(min_value=0.0, max_value=1e9),
        st.sampled_from(list(DistanceUnit)),
        st.sampled_from(list(DistanceUnit)),
    )
    def test_round_trip(self, value, u1, u2):
        d = Distance(value, u1)
        back = convert_quantity(convert_quantity(d, u2), u1)
        assert math.isclose(back.value, value, rel_tol=1e-12, abs_tol=1e-12)

    def test_distance_in_metres(self):
        assert distance_in_metres(Distance(2.0, DistanceUnit.KM)) == 2000.0


# Each unit's size as a literal, written apart from the unit enums, so a
# member whose factor drifts (or that has none) shows up here.
_LITERAL_FACTORS = {
    DistanceUnit.M: 1.0,
    DistanceUnit.KM: 1000.0,
    DistanceUnit.MILES: 1609.344,
    DistanceUnit.NAUTICAL_MILES: 1852.0,
    SpeedUnit.M_PER_S: 1.0,
    SpeedUnit.KM_PER_H: 1000.0 / 3600.0,
    SpeedUnit.MILES_PER_H: 1609.344 / 3600.0,
    SpeedUnit.KNOTS: 1852.0 / 3600.0,
    AltitudeUnit.METRES: 1.0,
    AltitudeUnit.FEET: 0.3048,
}

_UNIT_PAIRS = [
    (quantity, u1, u2)
    for quantity, units in ((Altitude, AltitudeUnit), (Distance, DistanceUnit), (Speed, SpeedUnit))
    for u1 in units
    for u2 in units
]


class TestUnitFactorsPinned:
    def test_every_member_carries_its_literal_factor(self):
        members = [*AltitudeUnit, *DistanceUnit, *SpeedUnit]
        assert {u: u.factor for u in members} == _LITERAL_FACTORS

    @pytest.mark.parametrize("quantity,u1,u2", _UNIT_PAIRS)
    @given(
        value=st.floats(min_value=0.0, max_value=1e300) | st.sampled_from([0.1, 123.45, 5e-324]),
        below=st.booleans(),
    )
    @settings(max_examples=30)
    def test_conversion_matches_the_literal_table_bit_for_bit(self, quantity, u1, u2, value, below):
        if below and quantity is Altitude:  # only an altitude may be negative
            value = -value
        got = convert_quantity(quantity(value, u1), u2)
        expected = value if u1 is u2 else value * _LITERAL_FACTORS[u1] / _LITERAL_FACTORS[u2]
        assert type(got) is quantity and got.unit is u2
        assert got.value.hex() == expected.hex()

    @given(value=st.floats(min_value=0.0, max_value=1e300), unit=st.sampled_from(list(DistanceUnit)))
    def test_distance_in_metres_matches_the_literal_table(self, value, unit):
        got = distance_in_metres(Distance(value, unit))
        assert got.hex() == (value * _LITERAL_FACTORS[unit]).hex()


# -- great-circle distance ---------------------------------------------------


class TestDistance:
    def test_identity_is_zero(self):
        p = _point(56.34, -2.87)
        assert great_circle_distance(p, p).value == 0.0

    def test_equator_degree(self):
        d = great_circle_distance(_point(0, 0), _point(0, 1))
        assert math.isclose(d.value, math.pi / 180.0 * EARTH_RADIUS_M, rel_tol=1e-12)

    def test_antipodal(self):
        d = great_circle_distance(_point(0, 0), _point(0, 180))
        assert math.isclose(d.value, math.pi * EARTH_RADIUS_M, rel_tol=1e-12)
        d = great_circle_distance(_point(90, 0), _point(-90, 0))
        assert math.isclose(d.value, math.pi * EARTH_RADIUS_M, rel_tol=1e-12)

    def test_returns_metres(self):
        assert great_circle_distance(_point(0, 0), _point(0, 1)).unit is DistanceUnit.M

    @given(coords, coords)
    def test_symmetry(self, a, b):
        assert great_circle_distance(a, b).value == great_circle_distance(b, a).value

    @given(coords, coords)
    @settings(max_examples=300)
    def test_agrees_with_law_of_cosines(self, a, b):
        d = great_circle_distance(a, b).value
        assume(d > 1000.0)  # law of cosines is ill-conditioned close in
        assert math.isclose(d, _law_of_cosines_m(a, b), rel_tol=1e-6)

    @given(coords, coords, coords)
    @settings(max_examples=300)
    # near-antipodal, on one meridian circle: ac == ab + bc exactly
    @example(_point(0.0, 0.0), _point(1.0, 0.0), _point(0.015625, 180.0))
    def test_triangle_inequality(self, a, b, c):
        ab = great_circle_distance(a, b).value
        bc = great_circle_distance(b, c).value
        ac = great_circle_distance(a, c).value
        assert ac <= ab + bc + 1e-6


# -- fixed-radius neighbour pairs ------------------------------------------------


def _all_pairs_within(points, eps_m):
    return [
        (i, j)
        for i in range(len(points))
        for j in range(i + 1, len(points))
        if great_circle_distance(points[i], points[j]).value <= eps_m
    ]


# antimeridian and poles drawn often, anywhere else sometimes
edge_coords = st.builds(
    LatLongCoordinate,
    st.sampled_from([89.9999, -89.9999, 0.0, 60.0]) | st.floats(-90.0, 90.0),
    st.sampled_from([179.9999, -179.9999, 0.0]) | st.floats(-180.0, 180.0),
)


@st.composite
def neighbour_sets(draw):
    """Points around a few anchors: the anchors themselves, points exactly
    eps away, points up to 3 eps away, and copies of earlier points."""
    eps = draw(
        st.sampled_from([1.0, math.pi * EARTH_RADIUS_M, 4e7])
        | st.floats(min_value=1.0, max_value=4e7)
    )
    anchors = draw(st.lists(edge_coords, min_size=1, max_size=4))
    bearings = st.floats(0.0, 360.0)
    points = []
    for kind in draw(st.lists(st.sampled_from("aenc"), max_size=40)):
        anchor = draw(st.sampled_from(anchors))
        if kind == "a":
            points.append(anchor)
        elif kind == "e":
            points.append(destination_point(anchor, draw(bearings), eps))
        elif kind == "n":
            away = draw(st.floats(0.0, 3 * eps))
            points.append(destination_point(anchor, draw(bearings), away))
        elif points:
            points.append(draw(st.sampled_from(points)))
    return points, eps


class TestPairsWithin:
    def test_empty_and_single(self):
        assert pairs_within([], 10.0) == []
        assert pairs_within([_point(89.9999, 179.9999)], 10.0) == []

    def test_negative_radius_finds_nothing(self):
        assert pairs_within([_point(0.0, 0.0), _point(0.0, 0.0)], -1.0) == []

    @given(neighbour_sets())
    @settings(max_examples=300)
    def test_matches_all_pairs(self, case):
        points, eps = case
        got = pairs_within(points, eps)
        assert all(i < j for i, j in got)
        assert sorted(got) == _all_pairs_within(points, eps)

    def test_tests_only_near_candidates(self, monkeypatch):
        calls = 0
        kernel = geo._haversine_m

        def counting(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        monkeypatch.setattr(geo, "_haversine_m", counting)
        eps = 100.0
        points = [
            destination_point(
                _point(-45.0 + 10.0 * c, 20.0 * c), 7.5 * k, eps / 2 * (k % 6) / 6
            )
            for c in range(10)
            for k in range(48)
        ]
        true_pairs = 10 * (48 * 47 // 2)
        assert len(pairs_within(points, eps)) == true_pairs
        assert calls <= 2 * true_pairs  # all pairs would be 114 960


def _union_find_components(points, eps_m):
    """Single-linkage components the direct way: union every pair
    pairs_within lists, then number the roots by first appearance."""
    parent = list(range(len(points)))  # union-find forest, path halving
    for i, j in pairs_within(points, eps_m):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[j] = i
    numbers = {}
    out = []
    for root in range(len(points)):
        while parent[root] != root:
            root = parent[root]
        out.append(numbers.setdefault(root, len(numbers)))
    return out


@st.composite
def cluster_sets(draw):
    """Like neighbour_sets, with eps from 0 and dense blobs wider than eps:
    runs of up to 30 points within 3 eps of one anchor."""
    eps = draw(
        st.sampled_from([0.0, 1.0, 100.0, math.pi * EARTH_RADIUS_M, 4e7])
        | st.floats(min_value=0.0, max_value=4e7)
    )
    anchors = draw(st.lists(edge_coords, min_size=1, max_size=4))
    bearings = st.floats(0.0, 360.0)
    points = []
    for kind in draw(st.lists(st.sampled_from("aenbc"), max_size=12)):
        anchor = draw(st.sampled_from(anchors))
        if kind == "a":
            points.append(anchor)
        elif kind == "e":
            points.append(destination_point(anchor, draw(bearings), eps))
        elif kind in "nb":
            for _ in range(draw(st.integers(1, 30)) if kind == "b" else 1):
                away = draw(st.floats(0.0, 3 * eps))
                points.append(destination_point(anchor, draw(bearings), away))
        elif points:
            points.append(draw(st.sampled_from(points)))
    return points, eps


class TestComponentsWithin:
    @given(cluster_sets())
    @settings(max_examples=300)
    def test_matches_union_of_all_pairs(self, case):
        points, eps = case
        assert components_within(points, eps) == _union_find_components(points, eps)

    @pytest.mark.parametrize("eps", [-1.0, math.nan, -math.inf])
    def test_no_valid_radius_gives_singletons(self, eps):
        points = [_point(0.0, 0.0)] * 3 + [_point(0.0, 1e-9)]
        assert components_within(points, eps) == [0, 1, 2, 3]


# -- bearings and travel ------------------------------------------------------


class TestBearing:
    def test_cardinal_directions(self):
        origin = _point(0, 0)
        assert math.isclose(initial_bearing(origin, _point(0, 1)), 90.0)
        assert math.isclose(initial_bearing(origin, _point(1, 0)), 0.0)
        assert math.isclose(initial_bearing(origin, _point(0, -1)), 270.0)
        assert math.isclose(initial_bearing(origin, _point(-1, 0)), 180.0)

    def test_coincident_points_rejected(self):
        p = _point(10, 10)
        with pytest.raises(CoincidentPoints):
            initial_bearing(p, p)

    @given(inland_coords, inland_coords)
    @settings(max_examples=300)
    def test_agrees_with_tangent_plane(self, a, b):
        d = great_circle_distance(a, b).value
        assume(1.0 < d < math.pi * EARTH_RADIUS_M * 0.999)
        got = initial_bearing(a, b)
        want = _tangent_bearing_deg(a, b)
        diff = abs(got - want) % 360.0
        assert min(diff, 360.0 - diff) < 1e-6

    @given(
        inland_coords,
        st.floats(min_value=0.0, max_value=360.0),
        st.floats(min_value=1.0, max_value=5_000_000.0),
    )
    @settings(max_examples=300)
    def test_destination_round_trip(self, start, bearing, dist):
        dest = destination_point(start, bearing, dist)
        back = great_circle_distance(start, dest).value
        assert math.isclose(back, dist, rel_tol=1e-9, abs_tol=1e-6)
        assume(abs(dest.latitude) < 89.0 and dist > 1000.0)
        got = initial_bearing(start, dest)
        diff = abs(got - bearing % 360.0) % 360.0
        assert min(diff, 360.0 - diff) < 1e-6


class TestCentroid:
    def test_single_point(self):
        p = _point(56.34, -2.87)
        c = spherical_centroid([p])
        assert math.isclose(c.latitude, p.latitude) and math.isclose(
            c.longitude, p.longitude
        )

    def test_antimeridian_pair(self):
        c = spherical_centroid([_point(0, 179), _point(0, -179)])
        assert abs(abs(c.longitude) - 180.0) < 1e-9
        assert abs(c.latitude) < 1e-9

    def test_balanced_set_falls_back_to_first(self):
        c = spherical_centroid([_point(0, 0), _point(0, 180)])
        assert c == _point(0, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spherical_centroid([])

    @given(
        inland_coords,
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=360.0),
                st.floats(min_value=0.0, max_value=100_000.0),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_centroid_stays_in_cap(self, base, offsets):
        # a spherical cap of angular radius < 90 degrees is convex, so the
        # vector-mean centroid of points inside it cannot leave it
        points = [destination_point(base, brg, d) for brg, d in offsets]
        c = spherical_centroid(points)
        assert great_circle_distance(base, c).value <= 100_000.0 + 1e-3


# -- containment and intersection ---------------------------------------------


class TestContains:
    def test_circle_interior_and_exterior(self):
        circle = _circle(56.34, -2.87, 1000.0)
        assert contains(circle, _point(56.34, -2.87))
        assert contains(circle, destination_point(_point(56.34, -2.87), 45.0, 999.0))
        assert not contains(circle, destination_point(_point(56.34, -2.87), 45.0, 1001.0))

    def test_circle_boundary_is_closed(self):
        centre = _point(56.34, -2.87)
        rim = destination_point(centre, 123.0, 500.0)
        # radius set to the exact computed distance puts rim on the boundary
        exact = great_circle_distance(centre, rim)
        assert contains(CircularBounds(PhysicalLocation(centre), exact), rim)

    def test_rect_corners_are_closed(self):
        rect = _rect(57.0, -3.0, 56.0, -2.0)
        for lat in (56.0, 57.0):
            for lon in (-3.0, -2.0):
                assert contains(rect, _point(lat, lon))
        assert contains(rect, _point(56.5, -2.5))
        assert not contains(rect, _point(55.999, -2.5))
        assert not contains(rect, _point(56.5, -1.999))

    def test_inverted_rect_rejected(self):
        with pytest.raises(UnsupportedBounds):
            contains(_rect(56.0, -2.0, 57.0, -3.0), _point(56.5, -2.5))

    def test_antimeridian_rect_rejected(self):
        # corners read left-to-right across the dateline
        with pytest.raises(UnsupportedBounds):
            contains(_rect(10.0, 170.0, -10.0, -170.0), _point(0.0, 180.0))

    def test_horizon_unsupported(self):
        with pytest.raises(UnsupportedBounds):
            contains(Horizon("what the eye can see"), _point(0, 0))

    def test_missing_centre_coordinate(self):
        circle = CircularBounds(PhysicalLocation(), Distance(10.0))
        with pytest.raises(MissingCoordinate):
            contains(circle, _point(0, 0))

    @given(
        inland_coords,
        st.floats(min_value=0.0, max_value=360.0),
        st.floats(min_value=0.0, max_value=2_000_000.0),
        st.floats(min_value=1.0, max_value=2_000_000.0),
    )
    @settings(max_examples=300)
    def test_containment_tracks_distance(self, centre, bearing, travelled, radius):
        circle = CircularBounds(PhysicalLocation(centre), Distance(radius))
        p = destination_point(centre, bearing, travelled)
        inside = contains(circle, p)
        d = great_circle_distance(centre, p).value
        assert inside == (d <= radius)


class TestIntersects:
    def _region(self, bounds):
        if isinstance(bounds, CircularBounds):
            return Region(bounds.centre, bounds)
        return Region(bounds.top_left, bounds)

    def test_touching_circles(self):
        a = _point(0, 0)
        b = destination_point(a, 90.0, 3000.0)
        r1 = self._region(CircularBounds(PhysicalLocation(a), Distance(1500.0)))
        gap = great_circle_distance(a, b).value
        r2 = self._region(CircularBounds(PhysicalLocation(b), Distance(gap - 1500.0)))
        assert intersects(r1, r2)

    def test_separated_circles(self):
        r1 = self._region(_circle(0, 0, 1000.0))
        r2 = self._region(_circle(0, 1, 1000.0))  # ~111 km apart
        assert not intersects(r1, r2)

    def test_nested_circles(self):
        r1 = self._region(_circle(0, 0, 10_000.0))
        r2 = self._region(_circle(0, 0.01, 10.0))
        assert intersects(r1, r2)

    def test_rect_rect(self):
        a = self._region(_rect(57.0, -3.0, 56.0, -2.0))
        b = self._region(_rect(56.5, -2.5, 55.5, -1.5))  # overlaps corner
        c = self._region(_rect(59.0, -3.0, 58.0, -2.0))  # disjoint
        d = self._region(_rect(58.0, -3.0, 57.0, -2.0))  # shares an edge
        assert intersects(a, b)
        assert not intersects(a, c)
        assert intersects(a, d)

    def test_circle_rect(self):
        rect = self._region(_rect(57.0, -3.0, 56.0, -2.0))
        inside = self._region(_circle(56.5, -2.5, 100.0))
        near = self._region(_circle(56.5, -1.99, 2000.0))  # pokes into the edge
        far = self._region(_circle(56.5, -1.0, 1000.0))
        assert intersects(rect, inside)
        assert intersects(rect, near)
        assert intersects(near, rect)
        assert not intersects(rect, far)

    def test_horizon_unsupported(self):
        r1 = self._region(_circle(0, 0, 1.0))
        r2 = Region(PhysicalLocation(_point(0, 0)), Horizon("the street"))
        with pytest.raises(UnsupportedBounds):
            intersects(r1, r2)

    @given(
        st.floats(min_value=-80, max_value=80),
        st.floats(min_value=-170, max_value=170),
        st.floats(min_value=1.0, max_value=500_000.0),
        st.floats(min_value=-80, max_value=80),
        st.floats(min_value=-170, max_value=170),
        st.floats(min_value=1.0, max_value=500_000.0),
    )
    @settings(max_examples=200)
    def test_circle_circle_symmetry(self, lat1, lon1, rad1, lat2, lon2, rad2):
        r1 = self._region(_circle(lat1, lon1, rad1))
        r2 = self._region(_circle(lat2, lon2, rad2))
        assert intersects(r1, r2) == intersects(r2, r1)


# -- where-level helpers -------------------------------------------------------


class TestWhereHelpers:
    def test_resolved_point(self):
        w = Where(PhysicalLocation(_point(56.34, -2.87)))
        assert resolved_point(w) == _point(56.34, -2.87)

    def test_resolved_point_matches_resolve_region(self):
        def via_region(w, gazetteer):
            coordinate = resolve_region(w, gazetteer).distinguished_point.coordinate
            if coordinate is None:
                raise Unresolvable("resolved region has no distinguished coordinate")
            return coordinate

        def outcome(resolve, w, gazetteer):
            try:
                return resolve(w, gazetteer)
            except (EmptyWhere, Unresolvable) as exc:
                return type(exc), str(exc)

        spot = PhysicalLocation(_point(56.34, -2.87))
        gazetteer = Gazetteer({"quad": SymbolicLocation(region=Region(spot))})
        wheres = [
            Where(spot),
            Where(PhysicalLocation()),  # a point without a coordinate
            Where(None),
            Where(Region(spot, _circle(56.0, -2.0, 50.0))),
            Where(Region(PhysicalLocation(), _circle(56.0, -2.0, 50.0))),
            Where(SymbolicLocation(region=Region(spot))),
            Where(SymbolicLocation(), name="quad"),
            Where(SymbolicLocation(), gloss_urn="quad"),
            Where(SymbolicLocation(), name="nowhere"),
            Where(SymbolicLocation()),  # unnamed
            Where(Locale()),
        ]
        for w in wheres:
            for g in (None, gazetteer):
                assert outcome(resolved_point, w, g) == outcome(via_region, w, g)

    def test_distance_between_wheres(self):
        a = Where(PhysicalLocation(_point(0, 0)))
        b = Where(PhysicalLocation(_point(0, 1)))
        d = distance_between_wheres(a, b)
        assert math.isclose(d.value, math.pi / 180.0 * EARTH_RADIUS_M, rel_tol=1e-12)

    def test_region_without_coordinate(self):
        w = Where(Region(PhysicalLocation(), _circle(0, 0, 1.0)))
        with pytest.raises(MissingCoordinate):
            distance_between_wheres(w, w)
