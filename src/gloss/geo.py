"""Unit-safe quantity conversion and spherical geometry.

All geometry runs on a sphere of radius 6 371 000 m using the haversine
formula (its atan2 form past a quarter circle); regions are closed, so
boundary points count as contained.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    CoincidentPoints,
    MissingCoordinate,
    UnitKindMismatch,
    Unresolvable,
    UnsupportedBounds,
)
from .model import (
    Altitude,
    CircularBounds,
    Distance,
    Gazetteer,
    Horizon,
    LatLongCoordinate,
    PhysicalLocation,
    RectangularBounds,
    Region,
    Speed,
    Where,
    resolve_region,
)

__all__ = [
    "EARTH_RADIUS_M",
    "convert_quantity",
    "distance_in_metres",
    "great_circle_distance",
    "pairs_within",
    "components_within",
    "initial_bearing",
    "destination_point",
    "spherical_centroid",
    "contains",
    "intersects",
    "resolved_point",
    "distance_between_wheres",
]

EARTH_RADIUS_M = 6_371_000.0


def convert_quantity(q, target_unit):
    """Convert a quantity to another unit of the same kind.

    Accepts the unit enum member or its wire string.  Raises
    UnitKindMismatch when the target belongs to a different kind.
    """
    if not isinstance(q, (Altitude, Distance, Speed)):
        raise UnitKindMismatch(f"not a quantity: {q!r}")
    unit_cls = type(q.unit)
    if not isinstance(target_unit, unit_cls):
        try:
            target_unit = unit_cls(target_unit)
        except ValueError:
            raise UnitKindMismatch(
                f"{target_unit!r} is not a {type(q).__name__} unit"
            ) from None
    if target_unit is q.unit:
        return q
    return type(q)(q.value * q.unit.factor / target_unit.factor, target_unit)


def distance_in_metres(d: Distance) -> float:
    return d.value * d.unit.factor


def _haversine_m(lat1, lon1, cos1, lat2, lon2, cos2) -> float:
    """Haversine distance in metres between two points given in radians,
    with the cosine of each latitude precomputed by the caller.  Past a
    quarter circle it takes atan2 of the unit vectors' cross and dot
    products, which stays within a few ulps and symmetric bit for bit."""
    h = math.sin((lat2 - lat1) / 2) ** 2 + cos1 * cos2 * math.sin((lon2 - lon1) / 2) ** 2
    if h > 0.5:  # asin(sqrt(h)) loses digits near antipodes; atan2 does not
        x1, y1, z1 = cos1 * math.cos(lon1), cos1 * math.sin(lon1), math.sin(lat1)
        x2, y2, z2 = cos2 * math.cos(lon2), cos2 * math.sin(lon2), math.sin(lat2)
        cross = math.hypot(y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
        return EARTH_RADIUS_M * math.atan2(cross, x1 * x2 + y1 * y2 + z1 * z2)
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def _radians(p: LatLongCoordinate) -> tuple[float, float, float]:
    """A coordinate as `_haversine_m` takes it: latitude and longitude in
    radians, then the cosine of the latitude."""
    lat = math.radians(p.latitude)
    return lat, math.radians(p.longitude), math.cos(lat)


def great_circle_distance(a: LatLongCoordinate, b: LatLongCoordinate) -> Distance:
    """Haversine distance between two coordinates, in metres."""
    return Distance(_haversine_m(*_radians(a), *_radians(b)))


def _unit_cells(points: list[LatLongCoordinate], eps_m: float):
    """Radians, latitude cosines and grid cell of each point (see
    pairs_within).  Cell (x, y, z) is numbered (x*m + y)*m + z, m being
    over twice any |x|, |y|, |z| of a cell or its neighbour: one-to-one
    and linear, so a cell's 27 neighbours are its number plus offsets."""
    half_angle = min(eps_m / (2 * EARTH_RADIUS_M), math.pi / 2)
    side = 2 * math.sin(half_angle) * (1 + 1e-9) + 1e-12
    m = 2 * math.ceil(1 / side) + 6
    lat = [math.radians(p.latitude) for p in points]
    lon = [math.radians(p.longitude) for p in points]
    cos_lat = list(map(math.cos, lat))
    floor, cos, sin = math.floor, math.cos, math.sin
    cells = [
        (floor(cl * cos(lo) / side) * m + floor(cl * sin(lo) / side)) * m + floor(sin(la) / side)
        for la, lo, cl in zip(lat, lon, cos_lat)
    ]
    steps = itertools.product((-1, 0, 1), repeat=3)  # lexicographic: [13] is (0, 0, 0)
    offsets = [(dx * m + dy) * m + dz for dx, dy, dz in steps]
    return lat, lon, cos_lat, cells, offsets


def pairs_within(points: list[LatLongCoordinate], eps_m: float) -> list[tuple[int, int]]:
    """Every index pair (i, j), i < j, whose great-circle distance is at
    most eps_m, by the same haversine arithmetic as great_circle_distance.

    Candidates come from a hash grid of cubes over the points' unit
    vectors, the fixed-radius neighbourhood search of DBSCAN (Ester et
    al., KDD 1996); each candidate then takes the haversine test.  Why the
    candidates hold every true pair: two points an angle t apart have unit
    vectors a chord 2*sin(t/2) apart, and no Cartesian coordinate differs
    by more than the chord.  The cube side is the chord for eps_m (capped
    at the diameter, 2), so the cells of two points within eps_m differ by
    at most one along each axis, and the 27 cells around a point hold all
    its neighbours.  Near poles and the antimeridian nothing changes: the
    grid lives in 3-D, not in latitude and longitude.  Rounding cannot
    break the argument: the side is padded by a relative 1e-9 and an
    absolute 1e-12, far above the few ulps by which the haversine and the
    unit vectors can be off; the absolute pad also keeps the side
    positive for eps_m = 0.
    """
    if not eps_m >= 0:
        return []
    lat, lon, cos_lat, cells, offsets = _unit_cells(points, eps_m)
    kernel = _haversine_m
    grid: dict[int, list[int]] = {}
    pairs = []
    for i, cell in enumerate(cells):
        la, lo, cl = lat[i], lon[i], cos_lat[i]
        # only points already in the grid (j < i), so each pair is tested once
        for offset in offsets:
            for j in grid.get(cell + offset, ()):
                if kernel(lat[j], lon[j], cos_lat[j], la, lo, cl) <= eps_m:
                    pairs.append((j, i))
        grid.setdefault(cell, []).append(i)
    return pairs


def components_within(points: list[LatLongCoordinate], eps_m: float) -> list[int]:
    """Single-linkage components at eps_m (chains of pairs_within's
    pairs), numbered by first appearance in input order.

    Searched on pairs_within's grid without listing pairs, after de Berg,
    Gunawan and Roeloffzen (arXiv:1702.08607).  A point joins the first
    group in its cell whose leader (first point) is within eps_m, or
    leads a new one; then groups in one or neighbouring cells, unless
    already joined, join at the first pair within eps_m between them.
    Sound: each join rests on one pair's haversine test, symmetric bit
    for bit.  Complete: a true pair's points lie in neighbouring cells
    (see pairs_within), so their groups are compared.  A cell's leaders
    are over eps_m apart, hence few: a dense spot costs about one test
    per point, not one per pair."""
    if not eps_m >= 0:
        return list(range(len(points)))
    lat, lon, cos_lat, cells, offsets = _unit_cells(points, eps_m)
    kernel = _haversine_m
    parent = list(range(len(points)))  # union-find, path halving; a member points at its leader
    leaders: dict[int, list[int]] = {}  # cell -> the first points of its groups
    members: dict[int, list[int]] = {}  # leader -> its group
    for i, cell in enumerate(cells):
        here = leaders.setdefault(cell, [])
        for j in here:
            if kernel(lat[j], lon[j], cos_lat[j], lat[i], lon[i], cos_lat[i]) <= eps_m:
                members[j].append(i)
                parent[i] = j
                break
        else:
            here.append(i)
            members[i] = [i]

    def root(g):
        while parent[g] != g:
            parent[g] = g = parent[parent[g]]
        return g

    # leader pairs in one cell, then across the 13 positive offsets: each cell pair once
    candidates = [pair for here in leaders.values() for pair in itertools.combinations(here, 2)]
    for offset in offsets[14:]:
        for cell in leaders.keys() & map(offset.__add__, leaders):
            candidates += itertools.product(leaders[cell - offset], leaders[cell])
    for g, h in candidates:
        a, b = root(g), root(h)
        if a != b and any(
            kernel(lat[p], lon[p], cos_lat[p], lat[q], lon[q], cos_lat[q]) <= eps_m
            for p in members[g] for q in members[h]
        ):
            parent[b] = a
    numbers: dict[int, int] = {}
    return [numbers.setdefault(root(i), len(numbers)) for i in range(len(points))]


def initial_bearing(a: LatLongCoordinate, b: LatLongCoordinate) -> float:
    """Forward azimuth from a to b, degrees in [0, 360)."""
    if a.latitude == b.latitude and a.longitude == b.longitude:
        raise CoincidentPoints("bearing undefined between identical points")
    lat1, lat2 = math.radians(a.latitude), math.radians(b.latitude)
    dlon = math.radians(b.longitude - a.longitude)
    y = math.sin(dlon) * math.cos(lat2)
    x = math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(dlon)
    return math.degrees(math.atan2(y, x)) % 360.0


def destination_point(
    start: LatLongCoordinate, bearing_deg: float, distance_m: float
) -> LatLongCoordinate:
    """Point reached travelling distance_m along the initial bearing."""
    delta = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    lat1 = math.radians(start.latitude)
    lon1 = math.radians(start.longitude)
    lat2 = math.asin(
        math.sin(lat1) * math.cos(delta) + math.cos(lat1) * math.sin(delta) * math.cos(theta)
    )
    lon2 = lon1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(lat1),
        math.cos(delta) - math.sin(lat1) * math.sin(lat2),
    )
    lon_deg = math.degrees(lon2)
    lon_deg = (lon_deg + 180.0) % 360.0 - 180.0
    return LatLongCoordinate(math.degrees(lat2), lon_deg)


def spherical_centroid(points: list[LatLongCoordinate]) -> LatLongCoordinate:
    """Normalised 3-D vector mean projected back to the sphere.

    Robust near the antimeridian; for a degenerate (balanced) point set the
    first point is returned so the result stays deterministic.
    """
    if not points:
        raise ValueError("centroid of no points")
    sx = sy = sz = 0.0
    for p in points:
        lat, lon = math.radians(p.latitude), math.radians(p.longitude)
        sx += math.cos(lat) * math.cos(lon)
        sy += math.cos(lat) * math.sin(lon)
        sz += math.sin(lat)
    norm = math.sqrt(sx * sx + sy * sy + sz * sz)
    if norm < 1e-9:
        return points[0]
    lat = math.asin(max(-1.0, min(1.0, sz / norm)))
    lon = math.atan2(sy, sx)
    return LatLongCoordinate(math.degrees(lat), math.degrees(lon))


def _require_point(loc, what: str) -> LatLongCoordinate:
    if loc.coordinate is None:
        raise MissingCoordinate(f"{what} has no coordinate")
    return loc.coordinate


def _rect_intervals(b: RectangularBounds):
    tl = _require_point(b.top_left, "rectangle topLeft")
    br = _require_point(b.bottom_right, "rectangle bottomRight")
    # topLeft is the max-lat/min-lon corner; antimeridian crossing unsupported
    if tl.longitude > br.longitude or tl.latitude < br.latitude:
        raise UnsupportedBounds("rectangle corners violate topLeft/bottomRight convention")
    return br.latitude, tl.latitude, tl.longitude, br.longitude


def contains(bounds, p: LatLongCoordinate) -> bool:
    """Closed point-in-bounds test for circular and rectangular bounds."""
    if isinstance(bounds, CircularBounds):
        centre = _require_point(bounds.centre, "circle centre")
        return great_circle_distance(centre, p).value <= distance_in_metres(bounds.radius)
    if isinstance(bounds, RectangularBounds):
        lat_lo, lat_hi, lon_lo, lon_hi = _rect_intervals(bounds)
        return lat_lo <= p.latitude <= lat_hi and lon_lo <= p.longitude <= lon_hi
    raise UnsupportedBounds(f"cannot test containment against {type(bounds).__name__}")


def _circle_rect_intersects(circle: CircularBounds, rect: RectangularBounds) -> bool:
    centre = _require_point(circle.centre, "circle centre")
    lat_lo, lat_hi, lon_lo, lon_hi = _rect_intervals(rect)
    closest_lat = min(max(centre.latitude, lat_lo), lat_hi)
    closest_lon = min(max(centre.longitude, lon_lo), lon_hi)
    # local equirectangular frame at the circle centre
    dy = math.radians(closest_lat - centre.latitude) * EARTH_RADIUS_M
    dx = (
        math.radians(closest_lon - centre.longitude)
        * math.cos(math.radians(centre.latitude))
        * EARTH_RADIUS_M
    )
    return math.hypot(dx, dy) <= distance_in_metres(circle.radius)


def intersects(r1: Region, r2: Region) -> bool:
    """Overlap test between two regions with concrete bounds."""
    b1, b2 = r1.bounds, r2.bounds
    for b in (b1, b2):
        if not isinstance(b, (CircularBounds, RectangularBounds)):
            raise UnsupportedBounds(f"cannot intersect {type(b).__name__}")
    if isinstance(b1, CircularBounds) and isinstance(b2, CircularBounds):
        c1 = _require_point(b1.centre, "circle centre")
        c2 = _require_point(b2.centre, "circle centre")
        reach = distance_in_metres(b1.radius) + distance_in_metres(b2.radius)
        return great_circle_distance(c1, c2).value <= reach
    if isinstance(b1, RectangularBounds) and isinstance(b2, RectangularBounds):
        a_lat_lo, a_lat_hi, a_lon_lo, a_lon_hi = _rect_intervals(b1)
        b_lat_lo, b_lat_hi, b_lon_lo, b_lon_hi = _rect_intervals(b2)
        return (
            a_lat_lo <= b_lat_hi
            and b_lat_lo <= a_lat_hi
            and a_lon_lo <= b_lon_hi
            and b_lon_lo <= a_lon_hi
        )
    if isinstance(b1, CircularBounds):
        return _circle_rect_intersects(b1, b2)
    return _circle_rect_intersects(b2, b1)


def resolved_point(where: Where, gazetteer: Gazetteer | None = None) -> LatLongCoordinate:
    """Collapse a where to its distinguished coordinate."""
    payload = where.payload
    if isinstance(payload, PhysicalLocation) and payload.coordinate is not None:
        return payload.coordinate  # resolve_region would wrap it in a Region
    region = resolve_region(where, gazetteer)
    coordinate = region.distinguished_point.coordinate
    if coordinate is None:
        raise Unresolvable("resolved region has no distinguished coordinate")
    return coordinate


def distance_between_wheres(
    a: Where, b: Where, gazetteer: Gazetteer | None = None
) -> Distance:
    """Great-circle distance between the distinguished points of the
    resolved regions of two Wheres."""
    ra = resolve_region(a, gazetteer)
    rb = resolve_region(b, gazetteer)
    pa = _require_point(ra.distinguished_point, "distinguished point")
    pb = _require_point(rb.distinguished_point, "distinguished point")
    return great_circle_distance(pa, pb)
