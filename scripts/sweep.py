"""Growth of the wire codec, trail distillation, ingest and surface moves with input size.

Each row times n, 2n and 4n items and prints the microseconds per item
at each size and the growth, the 4n cost over the n cost: about 1 for
work per item that does not depend on the size, about 4 for work over
every earlier item.  The rows:

- parse, validate, serialize: per fixed-seed document of
  tests/eventgen.py.  Every document must parse back to its event and
  validate clean; anything else exits 1.
- spot, sites, uniform: per point clustered by the single-linkage step
  of distill_archetypal (gloss.geo.components_within), on layouts
  that keep their density as they grow:
  - spot:    every point within 20 m of one spot, eps 100 m (one cluster);
  - sites:   n/20 sites, 20 fixes within 15 m of each, eps 50 m;
  - uniform: one point per 40 000 m^2, eps 100 m.
- in-order, late: per document ingested into an EventStore that records
  one subject's trail under FixedSpatial(50 m), one observation each.
  The walk moves up to 120 m a step, and one observation in five is a
  gazetteer name.  In late, about one in ten arrives 2-12 places late,
  so the trail's decisions after it are replayed.
- import: per point read back by trails.import_observed from one trail
  of m nodes, info on every 4th, exported untimed into a temporary
  directory.
- place: per move made by Topology.place, m moves of random surfaces
  over a Topology of m surfaces placed within 2 km.

Inputs and stores are built untimed.  A cell's time is the CPU time of
the calling thread, the best of --k passes, multiplied by perfbench's
speed factor (common.speed_scale) from its gauge read just before and
after that cell.  Standard library only.  Run from the repo root:

    python3 scripts/sweep.py --n 1000
"""

import argparse
import math
import platform
import random
import sys
import tempfile
import time
from functools import cache, partial
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEED = 7
for folder in ("src", "tests", "perfbench"):
    sys.path.insert(0, str(REPO / folder))

import eventgen  # noqa: E402
from common import REFERENCE_S, gauge_s, speed_scale  # noqa: E402
from gloss import model, wire  # noqa: E402
from gloss.eventd import EventStore  # noqa: E402
from gloss.geo import components_within, destination_point  # noqa: E402
from gloss.interaction import InteractionResource, Placement, Role, Topology  # noqa: E402
from gloss.temporal import Time  # noqa: E402
from gloss.trails import (  # noqa: E402
    FixedSpatial,
    Manual,
    ObservedNode,
    ObservedTrail,
    export_observed,
    import_observed,
)

HOME = model.LatLongCoordinate(56.34, -2.79)
SUBJECT = model.Id(model.IdKind.BIT_STRING, "walker")
SPOTS = 20


def best_of(k: int, prepare) -> float:
    """Thread-CPU nanoseconds of the fastest of k passes, scaled by the
    gauge read just before and after them.  Each pass calls what prepare()
    returns; prepare() itself is untimed."""
    before = gauge_s()
    best = math.inf
    for _ in range(k):
        run = prepare()
        start = time.thread_time_ns()
        run()
        best = min(best, time.thread_time_ns() - start)
    return best * speed_scale(before, gauge_s())


def each(step, items):
    for item in items:
        step(item)


def _in_disc(rng: random.Random, centre, radius_m: float):
    return destination_point(centre, rng.uniform(0.0, 360.0), radius_m * math.sqrt(rng.random()))


def spot(m: int):
    rng = random.Random(SEED)
    return [_in_disc(rng, HOME, 20.0) for _ in range(m)], 100.0


def sites(m: int):
    rng = random.Random(SEED)
    n_sites = max(1, m // 20)
    centres = [_in_disc(rng, HOME, 200.0 * math.sqrt(n_sites)) for _ in range(n_sites)]
    return [_in_disc(rng, centres[k % n_sites], 15.0) for k in range(m)], 50.0


def uniform(m: int):
    rng = random.Random(SEED)
    radius = math.sqrt(m * 40_000.0 / math.pi)
    return [_in_disc(rng, HOME, radius) for _ in range(m)], 100.0


def store() -> EventStore:
    rng = random.Random(SEED)
    entries = {}
    for k in range(SPOTS):
        point = model.PhysicalLocation(_in_disc(rng, HOME, 2000.0))
        bounds = model.CircularBounds(point, model.Distance(25.0))
        entries[f"spot-{k}"] = model.SymbolicLocation(region=model.Region(point, bounds))
    policy = FixedSpatial(model.Distance(50.0))
    return EventStore(clock=lambda: Time(0), policy=policy, gazetteer=model.Gazetteer(entries))


@cache
def walk(m: int, late: bool) -> list[bytes]:
    rng = random.Random(SEED)
    here = HOME
    observations = []
    for i in range(m):
        if rng.random() < 0.2:
            where = model.Where(model.SymbolicLocation(), name=f"spot-{rng.randrange(SPOTS)}")
        else:
            here = destination_point(here, rng.uniform(0, 360), rng.uniform(0, 120))
            where = model.Where(model.PhysicalLocation(here))
        observations.append(wire.Observation(time_of_observation=Time(i * 60_000), where=where))
    order = list(range(m))
    if late:
        for i in range(1, m - 1):
            if rng.random() < 0.1:
                j = min(m - 1, i + rng.randint(2, 12))
                order.insert(j, order.pop(order.index(i)))
    return [
        wire.serialize_location_event(wire.LocationEvent(SUBJECT, (), (observations[i],)))
        for i in order
    ]


def exported(m: int, folder: Path) -> Path:
    """Export one trail of m nodes, info on every 4th, into folder; returns
    its manifest."""
    rng = random.Random(SEED)
    nodes = [
        ObservedNode(
            Time(i * 60_000),
            model.Where(model.PhysicalLocation(_in_disc(rng, HOME, 2000.0))),
            model.Information((f"note {i}",)) if i % 4 == 3 else None,
        )
        for i in range(m)
    ]
    return export_observed(ObservedTrail(SUBJECT, tuple(nodes)), Manual(), folder / str(m))


def surfaces(m: int):
    """A Topology of m surfaces placed within 2 km of HOME, and m moves
    of random ones among them."""
    rng = random.Random(SEED)

    def where():
        return model.Where(model.PhysicalLocation(_in_disc(rng, HOME, 2000.0)))

    resources = [
        InteractionResource(model.Id(model.IdKind.BIT_STRING, f"s{k}"), {Role.SURFACE}) for k in range(m)
    ]
    topology = Topology(tuple((resource, Placement(where())) for resource in resources))
    return topology, [(resources[rng.randrange(m)], where()) for _ in range(m)]


def move(topology, moves):
    for entity, where in moves:
        topology = topology.place(entity, where)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=1000, help="smallest size (default 1000)")
    parser.add_argument("--k", type=int, default=3, help="passes; the best is kept (default 3)")
    args = parser.parse_args(argv)
    if args.n < 1 or args.k < 1:
        parser.error("--n and --k must be positive")
    sizes = (args.n, 2 * args.n, 4 * args.n)

    rng = random.Random(SEED)
    events = [eventgen.gen_event(rng) for _ in range(sizes[-1])]
    documents = [wire.serialize_location_event(e) for e in events]
    for event, document in zip(events, documents):
        if wire.parse_location_event(document) != event or not wire.validate_document(document).ok:
            print("error: a generated document does not round-trip", file=sys.stderr)
            return 1

    with tempfile.TemporaryDirectory() as scratch:
        # each row maps a size m to a pass over m items
        rows = {
            "parse": lambda m: partial(each, wire.parse_location_event, documents[:m]),
            "validate": lambda m: partial(each, wire.validate_document, documents[:m]),
            "serialize": lambda m: partial(each, wire.serialize_location_event, events[:m]),
            "spot": lambda m: partial(components_within, *spot(m)),
            "sites": lambda m: partial(components_within, *sites(m)),
            "uniform": lambda m: partial(components_within, *uniform(m)),
            "in-order": lambda m: partial(each, store().ingest, walk(m, False)),
            "late": lambda m: partial(each, store().ingest, walk(m, True)),
            "import": lambda m: partial(import_observed, exported(m, Path(scratch))),
            "place": lambda m: partial(move, *surfaces(m)),
        }
        print(f"python {platform.python_version()}, n={args.n}, seed={SEED}, best of {args.k}, "
              f"thread CPU us per item, gauged to {1e3 * REFERENCE_S:g} ms")
        print(f"{'row':<10} {'n_us':>8} {'2n_us':>8} {'4n_us':>8} {'growth':>7}")
        for name, row in rows.items():
            costs = [best_of(args.k, partial(row, m)) / m / 1e3 for m in sizes]
            growth = costs[2] / costs[0] if costs[0] else math.inf
            print(f"{name:<10} " + " ".join(f"{c:8.2f}" for c in costs) + f" {growth:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
