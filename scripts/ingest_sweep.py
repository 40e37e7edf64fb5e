"""Growth of single-subject ingest cost with history length.

Ingests n, 2n and 4n observations of one subject into a fresh EventStore
that records its trail under FixedSpatial(50 m), one observation per
document, and prints the cost per ingest at each size and the 4n/n
growth of that cost.  Ingest that does the same work whatever the history
length grows about 1x; work on the whole history per ingest grows about
4x.  The walk moves up to 120 m per step, and one observation in five is
a gazetteer name instead of a point.  Two delivery orders:

- in-order: by time;
- late:     about one in ten arrives 2-12 places late, so the trail's
            decisions after it are replayed.

Documents are built and serialized untimed.  Times are CPU time of the
calling thread (time.thread_time_ns) for a whole pass, best of --k
passes, divided by the number of documents.  Standard library only.

Run from the repo root:

    python3 scripts/ingest_sweep.py --n 1000
"""

import argparse
import math
import platform
import random
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEED = 13
sys.path.insert(0, str(REPO / "src"))

from gloss.eventd import EventStore  # noqa: E402
from gloss.geo import destination_point  # noqa: E402
from gloss.model import (  # noqa: E402
    CircularBounds,
    Distance,
    Gazetteer,
    Id,
    IdKind,
    LatLongCoordinate,
    PhysicalLocation,
    Region,
    SymbolicLocation,
    Where,
)
from gloss.temporal import Time  # noqa: E402
from gloss.trails import FixedSpatial  # noqa: E402
from gloss.wire import LocationEvent, Observation, serialize_location_event  # noqa: E402

HOME = LatLongCoordinate(56.34, -2.79)
SUBJECT = Id(IdKind.BIT_STRING, "walker")
POLICY = FixedSpatial(Distance(50.0))
SPOTS = 20


def gazetteer(rng: random.Random) -> Gazetteer:
    entries = {}
    for k in range(SPOTS):
        point = PhysicalLocation(destination_point(HOME, rng.uniform(0, 360), rng.uniform(0, 2000)))
        entries[f"spot-{k}"] = SymbolicLocation(region=Region(point, CircularBounds(point, Distance(25.0))))
    return Gazetteer(entries)


def documents(rng: random.Random, m: int, late: bool) -> list[bytes]:
    here = HOME
    observations = []
    for i in range(m):
        if rng.random() < 0.2:
            where = Where(SymbolicLocation(), name=f"spot-{rng.randrange(SPOTS)}")
        else:
            here = destination_point(here, rng.uniform(0, 360), rng.uniform(0, 120))
            where = Where(PhysicalLocation(here))
        observations.append(Observation(time_of_observation=Time(i * 60_000), where=where))
    order = list(range(m))
    if late:
        for i in range(1, m - 1):
            if rng.random() < 0.1:
                j = min(m - 1, i + rng.randint(2, 12))
                order.insert(j, order.pop(order.index(i)))
    return [serialize_location_event(LocationEvent(SUBJECT, (), (observations[i],))) for i in order]


def best_of(k: int, docs: list[bytes], places: Gazetteer) -> tuple[float, int]:
    """Microseconds per ingest of the fastest of k passes, and the trail length."""
    best = None
    for _ in range(k):
        store = EventStore(clock=lambda: Time(0), policy=POLICY, gazetteer=places)
        start = time.thread_time_ns()
        for document in docs:
            store.ingest(document)
        elapsed = time.thread_time_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / len(docs) / 1000, len(store.trail_for(SUBJECT).nodes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=1000, help="smallest size (default 1000)")
    parser.add_argument("--k", type=int, default=3, help="passes; the best is kept (default 3)")
    args = parser.parse_args(argv)
    if args.n < 1 or args.k < 1:
        parser.error("--n and --k must be positive")

    places = gazetteer(random.Random(SEED))
    print(f"python {platform.python_version()}, n={args.n}, seed={SEED}, "
          f"best of {args.k}, thread CPU time, FixedSpatial 50 m")
    print(f"{'order':<8} {'n_us':>8} {'2n_us':>8} {'4n_us':>8} {'growth':>7} {'kept_4n':>8}")
    for name, late in (("in-order", False), ("late", True)):
        costs = []
        for m in (args.n, 2 * args.n, 4 * args.n):
            cost, kept = best_of(args.k, documents(random.Random(SEED), m, late), places)
            costs.append(cost)
        growth = costs[2] / costs[0] if costs[0] else math.inf
        print(f"{name:<8} " + " ".join(f"{c:8.1f}" for c in costs) + f" {growth:7.2f} {kept:8d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
