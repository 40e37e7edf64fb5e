"""Growth of trail-distillation clustering with input size.

Clusters n, 2n and 4n points of three fixed-seed layouts with the
single-linkage step of distill_archetypal (gloss.trails._cluster_assignment)
and prints the time of each size and the 4n/n growth.  Linear work grows
about 4x; work on every pair grows about 16x.  The layouts keep their
density as they grow:

- spot:    every point within 20 m of one spot, eps 100 m (one cluster);
- sites:   n/20 sites, 20 fixes within 15 m of each, eps 50 m;
- uniform: points spread evenly, one per 40 000 m^2, eps 100 m.

Times are CPU time of the calling thread (time.thread_time_ns), the best
of --k passes.  Standard library only.

Run from the repo root:

    python3 scripts/distill_sweep.py --n 1000
"""

import argparse
import math
import platform
import random
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEED = 11
sys.path.insert(0, str(REPO / "src"))

from gloss.geo import destination_point  # noqa: E402
from gloss.model import LatLongCoordinate  # noqa: E402
from gloss.trails import _cluster_assignment  # noqa: E402

HOME = LatLongCoordinate(56.34, -2.79)


def _in_disc(rng: random.Random, centre: LatLongCoordinate, radius_m: float):
    return destination_point(centre, rng.uniform(0.0, 360.0), radius_m * math.sqrt(rng.random()))


def spot(rng: random.Random, m: int):
    return [_in_disc(rng, HOME, 20.0) for _ in range(m)], 100.0


def sites(rng: random.Random, m: int):
    n_sites = max(1, m // 20)
    centres = [_in_disc(rng, HOME, 200.0 * math.sqrt(n_sites)) for _ in range(n_sites)]
    return [_in_disc(rng, centres[k % n_sites], 15.0) for k in range(m)], 50.0


def uniform(rng: random.Random, m: int):
    radius = math.sqrt(m * 40_000.0 / math.pi)
    return [_in_disc(rng, HOME, radius) for _ in range(m)], 100.0


def best_of(k: int, points, eps_m: float) -> tuple[float, int]:
    """Seconds of the fastest of k clusterings, and the cluster count."""
    best = None
    for _ in range(k):
        start = time.thread_time_ns()
        assignment = _cluster_assignment(points, eps_m)
        elapsed = time.thread_time_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / 1e9, max(assignment) + 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=1000, help="smallest size (default 1000)")
    parser.add_argument("--k", type=int, default=5, help="passes; the best is kept (default 5)")
    args = parser.parse_args(argv)
    if args.n < 1 or args.k < 1:
        parser.error("--n and --k must be positive")

    print(f"python {platform.python_version()}, n={args.n}, seed={SEED}, "
          f"best of {args.k}, thread CPU time")
    print(f"{'layout':<8} {'eps_m':>6} {'n_ms':>9} {'2n_ms':>9} {'4n_ms':>9} "
          f"{'growth':>7} {'clusters_4n':>11}")
    for layout in (spot, sites, uniform):
        times = []
        for m in (args.n, 2 * args.n, 4 * args.n):
            points, eps_m = layout(random.Random(SEED), m)
            seconds, clusters = best_of(args.k, points, eps_m)
            times.append(seconds)
        growth = times[2] / times[0] if times[0] else math.inf
        print(f"{layout.__name__:<8} {eps_m:6.0f} "
              + " ".join(f"{1e3 * t:9.2f}" for t in times)
              + f" {growth:7.2f} {clusters:11d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
