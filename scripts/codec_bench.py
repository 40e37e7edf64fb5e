"""Per-document cost of the wire codec: parse, validate and serialize.

Builds --n events with the fixed-seed generator in tests/eventgen.py,
serializes them once, and then times each step over the whole batch on
the CPU clock of the calling thread (time.thread_time_ns), keeping the
best of --k passes.  Prints microseconds per document for each step.
Every document must parse back to its event and validate clean; anything
else exits 1.  Standard library only.

Run from the repo root:

    python3 scripts/codec_bench.py --n 1000
"""

import argparse
import platform
import random
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEED = 7
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

import eventgen  # noqa: E402
from gloss.wire import (  # noqa: E402
    parse_location_event,
    serialize_location_event,
    validate_document,
)


def best_of(k: int, step, items) -> float:
    """Microseconds per item of the fastest of k passes of step over items."""
    best = None
    for _ in range(k):
        start = time.thread_time_ns()
        for item in items:
            step(item)
        elapsed = time.thread_time_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / len(items) / 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=1000, help="documents (default 1000)")
    parser.add_argument("--k", type=int, default=9, help="passes; the best is kept (default 9)")
    args = parser.parse_args(argv)
    if args.n < 1 or args.k < 1:
        parser.error("--n and --k must be positive")

    rng = random.Random(SEED)
    events = [eventgen.gen_event(rng) for _ in range(args.n)]
    documents = [serialize_location_event(e) for e in events]
    for event, document in zip(events, documents):
        if parse_location_event(document) != event or not validate_document(document).ok:
            print("error: a generated document does not round-trip", file=sys.stderr)
            return 1

    size = sum(map(len, documents)) / len(documents)
    print(f"python {platform.python_version()}, n={args.n}, seed={SEED}, "
          f"best of {args.k}, {size:.0f} B/doc, thread CPU time")
    for name, step, items in (
        ("parse", parse_location_event, documents),
        ("validate", validate_document, documents),
        ("serialize", serialize_location_event, events),
    ):
        print(f"{name:<10} {best_of(args.k, step, items):8.1f} us/doc")
    return 0


if __name__ == "__main__":
    sys.exit(main())
