"""A gloss ingest node in its own process, for the fleet workload.

Runs ``eventd.serve`` over an ``EventStore`` with a journal, on an
ephemeral loopback port, with a ``report`` callback that timestamps every
frame.  The benchmark drives it over stdin/stdout, one JSON line each way:

    (node)  {"port": P, "cpu_s": S, "gauge_s": G} once it listens, with
                                                  its user CPU time so far
    collect N -> {"reports": [[t_ns, cpu_ns, line], ...], "ingest": [[t0, t1], ...],
                  "gauge_s": G}
                 after N frames were reported; both lists are then cleared
    stop      -> {"maxrss_kb": K}                 and the node exits

``ingest`` spans are recorded only with ``--trace 1``; without it the
store is handed to ``serve`` untouched.  A report's ``cpu_ns`` is the CPU
clock of the thread that served the frame, so the difference between two
reports on one connection is what that frame cost: framing, ingest,
journal and report.  ``cpu_s`` is the whole process's user-mode CPU
time from its start (see ``common.user_cpu_s``).  ``gauge_s`` is ``common.gauge_s`` timed in
this process, so that the frames' times can be put at a reference speed.

    python3 perfbench/node.py --journal PATH --trace 0 --cpu 1
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from common import gauge_s, pin  # noqa: E402
from gloss.eventd import EventStore, serve  # noqa: E402

COLLECT_TIMEOUT_S = 30.0


class _TimedStore:
    """Forwards ``ingest`` to the store and records when each call ran."""

    def __init__(self, store: EventStore, spans: list):
        self._store = store
        self._spans = spans

    def ingest(self, document: bytes) -> int:
        start = time.monotonic_ns()
        try:
            return self._store.ingest(document)
        finally:
            self._spans.append((start, time.monotonic_ns()))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--journal", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, required=True, help="the CPU to run on")
    args = parser.parse_args()
    pin(args.cpu)

    reports: list = []
    spans: list = []
    wanted = [0]  # reports the control loop waits for
    arrived = threading.Condition()

    def report(line: str):
        stamp, cpu = time.monotonic_ns(), time.thread_time_ns()
        with arrived:
            reports.append((stamp, cpu, line))
            if len(reports) >= wanted[0]:  # wake the control loop once, not per frame
                arrived.notify_all()

    store = EventStore(journal=args.journal)
    server = serve(store, 0, report=report)
    if args.trace:
        server.store = _TimedStore(store, spans)
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    out = sys.stdout
    user_s = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    hello = {"port": server.server_address[1], "cpu_s": user_s, "gauge_s": gauge_s()}
    out.write(json.dumps(hello) + "\n")
    out.flush()
    try:
        for line in sys.stdin:
            command = line.split()
            if command and command[0] == "collect":
                with arrived:
                    wanted[0] = int(command[1])
                    arrived.wait_for(lambda: len(reports) >= wanted[0], COLLECT_TIMEOUT_S)
                    reply = {"reports": list(reports), "ingest": list(spans), "gauge_s": gauge_s()}
                    reports.clear()
                    spans.clear()
                out.write(json.dumps(reply) + "\n")
                out.flush()
            elif command and command[0] == "stop":
                break
    finally:
        server.shutdown()
        server.server_close()
        worker.join(timeout=10)
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write(json.dumps({"maxrss_kb": maxrss}) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
