"""fleet: many subjects with short histories, over TCP to a node process.

Phases of one round, each against a fresh node and a fresh journal:

- burst: every burst frame, pre-encoded, in one ``sendall`` on one
  connection; closed loop of one (the whole batch), each frame timed by
  the CPU time the node's serving thread spent on it;
- paced: open loop at ``PACED_RATE`` frames/s on the same connection; each
  frame's latency is the CPU time the node's serving thread spent on it,
  and its wall time from when it was due to when the node reported it is
  kept as well;
- restart: ``EventStore.replay`` of the node's journal, in this process;
- read: ``query_last`` for every subject of the replayed store;
- relay: ``parse_location_event`` + ``forward`` of every frame the node
  accepted, into an in-memory sink.

The in-process phases are timed with this thread's CPU clock.
"""

from __future__ import annotations

import io
import json
import socket
import struct
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import gen
from common import CPUS, Round, call_stats, cpu_ns, gauge_s, growth, span_ns, speed_scale
from gloss.errors import GlossError
from gloss.eventd import EventStore, forward, read_journal
from gloss.temporal import Time
from gloss.wire import ProcessingStep, parse_location_event, serialize_location_event
from spans import DOC, NAME, PARENT, Tracer, median

PACED_RATE = 500.0  # frames/s: light enough that the node keeps up steadily
# the generator sleeps until this close to a frame's due time, then spins:
# a sleep alone wakes about 0.1 ms late, and that lateness would count as
# the node's latency
SPIN_NS = 500_000
READ_PASSES = 20  # query_last is sub-microsecond; repeat the pass to time it
RELAY_LABEL = "perfbench relay"
RELAY_CLOCK = Time(1_700_000_000_000)
NODE = Path(__file__).resolve().parent / "node.py"


class _Node:
    """The node process and its stdin/stdout control channel."""

    def __init__(self, journal: Path, traced: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(NODE), "--journal", str(journal), "--trace", str(int(traced)),
             "--cpu", str(CPUS[-1])],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        hello = self._reply()
        self.port = hello["port"]
        self.gauge_s = hello["gauge_s"]
        self.setup_s = hello["cpu_s"] * speed_scale(self.gauge_s, self.gauge_s)

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the node process ended unexpectedly")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> float:
        """Stop the node; returns its peak RSS in MB."""
        try:
            return self.command("stop")["maxrss_kb"] / 1024.0
        finally:
            self.close()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _outcome_ok(frame: gen.Frame, line: str) -> bool:
    if frame.event is None:
        return line.startswith("rejected:")
    return line == f"accepted={frame.expected_new}"


class Fleet:
    def __init__(self, seed: int, smoke: bool, workdir: Path):
        subjects, paced = (40, 60) if smoke else (250, 1000)
        self.inputs = gen.fleet_inputs(seed, subjects, 4, paced)
        self.workdir = workdir
        self.frames = self.inputs.burst + self.inputs.paced
        self.burst_blob = b"".join(gen.frame(f.document) for f in self.inputs.burst)
        self.paced_bytes = [gen.frame(f.document) for f in self.inputs.paced]
        self.accepted = [f for f in self.frames if f.event is not None]
        self.relay_reference: bytes | None = None
        self.node_rss_mb: list[float] = []
        self._rounds = 0

    def setup_once(self) -> float:
        """Start a node and stop it: its user-mode CPU time until it listens.
        Every round starts a fresh node the same way."""
        node = _Node(self.workdir / "setup-journal", traced=False)
        node.stop()
        return node.setup_s

    def peak_rss_mb(self) -> float:
        return median(self.node_rss_mb)

    def round(self, tracer: Tracer) -> Round:
        self._rounds += 1
        journal = self.workdir / f"journal-{self._rounds}"
        node = _Node(journal, tracer.enabled)
        try:
            sock = socket.create_connection(("127.0.0.1", node.port))
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                burst, paced = self._ingest(tracer, node, sock)
            finally:
                sock.close()
        finally:
            self.node_rss_mb.append(node.stop())
        reports = burst["reports"] + paced["reports"]
        failed = sum(
            1 for f, (_, _, line) in zip(self.frames, reports) if not _outcome_ok(f, line)
        ) + (len(self.frames) - len(reports))

        store = EventStore(step_label=RELAY_LABEL, clock=lambda: RELAY_CLOCK)
        before = gauge_s()
        timings, stamped, sink = self._in_process(tracer, store, journal)
        scales = {
            "burst": speed_scale(node.gauge_s, burst["gauge_s"]),
            "paced": speed_scale(burst["gauge_s"], paced["gauge_s"]),
            "in_process": speed_scale(before, gauge_s()),
        }
        for phase in ("restart", "read", "relay"):
            timings[phase] = [x * scales["in_process"] for x in timings[phase]]
        failed += self._check_reads(timings.pop("lasts"))
        failed += self._check_relay(sink.getvalue())

        due = paced["due"]
        waits = [(t - due[i]) / 1e6 for i, (t, _, _) in enumerate(paced["reports"])]
        # the serving thread's CPU clock at each report: a frame cost the
        # difference from the report before it (the first frame has none)
        cpu = [c for _, c, _ in reports]
        frame_s = [(b - a) / 1e9 for a, b in zip(cpu, cpu[1:])]
        burst_s = [x * scales["burst"] for x in frame_s[: len(self.inputs.burst) - 1]]
        latencies = [x * 1e3 * scales["paced"] for x in frame_s[len(burst_s) :]]
        lateness = [(sent - due[i]) / 1e6 for i, sent in enumerate(paced["sent"])]
        r = Round(
            traced=tracer.enabled,
            attempted=len(self.frames) + len(self.inputs.subjects) * READ_PASSES + len(self.accepted),
            failed=failed,
            rate_count=len(burst_s),
            rate_items=burst_s,
            latencies_ms=latencies,
            wait_ms=waits,
            batch_items=timings["restart"] + timings["read"] + timings["relay"],
            batch_phases=("bench.fleet.restart", "bench.fleet.read", "bench.fleet.relay"),
            lateness_ms=lateness,
            named={
                "ingest_docs_per_s": (len(burst_s), burst_s),
                "replay_docs_per_s": (len(self.accepted), timings["restart"]),
                "query_last_per_s": (len(self.inputs.subjects) * READ_PASSES, timings["read"]),
                "relay_docs_per_s": (len(self.accepted), timings["relay"]),
            },
            scales=scales,
        )
        journal_bytes = journal.stat().st_size
        if tracer.enabled:
            for k, event in enumerate(stamped):
                start = time.monotonic_ns()
                serialize_location_event(event)
                tracer.add("wire.serialize", start, time.monotonic_ns(), k)
            r.layers = self._layers(tracer, reports, paced, store, journal_bytes)
        journal.unlink()
        return r

    # -- phases --

    def _ingest(self, tracer: Tracer, node: _Node, sock: socket.socket):
        with tracer.span("bench.fleet.burst"):
            sock.sendall(self.burst_blob)
            burst = node.command(f"collect {len(self.inputs.burst)}")
            tracer.adopt("eventd.ingest", burst["ingest"], 0)

        period_ns = int(1e9 / PACED_RATE)
        due: list[int] = []
        sent: list[int] = []
        with tracer.span("bench.fleet.paced"):
            start = time.monotonic_ns() + period_ns
            for i, data in enumerate(self.paced_bytes):
                when = start + i * period_ns
                delay = when - time.monotonic_ns() - SPIN_NS
                if delay > 0:
                    time.sleep(delay / 1e9)
                while time.monotonic_ns() < when:
                    pass
                due.append(when)
                sent.append(time.monotonic_ns())
                sock.sendall(data)
            paced = node.command(f"collect {len(self.paced_bytes)}")
            tracer.adopt("eventd.ingest", paced["ingest"], len(self.inputs.burst))
        paced["due"] = due
        paced["sent"] = sent
        return burst, paced

    def _in_process(self, tracer: Tracer, store: EventStore, journal: Path):
        timings: dict = {}
        clock = time.monotonic_ns
        with tracer.span("bench.fleet.restart"):
            start = cpu_ns()
            if tracer.enabled:
                # replay() spelled out, so each frame read and ingest is a span
                documents = read_journal(journal)
                k = 0
                while True:
                    a = clock()
                    document = next(documents, None)
                    tracer.add("eventd.read_journal", a, clock(), k)
                    if document is None:
                        break
                    a = clock()
                    store.ingest(document)
                    tracer.add("eventd.ingest", a, clock(), k)
                    k += 1
            else:
                store.replay(journal)
            timings["restart"] = [(cpu_ns() - start) / 1e9]

        subjects = self.inputs.subjects
        lasts = []
        timings["read"] = []
        with tracer.span("bench.fleet.read"):
            for _ in range(READ_PASSES):
                start = cpu_ns()
                for k, subject in enumerate(subjects):
                    a = clock()
                    lasts.append(store.query_last(subject))
                    tracer.add("eventd.query_last", a, clock(), k)
                timings["read"].append((cpu_ns() - start) / 1e9)
        timings["lasts"] = lasts

        sink = io.BytesIO()
        stamped = []
        timings["relay"] = []
        with tracer.span("bench.fleet.relay"):
            for k, frame in enumerate(self.accepted):
                a, ca = clock(), cpu_ns()
                event = parse_location_event(frame.document)
                b = clock()
                stamped.append(forward(store, event, sink))
                c, cc = clock(), cpu_ns()
                tracer.add("wire.parse", a, b, k)
                tracer.add("eventd.forward", b, c, k)
                timings["relay"].append((cc - ca) / 1e9)
        return timings, stamped, sink

    # -- reference checks --

    def _check_reads(self, lasts) -> int:
        expected = [self.inputs.last.get(s.key) for s in self.inputs.subjects]
        return sum(1 for want, got in zip(expected * READ_PASSES, lasts) if want != got)

    def _check_relay(self, relayed: bytes) -> int:
        """Every relayed frame re-parses to its source event plus one step.
        The sink bytes are deterministic, so later rounds compare bytes."""
        if self.relay_reference is not None:
            return 0 if relayed == self.relay_reference else len(self.accepted)
        wrong = 0
        at = 0
        for frame in self.accepted:
            if at + 4 > len(relayed):
                wrong += 1
                continue
            (length,) = struct.unpack(">I", relayed[at : at + 4])
            document = relayed[at + 4 : at + 4 + length]
            at += 4 + length
            step = ProcessingStep(RELAY_CLOCK, RELAY_LABEL)
            want = replace(
                frame.event,
                processing_sequence=frame.event.processing_sequence + (step,),
            )
            try:
                ok = parse_location_event(document) == want
            except GlossError:  # a broken relay frame is a failure, not a crash
                ok = False
            wrong += not ok
        wrong += at != len(relayed)
        if wrong == 0:
            self.relay_reference = relayed
        return wrong

    # -- per-layer --

    def _layers(self, tracer, reports, paced, store, journal_bytes) -> dict:
        spans = tracer.spans
        out = {}
        parse = [s for s in spans if s[NAME] == "wire.parse"]
        out.update(call_stats(spans, "wire.parse"))
        out["wire.parse.bytes"] = float(sum(len(self.accepted[s[DOC]].document) for s in parse))
        out.update(call_stats(spans, "wire.serialize"))
        out.update(call_stats(spans, "eventd.ingest", p99=True))

        restart = self._phase_children(spans, "bench.fleet.restart", "eventd.ingest")
        if restart:
            restart_ns = sum(span_ns(s) for s in restart)
            parse_ns = sum(span_ns(s) for s in parse)
            out["eventd.ingest.excl_parse_us"] = (restart_ns - parse_ns) / len(restart) / 1e3
            by_subject: dict[str, list[float]] = {}
            for s in restart:
                key = self.accepted[s[DOC]].event.id.key
                by_subject.setdefault(key, []).append(span_ns(s) / 1e9)
            out["eventd.ingest.growth"] = growth(by_subject)

        accepted = sum(int(line.split("=")[1]) for _, _, line in reports if line.startswith("accepted="))
        offered = sum(len(f.event.observations) for f in self.accepted)
        out["eventd.obs.offered"] = float(offered)
        out["eventd.obs.accepted"] = float(accepted)
        out["eventd.obs.duplicate"] = float(offered - accepted)
        out["eventd.frames.sent"] = float(len(self.frames))
        out["eventd.frames.rejected"] = float(sum(1 for _, _, line in reports if line.startswith("rejected:")))
        out["eventd.read_journal.busy_s"] = call_stats(spans, "eventd.read_journal")["eventd.read_journal.busy_s"]
        out["eventd.journal.bytes"] = float(journal_bytes)
        out["eventd.query_last.p50_us"] = call_stats(spans, "eventd.query_last")["eventd.query_last.p50_us"]
        out["eventd.forward.busy_s"] = call_stats(spans, "eventd.forward")["eventd.forward.busy_s"]
        out["eventd.tcp.backlog_max"] = float(_backlog_max(paced))
        kept = sum(len(store.trail_for(s).nodes) for s in self.inputs.subjects)
        out["trails.kept_ratio"] = kept / accepted if accepted else 0.0
        return out

    @staticmethod
    def _phase_children(spans, phase: str, name: str):
        parents = {i for i, s in enumerate(spans) if s[NAME] == phase}
        return [s for s in spans if s[NAME] == name and s[PARENT] in parents]


def _backlog_max(paced: dict) -> int:
    """Frames sent minus frames reported, at its highest in the paced phase."""
    events = [(t, 1) for t in paced["sent"]] + [(t, -1) for t, _, _ in paced["reports"]]
    events.sort()
    backlog = highest = 0
    for _, step in events:
        backlog += step
        highest = max(highest, backlog)
    return highest
