"""long-history: a few subjects with long histories, ingested in process.

One closed loop: each ``ingest`` call is timed on its own, and after every
``READ_EVERY``-th ingest the subject just written is read back with
``query_last`` and ``trail_for``.  The store records trails under
``FixedSpatial``, so every ingest that adds an observation replays the
subject's history through the recording policy.
"""

from __future__ import annotations

import time
from pathlib import Path

import gen
from common import Round, call_stats, cpu_ns, gauge_s, growth, own_peak_rss_mb, span_ns, speed_scale, user_cpu_s
from gloss.errors import EmptyWhere, Unresolvable
from gloss.eventd import EventStore
from gloss.model import Distance, Gazetteer
from gloss.temporal import Time
from gloss.trails import FixedSpatial, ObservedNode, ObservedTrail, record_observation
from gloss.wire import parse_location_event
from spans import DOC, NAME, Tracer, median

POLICY = FixedSpatial(Distance(50.0))
READ_EVERY = 10
STRETCHES = 4  # timed stretches per round, each between two gauge readings
CLOCK = Time(1_700_000_000_000)


class LongHistory:
    def __init__(self, seed: int, smoke: bool, workdir: Path):
        subjects, per_subject, entries = (2, 40, 500) if smoke else (4, 250, 10_000)
        self.inputs = gen.long_history_inputs(seed, subjects, per_subject, entries, READ_EVERY)
        self.gazetteer_path = workdir / "gazetteer.tsv"
        self.gazetteer_path.write_text("\n".join(self.inputs.gazetteer_lines) + "\n", encoding="utf-8")
        self.gazetteer: Gazetteer | None = None
        self.load_s: list[float] = []
        self.expected_reads = self._reference_reads()

    def setup_once(self) -> float:
        """``Gazetteer.from_file``; the last load is the one used."""
        before = gauge_s()
        start, cpu = time.perf_counter(), user_cpu_s()
        self.gazetteer = Gazetteer.from_file(self.gazetteer_path)
        spent = user_cpu_s() - cpu
        self.load_s.append(time.perf_counter() - start)
        return spent * speed_scale(before, gauge_s())

    def round(self, tracer: Tracer) -> Round:
        deliveries = self.inputs.deliveries
        subjects = self.inputs.subjects
        store = EventStore(clock=lambda: CLOCK, policy=POLICY, gazetteer=self.gazetteer)
        clock = time.monotonic_ns
        ingest_s = []
        read_s = []
        returned = []
        reads = []
        # the deliveries in STRETCHES parts, with a gauge between every two
        gauges = [gauge_s()]
        scales = {}
        step = -(-len(deliveries) // STRETCHES)
        for part in range(0, len(deliveries), step):
            part_ingest = []
            part_read = []
            with tracer.span("bench.long.ingest"):
                for k in range(part, min(part + step, len(deliveries))):
                    d = deliveries[k]
                    a, ca = clock(), cpu_ns()
                    returned.append(store.ingest(d.document))
                    b, cb = clock(), cpu_ns()
                    tracer.add("eventd.ingest", a, b, k)
                    part_ingest.append((cb - ca) / 1e9)
                    if d.read_after:
                        subject = subjects[d.subject]
                        a, ca = clock(), cpu_ns()
                        last = store.query_last(subject)
                        b = clock()
                        trail = store.trail_for(subject)
                        c, cc = clock(), cpu_ns()
                        tracer.add("eventd.query_last", a, b, k)
                        tracer.add("eventd.trail_for", b, c, k)
                        part_read.append((cc - ca) / 1e9)
                        reads.append((last, trail))
            gauges.append(gauge_s())
            scale = scales[f"part{len(scales)}"] = speed_scale(gauges[-2], gauges[-1])
            ingest_s += [x * scale for x in part_ingest]
            read_s += [x * scale for x in part_read]

        failed = sum(1 for d, n in zip(deliveries, returned) if d.expected_new != n)
        failed += sum(1 for want, got in zip(self.expected_reads, reads) if want != got)
        failed += 2 * (len(self.expected_reads) - len(reads))
        r = Round(
            traced=tracer.enabled,
            attempted=len(deliveries) + 2 * len(self.expected_reads),
            failed=failed,
            rate_count=len(deliveries),
            rate_items=ingest_s,
            latencies_ms=[x * 1e3 for x in ingest_s],
            batch_items=ingest_s + read_s,
            batch_phases=("bench.long.ingest",),
            named={"ingest_docs_per_s": (len(deliveries), ingest_s)},
            scales=scales,
        )
        if tracer.enabled:
            r.layers = self._layers(tracer, store, sum(returned))
        return r

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def _reference_reads(self) -> list:
        """query_last and trail_for at every read, from the generated
        observations: the de-duplicated history sorted by time then arrival,
        and a from-scratch ``record_observation`` replay over it."""
        histories: dict[int, list] = {}
        seen: set = set()
        out = []
        for arrival, d in enumerate(self.inputs.deliveries):
            if (d.subject, d.observation) not in seen:
                seen.add((d.subject, d.observation))
                millis = d.observation.time_of_observation.epoch_millis
                histories.setdefault(d.subject, []).append((millis, arrival, d.observation))
            if not d.read_after:
                continue
            ordered = sorted(histories[d.subject], key=lambda e: e[:2])
            trail = ObservedTrail(self.inputs.subjects[d.subject])
            for _, _, obs in ordered:
                node = ObservedNode(obs.time_of_observation, obs.where)
                try:
                    trail = record_observation(trail, node, POLICY, self.inputs.gazetteer)
                except (Unresolvable, EmptyWhere):
                    continue
            out.append((ordered[-1][2], trail))
        return out

    def _layers(self, tracer: Tracer, store: EventStore, accepted: int) -> dict:
        deliveries = self.inputs.deliveries
        out = {}
        out.update(call_stats(tracer.spans, "eventd.ingest", p99=True))
        out["eventd.query_last.p50_us"] = call_stats(tracer.spans, "eventd.query_last")["eventd.query_last.p50_us"]
        out["eventd.trail_for.p50_us"] = call_stats(tracer.spans, "eventd.trail_for")["eventd.trail_for.p50_us"]
        ingest = [s for s in tracer.spans if s[NAME] == "eventd.ingest"]
        by_subject: dict[int, list[float]] = {}
        for s in ingest:
            by_subject.setdefault(deliveries[s[DOC]].subject, []).append(span_ns(s) / 1e9)
        out["eventd.ingest.growth"] = growth(by_subject)

        # parse the same documents once more, outside the ingest loop, so
        # ingest time can be split into parse and the rest
        with tracer.span("bench.long.calibrate"):
            for k, d in enumerate(deliveries):
                a = time.monotonic_ns()
                parse_location_event(d.document)
                tracer.add("wire.parse", a, time.monotonic_ns(), k)
        out.update(call_stats(tracer.spans, "wire.parse"))
        out["wire.parse.bytes"] = float(sum(len(d.document) for d in deliveries))
        parse_ns = out["wire.parse.busy_s"] * 1e9
        ingest_ns = sum(span_ns(s) for s in ingest)
        out["eventd.ingest.excl_parse_us"] = (ingest_ns - parse_ns) / len(ingest) / 1e3

        out["eventd.obs.offered"] = float(len(deliveries))
        out["eventd.obs.accepted"] = float(accepted)
        out["eventd.obs.duplicate"] = float(len(deliveries) - accepted)
        out["eventd.frames.sent"] = float(len(deliveries))
        kept = sum(len(store.trail_for(s).nodes) for s in self.inputs.subjects)
        out["trails.kept_ratio"] = kept / accepted
        out["model.gazetteer.load_s"] = median(self.load_s)
        out["model.gazetteer.entries"] = float(len(self.gazetteer))
        return out
