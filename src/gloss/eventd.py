"""Ingest pipeline and last-known-position store.

Documents are parsed whole before any state changes, so a rejected event
leaves the store untouched.  Every node in a relay chain leaves its mark:
ingest stamps the stored copy with this node's processing step, forward
stamps the outgoing copy.  Framing on the wire and in the journal is a
4-byte big-endian length followed by the document bytes.

Trail upkeep resolves each observation once per store: its policy key
(see ``trails.policy_rule``) is computed when it is inserted, and a late
arrival replays only decisions on the stored keys.
"""

from __future__ import annotations

import socketserver
import struct
import threading
import time
from bisect import bisect, bisect_left
from pathlib import Path as FilePath
from typing import BinaryIO, Callable, Iterator, Optional

from .errors import BadFrame, EmptyWhere, GlossError, SinkUnavailable, UnknownSubject, Unresolvable
from .model import Gazetteer, Id
from .temporal import Time
from .trails import Manual, ObservedNode, ObservedTrail, RecordingPolicy, policy_rule
from .wire import (
    LocationEvent,
    Observation,
    ProcessingStep,
    parse_location_event,
    serialize_location_event,
)

__all__ = [
    "EventStore",
    "StreamServer",
    "forward",
    "read_frame",
    "read_journal",
    "serve",
    "write_frame",
]

_FRAME_CAP = 64 * 1024 * 1024  # refuse absurd lengths rather than allocate


def _wall_clock() -> Time:
    return Time(int(time.time() * 1000))


def write_frame(sink: BinaryIO, document: bytes):
    # one write: with two, another process appending to the same journal
    # could land between a header and its body
    frame = struct.pack(">I", len(document)) + document
    written = sink.write(frame)
    if written is not None and written < len(frame):  # an unbuffered sink may stop short
        raise OSError(f"short write: {written} of {len(frame)} frame bytes")


def _read_exactly(source: BinaryIO, n: int, part: str) -> bytes:
    chunks = []
    while n:
        chunk = source.read(n)
        if not chunk:
            raise BadFrame(f"truncated frame {part}")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)  # a single bytes chunk comes back as itself, uncopied


def read_frame(source: BinaryIO) -> Optional[bytes]:
    """One length-prefixed document, or None at a clean end; BadFrame if torn or over the cap."""
    header = source.read(4)
    if not header:  # nothing at all is a clean end; a short read is not
        return None
    (length,) = struct.unpack(">I", header + _read_exactly(source, 4 - len(header), "header"))
    if length > _FRAME_CAP:
        raise BadFrame(f"frame of {length} bytes exceeds the cap")
    return _read_exactly(source, length, "body")


class _Subject:
    """One subject's sorted entries, the subsequence the policy kept, and its events."""

    def __init__(self):
        # (millis, arrival, obs, node, policy key or None if unplaceable), sorted
        self.entries: list[tuple[int, int, Observation, ObservedNode, object]] = []
        self.kept: list[tuple[int, int, Observation, ObservedNode, object]] = []
        self.events: list[LocationEvent] = []


class EventStore:
    """Per-subject observation histories with trail upkeep.

    One lock serializes all updates, which trivially gives per-subject
    ordering; readers take the same lock and so always see a consistent
    snapshot.  No cross-form identity resolution happens: phone and email
    IDs for the same person stay separate subjects.  A trail is its history
    folded through the policy's decision, which depends only on the last kept
    entry before the candidate: an insertion redecides only from its index on.
    """

    def __init__(
        self,
        step_label: str = "processed",
        clock: Callable[[], Time] | None = None,
        policy: RecordingPolicy | None = None,
        journal: str | FilePath | None = None,
        gazetteer: Gazetteer | None = None,
    ):
        self.step_label = step_label
        self._clock = clock if clock is not None else _wall_clock
        self._key, self._decide = policy_rule(policy if policy is not None else Manual(), gazetteer)
        self._journal = FilePath(journal) if journal is not None else None
        self._sink: BinaryIO | None = None  # the journal's append handle, opened on first use
        self._gazetteer = gazetteer
        self._lock = threading.Lock()
        self._subjects: dict[Id, _Subject] = {}  # keyed by the first Id seen
        self._arrivals = 0

    @property
    def clock(self) -> Callable[[], Time]:
        return self._clock

    @property
    def gazetteer(self) -> Gazetteer | None:
        return self._gazetteer

    # -- writes --

    def ingest(self, document: bytes) -> int:
        """Merge one document; returns how many observations were new.

        Parsing happens before any mutation, so a SchemaViolation leaves
        the store exactly as it was.  So does an OSError from the journal:
        the document is appended before it is merged.
        """
        return self._ingest(document, journaled=self._journal is not None)

    def close(self):
        """Close the journal's append handle; a later ingest opens it again."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    def _ingest(self, document: bytes, journaled: bool) -> int:
        event = self._stamp(parse_location_event(document))
        with self._lock:
            if journaled:
                if self._sink is None:
                    # unbuffered: each frame reaches the file in one write, at once
                    self._sink = open(self._journal, "ab", buffering=0)
                write_frame(self._sink, bytes(document))
            record = self._subjects.get(event.id)
            if record is None:
                record = self._subjects[event.id] = _Subject()
            entries = record.entries
            size = first = len(entries)  # first: earliest index that changed
            for obs in event.observations:
                millis = obs.time_of_observation.epoch_millis
                # an equal obs has equal millis; neither probe reaches obs, which has no order
                at = bisect(entries, (millis, self._arrivals + 1))
                if obs in (entry[2] for entry in entries[bisect_left(entries, (millis,)) : at]):
                    continue
                node = ObservedNode(obs.time_of_observation, obs.where)
                try:
                    key = self._key(node)
                except (Unresolvable, EmptyWhere):
                    key = None  # histories may hold wheres a spatial policy cannot place
                self._arrivals += 1
                entries.insert(at, (millis, self._arrivals, obs, node, key))
                first = min(first, at)
            record.events.append(event)
            accepted = len(entries) - size
            if accepted:
                self._refresh_trail(record, first)
        return accepted

    def _stamp(self, event: LocationEvent) -> LocationEvent:
        step = ProcessingStep(self._clock(), self.step_label)
        return LocationEvent(event.id, event.processing_sequence + (step,), event.observations)

    def _refresh_trail(self, record: _Subject, first: int):
        # a decision depends only on the last kept entry before the candidate:
        # keep the kept entries before the new entries[first], redo the rest
        kept, entries = record.kept, record.entries
        del kept[bisect(kept, entries[first]):]
        decide = self._decide
        for entry in entries[first:]:
            if not kept or decide(kept[-1][4], entry[4]):  # the first entry is always kept
                kept.append(entry)

    # -- reads --

    def _record(self, subject: Id) -> _Subject:
        record = self._subjects.get(subject)
        if record is None:
            raise UnknownSubject(f"no observations for {subject.key}")
        return record

    def query_last(self, subject: Id) -> Observation:
        """The freshest observation: maximal timestamp, with the later
        arrival winning ties."""
        with self._lock:
            return self._record(subject).entries[-1][2]

    def observations(self, subject: Id) -> tuple[Observation, ...]:
        with self._lock:
            return tuple(entry[2] for entry in self._record(subject).entries)

    def events_for(self, subject: Id) -> tuple[LocationEvent, ...]:
        with self._lock:
            return tuple(self._record(subject).events)

    def trail_for(self, subject: Id) -> ObservedTrail:
        with self._lock:
            return ObservedTrail(subject, tuple(entry[3] for entry in self._record(subject).kept))

    def subjects(self) -> tuple[Id, ...]:
        with self._lock:
            return tuple(self._subjects)

    def replay(self, journal: str | FilePath) -> int:
        """Re-ingest a journal; duplicate observations fall out naturally.
        Nothing replayed is appended to this store's own journal."""
        total = 0
        for document in read_journal(journal):
            total += self._ingest(document, journaled=False)
        return total


def forward(store: EventStore, event: LocationEvent, sink: BinaryIO) -> LocationEvent:
    """Stamp the event with this node's step and write it length-prefixed.

    Returns the stamped copy.  The stamp is unconditional: relaying
    without ingesting still leaves a trace in the processing sequence.
    """
    stamped = store._stamp(event)
    try:
        write_frame(sink, serialize_location_event(stamped))
        flush = getattr(sink, "flush", None)
        if flush is not None:
            flush()
    except OSError as exc:
        raise SinkUnavailable(str(exc)) from exc
    return stamped


def read_journal(path: str | FilePath) -> Iterator[bytes]:
    with open(path, "rb") as source:
        while True:
            document = read_frame(source)
            if document is None:
                return
            yield document


class _IngestHandler(socketserver.StreamRequestHandler):
    def handle(self):
        store: EventStore = self.server.store  # type: ignore[attr-defined]
        report = self.server.report  # type: ignore[attr-defined]
        while True:
            try:
                document = read_frame(self.rfile)
                if document is None:
                    return
                accepted = store.ingest(document)
            except BadFrame as exc:
                report(f"stream ended badly: {exc}")
                return
            except GlossError as exc:  # the store is unchanged: read on
                report(f"rejected: {exc}")
                continue
            except OSError as exc:  # the journal or the peer failed: end this connection
                report(f"connection closed: {exc}")
                return
            report(f"accepted={accepted}")


class StreamServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def serve(
    store: EventStore,
    port: int,
    host: str = "127.0.0.1",
    report: Callable[[str], None] | None = None,
) -> StreamServer:
    """Bind a threading ingest server; the caller drives serve_forever."""
    server = StreamServer((host, port), _IngestHandler)
    server.store = store  # type: ignore[attr-defined]
    server.report = report if report is not None else (lambda line: None)  # type: ignore[attr-defined]
    return server
