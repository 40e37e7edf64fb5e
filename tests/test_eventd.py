"""Event store: framing, atomic ingest, relay stamping, journal replay,
and the socket front end."""

import contextlib
import io
import queue
import random
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eventgen
from gloss import eventd
from gloss.errors import (
    EmptyWhere,
    NotWellFormed,
    SchemaViolation,
    SinkUnavailable,
    UnknownSubject,
    Unresolvable,
)
from gloss.eventd import (
    EventStore,
    forward,
    read_frame,
    read_journal,
    serve,
    write_frame,
)
from gloss.model import (
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
from gloss.temporal import Time
from gloss.trails import (
    FixedSpatial,
    FixedTime,
    Manual,
    ObservedNode,
    ObservedTrail,
    Proximity,
    record_observation,
)
from gloss.wire import (
    LocationEvent,
    Observation,
    ProcessingStep,
    parse_location_event,
    serialize_location_event,
)

SUBJECT = Id(IdKind.BIT_STRING, "graham")


def _tick(start: int = 0):
    """A deterministic clock: one second per call."""
    counter = iter(range(start, start + 1_000_000))

    def clock() -> Time:
        return Time(next(counter) * 1000)

    return clock


def _doc(t_seconds: float, lat: float, lon: float, subject: Id = SUBJECT) -> bytes:
    event = LocationEvent(
        subject,
        (),
        (
            Observation(
                time_of_observation=Time(int(t_seconds * 1000)),
                where=Where(PhysicalLocation(LatLongCoordinate(lat, lon))),
            ),
        ),
    )
    return serialize_location_event(event)


class TestFraming:
    def test_round_trip(self):
        buf = io.BytesIO()
        write_frame(buf, b"alpha")
        write_frame(buf, b"")
        write_frame(buf, b"omega")
        buf.seek(0)
        assert read_frame(buf) == b"alpha"
        assert read_frame(buf) == b""
        assert read_frame(buf) == b"omega"
        assert read_frame(buf) is None

    def test_truncated_header(self):
        with pytest.raises(EOFError, match="truncated frame header"):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_header_split_across_reads(self):
        class Trickle(io.RawIOBase):
            """A stream that hands out one byte per read."""

            def __init__(self, data):
                self.data = data

            def read(self, size=-1):
                chunk, self.data = self.data[:1], self.data[1:]
                return chunk

        buf = io.BytesIO()
        write_frame(buf, b"alpha")
        write_frame(buf, b"")
        source = Trickle(buf.getvalue())
        assert read_frame(source) == b"alpha"
        assert read_frame(source) == b""
        assert read_frame(source) is None
        with pytest.raises(EOFError, match="truncated frame header"):
            read_frame(Trickle(b"\x00\x00\x00"))

    def test_truncated_body(self):
        buf = io.BytesIO()
        write_frame(buf, b"abcdef")
        data = buf.getvalue()[:-2]
        with pytest.raises(EOFError):
            read_frame(io.BytesIO(data))

    def test_one_write_per_frame(self):
        class Recorder(io.RawIOBase):
            def __init__(self):
                self.writes = []

            def write(self, data):
                self.writes.append(bytes(data))
                return len(data)

        sink = Recorder()
        write_frame(sink, b"alpha")
        write_frame(sink, b"")
        assert sink.writes == [b"\x00\x00\x00\x05alpha", b"\x00\x00\x00\x00"]

    def test_short_write_refused(self):
        class Short(io.RawIOBase):
            def write(self, data):
                return len(data) - 1

        with pytest.raises(OSError):
            write_frame(Short(), b"alpha")

    class _Pieces(io.RawIOBase):
        """A source whose reads each return at most the next piece."""

        def __init__(self, pieces):
            self.pieces = list(pieces)

        def read(self, size=-1):
            if not self.pieces:
                return b""
            piece = self.pieces.pop(0)
            if len(piece) > size:
                piece, rest = piece[:size], piece[size:]
                self.pieces.insert(0, rest)
            return piece

    def test_short_reads(self):
        body = bytes(range(256)) * 40
        header = len(body).to_bytes(4, "big")
        for most in (1, 3, 4096):
            pieces = [header] + [body[i : i + most] for i in range(0, len(body), most)]
            assert read_frame(self._Pieces(pieces)) == body
            with pytest.raises(EOFError, match="truncated frame body"):
                read_frame(self._Pieces(pieces[:-1]))

    def test_single_read_body_not_copied(self):
        body = b"alpha" * 100
        assert read_frame(self._Pieces([len(body).to_bytes(4, "big"), body])) is body

    def test_oversize_frame_refused(self):
        header = (64 * 1024 * 1024 + 1).to_bytes(4, "big")
        with pytest.raises(EOFError):
            read_frame(io.BytesIO(header))


class TestIngest:
    def test_corpus_documents(self, corpus_documents):
        store = EventStore(clock=_tick())
        for data in corpus_documents.values():
            assert store.ingest(data) == 1
        assert len(store.subjects()) == 3

    def test_duplicate_observations_dropped(self, corpus_documents):
        store = EventStore(clock=_tick())
        data = corpus_documents["gps-fix-phone.xml"]
        assert store.ingest(data) == 1
        assert store.ingest(data) == 0
        subject = Id(IdKind.PHONE, "+447941615809")
        assert len(store.observations(subject)) == 1
        # the duplicate event is still remembered as an event
        assert len(store.events_for(subject)) == 2

    def test_ingest_stamps_stored_copy(self):
        store = EventStore(step_label="seen by relay", clock=_tick(100))
        store.ingest(_doc(5, 1.0, 2.0))
        (event,) = store.events_for(SUBJECT)
        assert event.processing_sequence[-1].description == "seen by relay"
        assert event.processing_sequence[-1].date_time == Time(100_000)

    def test_rejected_document_changes_nothing(self, corpus_documents):
        store = EventStore(clock=_tick())
        store.ingest(corpus_documents["coordinate-email.xml"])
        before = (
            store.subjects(),
            store.observations(Id(IdKind.EMAIL, "graham@dcs.st-and.ac.uk")),
        )
        bad = corpus_documents["gps-fix-phone.xml"].replace(b">05<", b">50<")
        with pytest.raises(SchemaViolation):
            store.ingest(bad)
        with pytest.raises(NotWellFormed):
            store.ingest(b"<locationEvent")
        after = (
            store.subjects(),
            store.observations(Id(IdKind.EMAIL, "graham@dcs.st-and.ac.uk")),
        )
        assert after == before
        assert len(store.subjects()) == 1

    def test_accepted_count_is_taken_inside_the_lock(self):
        store = EventStore(clock=_tick())
        lock, others = store._lock, [_doc(2, 2.0, 2.0)]

        class Interloper:
            """The real lock, but once it is released another connection
            ingests a new observation for the same subject."""

            def __enter__(self):
                return lock.__enter__()

            def __exit__(self, *exc):
                lock.__exit__(*exc)
                if others:
                    store.ingest(others.pop())

        store._lock = Interloper()
        assert store.ingest(_doc(1, 1.0, 1.0)) == 1
        assert len(store.observations(SUBJECT)) == 2

    def test_subjects_keep_id_forms_apart(self):
        store = EventStore(clock=_tick())
        phone = Id(IdKind.PHONE, "+44 1")
        email = Id(IdKind.EMAIL, "a@b.cd")
        store.ingest(_doc(0, 1, 1, phone))
        store.ingest(_doc(1, 2, 2, email))
        assert set(store.subjects()) == {phone, email}
        with pytest.raises(UnknownSubject):
            store.query_last(Id(IdKind.BIT_STRING, "+44 1"))

    def test_ids_with_one_value_stay_apart_by_kind(self):
        store = EventStore(clock=_tick())
        bits, guid = Id(IdKind.BIT_STRING, "x"), Id(IdKind.GUID, "x")
        assert hash(bits) == hash(guid)
        store.ingest(_doc(0, 1, 1, bits))
        store.ingest(_doc(1, 2, 2, guid))
        store.ingest(_doc(2, 3, 3, bits))
        assert store.subjects() == (bits, guid)
        assert store.query_last(guid).where.payload.coordinate.latitude == 2
        assert store.query_last(bits).where.payload.coordinate.latitude == 3
        for subject, millis in ((bits, [0, 2000]), (guid, [1000])):
            times = [Time(ms) for ms in millis]
            assert [o.time_of_observation for o in store.observations(subject)] == times
            trail = store.trail_for(subject)
            assert trail.subject == subject
            assert [n.when for n in trail.nodes] == times


class TestQueryLast:
    def test_latest_timestamp_wins(self):
        store = EventStore(clock=_tick())
        store.ingest(_doc(100, 1.0, 1.0))
        store.ingest(_doc(50, 2.0, 2.0))  # late arrival, earlier fix
        got = store.query_last(SUBJECT)
        assert got.time_of_observation == Time(100_000)

    def test_tie_breaks_to_later_arrival(self):
        store = EventStore(clock=_tick())
        store.ingest(_doc(100, 1.0, 1.0))
        store.ingest(_doc(100, 9.0, 9.0))
        got = store.query_last(SUBJECT)
        assert got.where.payload.coordinate.latitude == 9.0

    def test_unknown_subject(self):
        store = EventStore(clock=_tick())
        with pytest.raises(UnknownSubject):
            store.query_last(SUBJECT)

    def test_matches_scan_oracle(self):
        rng = random.Random(314)
        store = EventStore(clock=_tick())
        sent = []  # (millis, arrival, lat)
        for arrival in range(200):
            t = rng.randint(0, 50)
            lat = float(arrival % 90)
            if store.ingest(_doc(t, lat, 0.0)):
                sent.append((t * 1000, arrival, lat))
        best = max(sent, key=lambda e: (e[0], e[1]))
        got = store.query_last(SUBJECT)
        assert got.time_of_observation.epoch_millis == best[0]
        assert got.where.payload.coordinate.latitude == best[2]

    def test_history_is_time_ordered(self):
        rng = random.Random(2718)
        store = EventStore(clock=_tick())
        for arrival in range(100):
            store.ingest(_doc(rng.randint(0, 40), float(arrival % 80), 0.0))
        millis = [
            o.time_of_observation.epoch_millis for o in store.observations(SUBJECT)
        ]
        assert millis == sorted(millis)


class TestForward:
    def test_stamps_and_frames(self):
        store = EventStore(step_label="relayed", clock=_tick(7))
        event = parse_location_event(_doc(3, 1.0, 2.0))
        sink = io.BytesIO()
        stamped = forward(store, event, sink)
        assert stamped.processing_sequence[-1].description == "relayed"
        sink.seek(0)
        framed = read_frame(sink)
        assert parse_location_event(framed) == stamped
        assert read_frame(sink) is None

    def test_store_exposes_clock_and_gazetteer(self):
        clock, gazetteer = _tick(), Gazetteer({})
        store = EventStore(clock=clock, gazetteer=gazetteer)
        assert store.clock is clock
        assert store.gazetteer is gazetteer
        with pytest.raises(AttributeError):
            store.clock = _tick()

    def test_forward_does_not_touch_the_store(self):
        store = EventStore(clock=_tick())
        event = parse_location_event(_doc(3, 1.0, 2.0))
        forward(store, event, io.BytesIO())
        with pytest.raises(UnknownSubject):
            store.query_last(SUBJECT)

    def test_broken_sink(self):
        class BrokenPipe(io.RawIOBase):
            def write(self, data):
                raise OSError("pipe closed")

        store = EventStore(clock=_tick())
        event = parse_location_event(_doc(3, 1.0, 2.0))
        with pytest.raises(SinkUnavailable):
            forward(store, event, BrokenPipe())

    def test_three_node_chain(self):
        """produce -> relay -> ingest leaves three steps, oldest first."""
        producer = EventStore(step_label="produced on PDA", clock=_tick(0))
        relay = EventStore(step_label="routed through node 18B6", clock=_tick(10))
        server = EventStore(step_label="received on server", clock=_tick(20))

        event = parse_location_event(_doc(3, 56.34, -2.87))
        hop1 = io.BytesIO()
        stamped = forward(producer, event, hop1)
        hop1.seek(0)
        hop2 = io.BytesIO()
        forward(relay, parse_location_event(read_frame(hop1)), hop2)
        hop2.seek(0)
        server.ingest(read_frame(hop2))

        (stored,) = server.events_for(SUBJECT)
        labels = [s.description for s in stored.processing_sequence]
        assert labels == [
            "produced on PDA",
            "routed through node 18B6",
            "received on server",
        ]
        stamps = [s.date_time.epoch_millis for s in stored.processing_sequence]
        assert stamps == sorted(stamps)
        assert stamped.processing_sequence[0].date_time == Time(0)


class TestJournal:
    def test_replay_rebuilds_equivalent_store(self, tmp_path, corpus_documents):
        journal = tmp_path / "events.journal"
        first = EventStore(clock=_tick(), journal=journal)
        for data in corpus_documents.values():
            first.ingest(data)
        first.ingest(_doc(77, 5.0, 6.0))
        first.close()

        second = EventStore(clock=_tick())
        total = second.replay(journal)
        assert total == 4
        assert set(second.subjects()) == set(first.subjects())
        for subject in first.subjects():
            assert second.observations(subject) == first.observations(subject)

    def test_journal_keeps_duplicates(self, tmp_path, corpus_documents):
        journal = tmp_path / "events.journal"
        store = EventStore(clock=_tick(), journal=journal)
        data = corpus_documents["coordinate-email.xml"]
        store.ingest(data)
        store.ingest(data)  # accepted=0 but still journaled
        assert len(list(read_journal(journal))) == 2
        store.close()

    def test_one_append_handle(self, tmp_path, monkeypatch):
        opened = []

        def counting_open(path, mode="r", *args, **kwargs):
            if "a" in mode:
                opened.append(path)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(eventd, "open", counting_open, raising=False)
        journal = tmp_path / "events.journal"
        store = EventStore(clock=_tick(), journal=journal)
        for n in range(3):
            store.ingest(_doc(n, 5.0, 6.0 + n))
            assert len(list(read_journal(journal))) == n + 1  # on disk before close
        assert opened == [journal]
        store.close()
        store.ingest(_doc(9, 5.0, 9.0))  # a closed journal opens again
        store.close()
        assert opened == [journal, journal]
        assert len(list(read_journal(journal))) == 4

    def test_replay_into_own_journal_appends_nothing(self, tmp_path, monkeypatch):
        journal = tmp_path / "events.journal"
        first = EventStore(clock=_tick(), journal=journal)
        first.ingest(_doc(1, 5.0, 6.0))
        first.close()
        store = EventStore(clock=_tick(), journal=journal)
        # read a snapshot first: a replay that journals would otherwise
        # chase its own appends and never end
        with monkeypatch.context() as patch:
            patch.setattr(eventd, "read_journal", lambda path: iter(list(read_journal(path))))
            assert store.replay(journal) == 1
        assert len(list(read_journal(journal))) == 1
        assert store.replay(journal) == 0
        assert len(list(read_journal(journal))) == 1
        store.ingest(_doc(2, 5.0, 7.0))
        assert len(list(read_journal(journal))) == 2
        store.close()

    def test_rejected_documents_not_journaled(self, tmp_path):
        journal = tmp_path / "events.journal"
        store = EventStore(clock=_tick(), journal=journal)
        with pytest.raises(NotWellFormed):
            store.ingest(b"junk")
        assert not journal.exists()

    def test_failed_append_changes_nothing(self, tmp_path):
        store = EventStore(clock=_tick(), journal=tmp_path)  # a directory: open fails
        with pytest.raises(OSError):
            store.ingest(_doc(1, 5.0, 6.0))
        assert store.subjects() == ()
        with pytest.raises(UnknownSubject):
            store.query_last(SUBJECT)


class TestTrailUpkeep:
    def test_policy_filters_history(self):
        # spatial policy: only moves of >= 100 m survive into the trail
        store = EventStore(clock=_tick(), policy=FixedSpatial(Distance(100.0)))
        store.ingest(_doc(0, 56.0, -2.0))
        store.ingest(_doc(10, 56.0, -2.0000001))  # a few centimetres
        store.ingest(_doc(20, 56.1, -2.0))
        trail = store.trail_for(SUBJECT)
        assert len(trail.nodes) == 2
        assert len(store.observations(SUBJECT)) == 3

    def test_unplaceable_wheres_skipped(self):
        store = EventStore(clock=_tick(), policy=FixedSpatial(Distance(100.0)))
        store.ingest(_doc(0, 56.0, -2.0))
        empty = LocationEvent(
            SUBJECT,
            (),
            (Observation(time_of_observation=Time(5_000), where=Where(None)),),
        )
        store.ingest(serialize_location_event(empty))
        store.ingest(_doc(10, 56.1, -2.0))
        trail = store.trail_for(SUBJECT)
        assert len(trail.nodes) == 2


    def test_unplaceable_first_then_earlier_placeable(self):
        store = EventStore(clock=_tick(), policy=FixedSpatial(Distance(100.0)))
        lost = LocationEvent(
            SUBJECT, (), (Observation(time_of_observation=Time(5_000), where=Where(None)),)
        )
        store.ingest(serialize_location_event(lost))
        store.ingest(_doc(10, 56.1, -2.0))
        assert [n.where.payload for n in store.trail_for(SUBJECT).nodes] == [None]
        store.ingest(_doc(0, 56.0, -2.0))  # late, and now the first node
        trail = store.trail_for(SUBJECT)
        assert [n.when for n in trail.nodes] == [Time(0), Time(10_000)]

    def test_in_order_ingest_makes_linear_lookups(self):
        class CountingGazetteer(Gazetteer):
            lookups = 0

            def lookup(self, key):
                CountingGazetteer.lookups += 1
                return super().lookup(key)

        names = [f"spot-{k}" for k in range(5)]
        gazetteer = CountingGazetteer(
            {name: _symbolic(56.0 + 0.01 * k, -2.0) for k, name in enumerate(names)}
        )
        store = EventStore(
            clock=_tick(), policy=FixedSpatial(Distance(100.0)), gazetteer=gazetteer
        )
        n = 400
        for i in range(n):
            where = Where(SymbolicLocation(), name=names[i % len(names)])
            event = LocationEvent(
                SUBJECT, (), (Observation(time_of_observation=Time(i * 1000), where=where),)
            )
            assert store.ingest(serialize_location_event(event)) == 1
        assert len(store.trail_for(SUBJECT).nodes) == n
        assert CountingGazetteer.lookups <= 2 * n


    def test_late_arrivals_resolve_each_where_once(self):
        # newest first: every arrival lands before the whole history, whose
        # decisions are replayed each time; the wheres must not be resolved again
        class CountingGazetteer(Gazetteer):
            lookups = 0

            def lookup(self, key):
                CountingGazetteer.lookups += 1
                return super().lookup(key)

        names = [f"spot-{k}" for k in range(5)]
        gazetteer = CountingGazetteer(
            {name: _symbolic(56.0 + 0.01 * k, -2.0) for k, name in enumerate(names)}
        )
        store = EventStore(
            clock=_tick(), policy=FixedSpatial(Distance(100.0)), gazetteer=gazetteer
        )
        n = 200
        for i in reversed(range(n)):
            where = Where(SymbolicLocation(), name=names[i % len(names)])
            event = LocationEvent(
                SUBJECT, (), (Observation(time_of_observation=Time(i * 1000), where=where),)
            )
            assert store.ingest(serialize_location_event(event)) == 1
        assert len(store.trail_for(SUBJECT).nodes) == n
        assert CountingGazetteer.lookups <= 2 * n


def _symbolic(lat: float, lon: float) -> SymbolicLocation:
    point = PhysicalLocation(LatLongCoordinate(lat, lon))
    return SymbolicLocation(region=Region(point, CircularBounds(point, Distance(25.0))))


# A small pool, so that draws repeat: resends, timestamp ties, and late
# arrivals all come up often.
_GAZETTEER = Gazetteer({"quad": _symbolic(56.3405, -2.7950)})
_PLACES = (
    Where(PhysicalLocation(LatLongCoordinate(56.3400, -2.7950))),
    Where(PhysicalLocation(LatLongCoordinate(56.3401, -2.7950))),  # ~11 m on
    Where(PhysicalLocation(LatLongCoordinate(56.3500, -2.7950))),  # ~1.1 km on
    Where(PhysicalLocation(LatLongCoordinate(56.4000, -2.9000))),
    Where(SymbolicLocation(), name="quad"),
    Where(None),  # EmptyWhere
    Where(PhysicalLocation()),  # Unresolvable: no coordinate
    Where(SymbolicLocation(), name="nowhere"),  # Unresolvable: unknown name
)
_POLICIES = (
    Manual(),
    FixedTime(2.0),
    FixedSpatial(Distance(100.0)),
    Proximity(
        (Region(PhysicalLocation(LatLongCoordinate(56.3400, -2.7950))),), Distance(500.0)
    ),
    # the second region has no coordinate: Unresolvable once the first is missed
    Proximity(
        (
            Region(PhysicalLocation(LatLongCoordinate(56.3400, -2.7950))),
            Region(PhysicalLocation()),
        ),
        Distance(500.0),
    ),
)
_OTHER = Id(IdKind.EMAIL, "walker@example.org")
_STEP = ProcessingStep(Time(0), "processed")

_observations = st.builds(
    lambda seconds, place: Observation(time_of_observation=Time(seconds * 1000), where=place),
    st.integers(0, 6),
    st.sampled_from(_PLACES),
)
_documents = st.lists(
    st.tuples(
        st.sampled_from((SUBJECT, _OTHER)),
        st.lists(_observations, min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=25,
)


class _ReplayOracle:
    """The store's contract computed from scratch after every document:
    sort by time then arrival, drop resends, fold ``record_observation``."""

    def __init__(self, policy):
        self.policy = policy
        self.arrivals = {}  # subject -> [(millis, arrival, observation)]
        self.events = {}
        self.count = 0

    def ingest(self, document: bytes) -> int:
        event = parse_location_event(document)
        history = self.arrivals.setdefault(event.id, [])
        self.events.setdefault(event.id, []).append(
            LocationEvent(event.id, event.processing_sequence + (_STEP,), event.observations)
        )
        new = 0
        for obs in event.observations:
            if all(obs != known for _, _, known in history):
                self.count += 1
                history.append((obs.time_of_observation.epoch_millis, self.count, obs))
                new += 1
        return new

    def observations(self, subject):
        return tuple(obs for _, _, obs in sorted(self.arrivals[subject], key=lambda e: e[:2]))

    def trail(self, subject):
        trail = ObservedTrail(subject)
        for obs in self.observations(subject):
            node = ObservedNode(obs.time_of_observation, obs.where)
            try:
                trail = record_observation(trail, node, self.policy, _GAZETTEER)
            except (Unresolvable, EmptyWhere):
                continue
        return trail


class TestIncrementalTrailUpkeep:
    @given(st.sampled_from(_POLICIES), _documents)
    @settings(max_examples=300, deadline=None)
    def test_matches_from_scratch_replay(self, policy, sent):
        store = EventStore(clock=lambda: Time(0), policy=policy, gazetteer=_GAZETTEER)
        oracle = _ReplayOracle(policy)
        for subject, observations in sent:
            document = serialize_location_event(LocationEvent(subject, (), tuple(observations)))
            assert store.ingest(document) == oracle.ingest(document)
            for known in oracle.arrivals:
                history = oracle.observations(known)
                assert store.observations(known) == history
                assert store.query_last(known) == history[-1]
                assert store.events_for(known) == tuple(oracle.events[known])
                assert store.trail_for(known) == oracle.trail(known)
        assert set(store.subjects()) == set(oracle.arrivals)


class TestGeneratedIngest:
    def test_store_accepts_everything_round_trippable(self):
        rng = random.Random(62)
        store = EventStore(clock=_tick())
        for _ in range(150):
            event = eventgen.gen_event(rng)
            store.ingest(serialize_location_event(event))
        assert store.subjects()


@contextlib.contextmanager
def _serving(store):
    """A running ingest server on a free port: yields the port and a
    queue of the lines it reports."""
    reports = queue.Queue()
    server = serve(store, 0, report=reports.put)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1], reports
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
    assert not thread.is_alive()


class TestServer:
    def _send(self, port, documents):
        lines = []
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            for data in documents:
                sock.sendall(len(data).to_bytes(4, "big") + data)
        return lines

    def test_socket_ingest(self, corpus_documents):
        store = EventStore(clock=_tick())
        reports = []
        done = threading.Event()

        def report(line):
            reports.append(line)
            if len(reports) >= 3:
                done.set()

        server = serve(store, 0, report=report)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            self._send(
                port,
                [
                    corpus_documents["coordinate-email.xml"],
                    b"<locationEvent>not xml",
                    corpus_documents["region-relay.xml"],
                ],
            )
            assert done.wait(5)
        finally:
            server.shutdown()
            server.server_close()
        assert reports.count("accepted=1") == 2
        assert any(line.startswith("rejected:") for line in reports)
        assert len(store.subjects()) == 2

    def test_concurrent_ingest_smoke(self):
        store = EventStore(clock=_tick())
        docs = [[_doc(t, float(t % 80), float(i)) for t in range(30)] for i in range(4)]

        def pump(batch):
            for data in batch:
                store.ingest(data)

        threads = [threading.Thread(target=pump, args=(b,)) for b in docs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        got = store.observations(SUBJECT)
        assert len(got) == 120
        millis = [o.time_of_observation.epoch_millis for o in got]
        assert millis == sorted(millis)
        assert [n.when for n in store.trail_for(SUBJECT).nodes] == [
            o.time_of_observation for o in got
        ]

    def test_any_gloss_error_is_a_reject_and_the_connection_stays(self):
        class Refusing(EventStore):
            def ingest(self, document):
                if document == b"refuse":
                    raise Unresolvable("no place for this subject")
                return super().ingest(document)

        store = Refusing(clock=_tick())
        with _serving(store) as (port, reports):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                for data in (b"refuse", _doc(1, 5.0, 6.0)):
                    sock.sendall(len(data).to_bytes(4, "big") + data)
                lines = [reports.get(timeout=5) for _ in range(2)]
        assert lines == ["rejected: no place for this subject", "accepted=1"]
        assert store.subjects() == (SUBJECT,)

    def test_truncated_body_ends_the_stream_and_the_server_serves_on(self):
        store = EventStore(clock=_tick())
        store.ingest(_doc(1, 5.0, 6.0))
        before = (store.observations(SUBJECT), store.events_for(SUBJECT))
        with _serving(store) as (port, reports):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall((10).to_bytes(4, "big") + b"abc")  # 3 of 10 announced bytes, then close
            assert reports.get(timeout=5) == "stream ended badly: truncated frame body"
            assert (store.observations(SUBJECT), store.events_for(SUBJECT)) == before
            self._send(port, [_doc(2, 5.0, 6.0)])
            assert reports.get(timeout=5) == "accepted=1"
        assert len(store.observations(SUBJECT)) == 2

    def test_journal_failure_ends_the_connection_with_one_line(self, tmp_path):
        store = EventStore(clock=_tick(), journal=tmp_path)  # a directory: the append fails
        with _serving(store) as (port, reports):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                data = _doc(1, 5.0, 6.0)
                sock.sendall(len(data).to_bytes(4, "big") + data)
                assert sock.recv(1) == b""  # the server ended this connection
            line = reports.get(timeout=5)
        assert line.startswith("connection closed: ") and "Is a directory" in line
        assert reports.empty()
        assert store.subjects() == ()
