"""Every reader of outside bytes lets only its documented errors escape.

Hypothesis damages frame streams, journals, manifests with their event
files, gazetteer files, ``<kind>:<value>`` keys and wire documents: byte
flips, cuts, dropped runs, NUL, CR, U+0001, bytes that are not UTF-8 and
lone surrogates spliced in, NaN, inf and huge numbers put in place of a
number, and locales nested up to one past the cap.  Only error types are
checked here; what each reader makes of good input is tested beside it.
``main`` runs on the same files in process and must exit 0, 1 or 2 with
nothing escaping.

Each property runs ``_EXAMPLES`` = 200 examples: about 6 s in all on two
vCPUs.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gloss.cli import main
from gloss.errors import BadFrame, BadInput, GlossError, NotWellFormed, OutOfRange, SchemaViolation
from gloss.eventd import _FRAME_CAP, EventStore, read_frame, write_frame
from gloss.model import Gazetteer, Id, IdKind, Information, LatLongCoordinate, PhysicalLocation, Where
from gloss.temporal import Time
from gloss.trails import FixedTime, ObservedNode, ObservedTrail, _read_manifest, export_observed, import_observed
from gloss.trails import parse_id_key
from gloss.wire import _NESTING_CAP, parse_location_event, parse_where, validate_document
from test_wire import _nested

_EXAMPLES = 200
_FUZZ = settings(max_examples=_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")
_NUMBERS = [b"nan", b"NaN", b"inf", b"-inf", b"-1", b"1e999", b"-1e999", b"1e-400", b"9" * 40]
_SPLICES = [b"\0", b"\r", b"\x01", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\n", b"\t", b":", b"#", b" "]
_TEXT_SPLICES = ["\0", "\r", "\x01", "\ud800", "\udcff", "\n", "\t", ":", " ", "é"]

SUBJECT = Id(IdKind.EMAIL, "walker@example.org")


@st.composite
def _damaged(draw, data: bytes) -> bytes:
    """``data`` after one to three flips, cuts, drops, splices or number swaps."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["flip", "cut", "drop", "splice", "number"]))
        at = draw(st.integers(0, len(data)))
        if op == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif op == "cut":
            data = data[:at]
        elif op == "drop":
            data = data[:at] + data[at + draw(st.integers(1, 16)):]
        elif op == "splice":
            data = data[:at] + draw(st.sampled_from(_SPLICES)) + data[at:]
        elif op == "number":
            numbers = list(_NUMBER.finditer(data))
            if numbers:
                m = draw(st.sampled_from(numbers))
                data = data[:m.start()] + draw(st.sampled_from(_NUMBERS)) + data[m.end():]
    return data


@st.composite
def _damaged_text(draw, text: str) -> str:
    """Text damaged as ``_damaged`` does, with lone surrogates among the splices."""
    text = draw(_damaged(text.encode())).decode("utf-8", errors="replace")
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(_TEXT_SPLICES)) + text[at:]


_DOCUMENTS = [path.read_bytes() for path in sorted((Path(__file__).parents[1] / "corpus").glob("*.xml"))]
documents = st.one_of(
    st.sampled_from(_DOCUMENTS),
    st.integers(1, _NESTING_CAP + 1).map(_nested),
).flatmap(lambda data: st.one_of(st.just(data), _damaged(data)))

_GAZETTEER = b"# name, lat, lon, radius\nPier\t56.34\t-2.79\nWest Sands\t56.35\t-2.80\t400\n\nCafe\t-0.5\t179.9\t25.0\n"


def _trail() -> ObservedTrail:
    nodes = tuple(
        ObservedNode(
            Time(i * 60_000),
            Where(PhysicalLocation(LatLongCoordinate(56.34 + i * 0.001, -2.79))),
            Information((f"stop {i}",), ("https://example.org/a",)) if i % 2 == 0 else None,
        )
        for i in range(4)
    )
    return ObservedTrail(SUBJECT, nodes)


def _export() -> dict[str, bytes]:
    """The files of an exported trail, by name."""
    with tempfile.TemporaryDirectory() as folder:
        export_observed(_trail(), FixedTime(30.0), folder)
        return {path.name: path.read_bytes() for path in Path(folder).iterdir()}


_EXPORT = _export()
_MANIFEST = _EXPORT["trail.manifest"]
_EVENT_FILES = sorted(name for name in _EXPORT if name.endswith(".xml"))


@st.composite
def manifest_folders(draw) -> dict[str, bytes]:
    """An export with its manifest, or one of its event files, or both, damaged."""
    files = dict(_EXPORT)
    which = draw(st.sampled_from(["manifest", "event", "both"]))
    if which != "event":
        files["trail.manifest"] = draw(_damaged(_MANIFEST))
    if which != "manifest":
        name = draw(st.sampled_from(_EVENT_FILES))
        files[name] = draw(_damaged(files[name]))
    return files


def _write(folder: str, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (Path(folder) / name).write_bytes(data)
    return Path(folder) / "trail.manifest"


def _frames(documents) -> bytes:
    stream = io.BytesIO()
    for document in documents:
        write_frame(stream, document)
    return stream.getvalue()


frame_streams = st.lists(st.sampled_from(_DOCUMENTS), min_size=1, max_size=3).map(_frames).flatmap(_damaged)


def _main(argv) -> int:
    """``main(argv)`` with its output captured; it must return 0, 1 or 2."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code


class TestDocuments:
    @given(documents, st.booleans())
    @_FUZZ
    def test_parse_and_validate_raise_only_their_errors(self, data, as_text):
        document = data.decode("utf-8", errors="surrogateescape") if as_text else data
        validate_document(document)  # never raises
        with contextlib.suppress(NotWellFormed, SchemaViolation):
            parse_location_event(document)
        start, end = data.find(b"<where"), data.rfind(b"</where>")
        if 0 <= start < end:
            with contextlib.suppress(NotWellFormed, SchemaViolation):
                parse_where(data[start:end + 8])

    @given(documents, st.sampled_from(["validate", "convert", "ingest"]))
    @_FUZZ
    def test_main_on_a_document(self, data, command):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "event.xml"
            path.write_bytes(data)
            _main([command, str(path)])


class TestFrames:
    @given(frame_streams)
    @_FUZZ
    def test_read_frame_raises_only_bad_frame(self, data):
        source = io.BytesIO(data)
        with contextlib.suppress(BadFrame):
            while read_frame(source) is not None:
                pass

    @given(st.integers(_FRAME_CAP + 1, 2**32 - 1))
    @_FUZZ
    def test_a_length_over_the_cap_is_a_bad_frame(self, length):
        with pytest.raises(BadFrame, match="exceeds the cap"):
            read_frame(io.BytesIO(length.to_bytes(4, "big") + b"<"))

    @given(frame_streams)
    @_FUZZ
    def test_replay_raises_only_gloss_errors(self, data):
        with tempfile.TemporaryDirectory() as folder:
            journal = Path(folder) / "journal"
            journal.write_bytes(data)
            with contextlib.suppress(GlossError):
                EventStore().replay(journal)
            _main(["--journal", str(journal), "query", "last", "email:graham@dcs.st-and.ac.uk"])


class TestManifests:
    @given(_damaged_text(_MANIFEST.decode()))
    @_FUZZ
    def test_read_manifest_raises_only_bad_input(self, text):
        with contextlib.suppress(BadInput):
            _read_manifest(text)

    @given(manifest_folders())
    @_FUZZ
    def test_import_raises_only_gloss_and_os_errors(self, files):
        with tempfile.TemporaryDirectory() as folder:
            manifest = _write(folder, files)
            with contextlib.suppress(GlossError, OSError):
                import_observed(manifest)
            _main(["trail", "distill", "--epsilon", "50m", str(manifest)])

    @given(st.one_of(st.text(max_size=12), _damaged_text("phone:+44 79 41"), _damaged_text(SUBJECT.key)))
    @_FUZZ
    def test_parse_id_key_raises_only_bad_input(self, key):
        with contextlib.suppress(BadInput):
            parse_id_key(key)


class TestGazetteers:
    @given(_damaged(_GAZETTEER))
    @_FUZZ
    def test_from_file_raises_only_bad_input_or_out_of_range(self, data):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "places.tsv"
            path.write_bytes(data)
            with contextlib.suppress(BadInput, OutOfRange):
                Gazetteer.from_file(path)
            _main(["--gazetteer", str(path), "trail", "distill", "--epsilon", "50m", str(_write(folder, _EXPORT))])


class TestLeaks:
    """Each input here leaked a builtin error, or the enum's message, through main."""

    def _distill(self, tmp_path, capsys, files, *options) -> tuple[int, str]:
        manifest = _write(tmp_path, files)
        capsys.readouterr()
        code = main([*options, "trail", "distill", "--epsilon", "50m", str(manifest)])
        return code, capsys.readouterr().err

    def test_a_policy_unit_the_enum_refuses(self, tmp_path, capsys):
        files = dict(_EXPORT, **{"trail.manifest": _MANIFEST.replace(b"fixed-time 30.0", b"fixed-spatial 3 parsec")})
        with pytest.raises(BadInput):
            import_observed(_write(tmp_path, files))
        assert self._distill(tmp_path, capsys, files) == (1, "error: bad policy line: 'fixed-spatial 3 parsec'\n")

    def test_a_gazetteer_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "places.tsv"
        path.write_bytes(b"Pier\t56.34\t-2.79\n\xff\n")
        with pytest.raises(BadInput):
            Gazetteer.from_file(path)
        got = self._distill(tmp_path, capsys, _EXPORT, "--gazetteer", str(path))
        assert got == (1, "error: bad gazetteer line: '\\\\xff\\n'\n")

    def test_a_nul_in_an_event_name(self, tmp_path, capsys):
        first = _EVENT_FILES[0].encode()
        files = dict(_EXPORT, **{"trail.manifest": _MANIFEST.replace(first, first + b"\0")})
        with pytest.raises(BadInput):
            import_observed(_write(tmp_path, files))
        got = self._distill(tmp_path, capsys, files)
        assert got == (1, f"error: event file '{_EVENT_FILES[0]}\\x00' is not a plain file name\n")
