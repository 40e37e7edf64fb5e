"""End-to-end command-line behaviour: exit codes, output shapes, and
journal-backed state between invocations."""

import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from gloss.cli import main
from gloss.model import Distance, DistanceUnit, Id, IdKind, Information
from gloss.temporal import Time
from gloss.trails import Manual, ObservedNode, ObservedTrail, export_observed
from gloss.model import LatLongCoordinate, PhysicalLocation, Where
from gloss.wire import parse_location_event


@pytest.fixture()
def corpus_file(corpus_dir):
    return str(corpus_dir / "gps-fix-phone.xml")


class TestValidate:
    def test_valid_document(self, corpus_file, capsys):
        assert main(["validate", corpus_file]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("valid")
        assert "warning:" in out  # corpus timestamps carry no zone

    def test_invalid_document(self, tmp_path, corpus_dir, capsys):
        data = (corpus_dir / "gps-fix-phone.xml").read_bytes()
        bad = tmp_path / "bad.xml"
        bad.write_bytes(data.replace(b">05<", b">31<"))
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "maxInclusive" in out
        assert "invalid (1 violation(s))" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.xml")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_encoding_is_invalid_not_a_traceback(self, tmp_path):
        bogus = tmp_path / "bogus.xml"
        bogus.write_bytes(b'<?xml version="1.0" encoding="bogus"?><locationEvent/>')
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "gloss.cli", "validate", str(bogus)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == 1
        assert done.stdout.splitlines() == ["/: well-formed unknown encoding: bogus", "invalid (1 violation(s))"]
        assert "Traceback" not in done.stdout + done.stderr


class TestConvert:
    def test_canonical_stdout(self, corpus_file, capsys):
        assert main(["convert", corpus_file]) == 0
        data = capsys.readouterr().out.encode()
        assert data.startswith(b'<?xml version="1.0" encoding="UTF-8"?>\n')
        event = parse_location_event(data)
        assert event.id == Id(IdKind.PHONE, "+447941615809")

    def test_broken_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<locationEvent")
        assert main(["convert", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestIngestAndQuery:
    def test_round_trip_through_journal(self, tmp_path, corpus_dir, capsys):
        journal = str(tmp_path / "events.journal")
        target = str(corpus_dir / "coordinate-email.xml")
        assert main(["--journal", journal, "ingest", target]) == 0
        assert "accepted=1" in capsys.readouterr().out

        code = main(
            ["--journal", journal, "query", "last", "email:graham@dcs.st-and.ac.uk"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        key, when, lat, lon = out.split()
        assert key == "email:graham@dcs.st-and.ac.uk"
        assert when == "2003-05-16T18:31:59"
        assert float(lat) == 56.340232849121094
        assert float(lon) == -2.86754378657099878

    def test_torn_journal_tail_is_an_io_error(self, tmp_path, corpus_dir, capsys):
        journal = tmp_path / "events.journal"
        target = str(corpus_dir / "coordinate-email.xml")
        assert main(["--journal", str(journal), "ingest", target]) == 0
        whole = journal.read_bytes()
        journal.write_bytes(whole + whole[:20])  # a second frame cut off mid-body
        capsys.readouterr()
        assert main(["--journal", str(journal), "ingest", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated frame body" in err
        assert "Traceback" not in err

    def test_rejected_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "junk.xml"
        bad.write_text("<locationEvent>oops")
        assert main(["ingest", str(bad)]) == 1
        assert "rejected" in capsys.readouterr().err

    def test_mixed_files_report_individually(self, tmp_path, corpus_dir, capsys):
        bad = tmp_path / "junk.xml"
        bad.write_text("not xml at all")
        good = str(corpus_dir / "region-relay.xml")
        assert main(["ingest", good, str(bad)]) == 1
        captured = capsys.readouterr()
        assert "accepted=1" in captured.out
        assert "junk.xml: rejected" in captured.err

    def test_query_unknown_subject(self, tmp_path, capsys):
        journal = str(tmp_path / "events.journal")
        assert main(["--journal", journal, "query", "last", "bitString:ghost"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_query_without_coordinate(self, tmp_path, capsys):
        from gloss.wire import LocationEvent, Observation, serialize_location_event

        event = LocationEvent(
            Id(IdKind.BIT_STRING, "lost"),
            (),
            (Observation(time_of_observation=Time(0), where=Where(None)),),
        )
        doc = tmp_path / "event.xml"
        doc.write_bytes(serialize_location_event(event))
        journal = str(tmp_path / "events.journal")
        assert main(["--journal", journal, "ingest", str(doc)]) == 0
        assert main(["--journal", journal, "query", "last", "bitString:lost"]) == 0
        out = capsys.readouterr().out
        assert "(no coordinate)" in out


class TestTrailDistill:
    def _manifest(self, tmp_path, name, points):
        nodes = tuple(
            ObservedNode(
                Time(t * 1000),
                Where(PhysicalLocation(LatLongCoordinate(lat, lon))),
                Information((f"stop {i}",), ()) if i == 0 else None,
            )
            for i, (t, lat, lon) in enumerate(points)
        )
        trail = ObservedTrail(Id(IdKind.BIT_STRING, name), nodes)
        return str(export_observed(trail, Manual(), tmp_path / name))

    def test_end_to_end(self, tmp_path, capsys):
        m1 = self._manifest(
            tmp_path, "walk1", [(0, 56.0, -2.0), (60, 56.01, -2.0), (120, 56.02, -2.0)]
        )
        m2 = self._manifest(
            tmp_path, "walk2", [(300, 56.0, -2.0), (370, 56.01, -2.0), (430, 56.02, -2.0)]
        )
        assert main(["trail", "distill", "--epsilon", "200m", m1, m2]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("node ")) == 3
        assert lines[-1] == "order n0 n1 n2"
        assert any(l.startswith("edge n0 n1") for l in lines)

    def test_epsilon_forms(self):
        from gloss.cli import _epsilon

        assert _epsilon("50m") == Distance(50.0, DistanceUnit.M)
        assert _epsilon("50") == Distance(50.0, DistanceUnit.M)
        assert _epsilon("0.5 km") == Distance(0.5, DistanceUnit.KM)
        assert _epsilon("2 nautical miles") == Distance(
            2.0, DistanceUnit.NAUTICAL_MILES
        )

    def test_bad_epsilon_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trail", "distill", "--epsilon", "50 furlongs", "x.manifest"])
        assert exc.value.code == 2
        assert "unknown distance unit" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["0m", "0", "0.0 km", "0e5 miles", "1e-400m"])
    def test_zero_epsilon_is_usage_error(self, tmp_path, capsys, epsilon):
        manifest = self._manifest(tmp_path, "walk1", [(0, 56.0, -2.0)])
        with pytest.raises(SystemExit) as exc:
            main(["trail", "distill", "--epsilon", epsilon, manifest])
        assert exc.value.code == 2
        assert "epsilon must be positive" in capsys.readouterr().err

    def test_policy_line_without_a_value(self, tmp_path, capsys):
        manifest = Path(self._manifest(tmp_path, "walk1", [(0, 56.0, -2.0)]))
        manifest.write_text(manifest.read_text().replace("policy manual", "policy"))
        assert main(["trail", "distill", "--epsilon", "50m", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: bad policy line: ''"]  # one line, no traceback

    def test_missing_manifest(self, tmp_path, capsys):
        missing = str(tmp_path / "nope" / "trail.manifest")
        assert main(["trail", "distill", "--epsilon", "50m", missing]) == 2


class TestErrors:
    def test_a_bug_is_not_reported_as_bad_input(self, corpus_file, monkeypatch):
        # a ValueError that no reader of outside bytes raised is a bug: it
        # propagates with its traceback instead of exiting 1 with one line
        def broken(data):
            raise ValueError("a bug")

        monkeypatch.setattr("gloss.cli.validate_document", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["validate", corpus_file])


class TestListen:
    def test_port_forms(self):
        from gloss.cli import _port

        assert [_port("0"), _port("8080"), _port("65535")] == [0, 8080, 65535]

    @pytest.mark.parametrize("port", ["99999", "65536", "-1"])
    def test_port_outside_the_range_is_a_usage_error(self, port):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "gloss.cli", "listen", port],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == 2
        assert done.stderr.splitlines()[-1] == f"gloss listen: error: argument port: port {port} is not in 0-65535"
        assert "Traceback" not in done.stderr

    def test_reports_each_line_as_it_happens(self, corpus_dir):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)  # the node must flush for itself
        listener = subprocess.Popen(
            [sys.executable, "-m", "gloss.cli", "listen", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        lines = queue.Queue()  # stdout is a pipe: each line must arrive while the node runs
        reader = threading.Thread(target=lambda: [lines.put(line) for line in listener.stdout], daemon=True)
        reader.start()
        try:
            bound = re.fullmatch(r"listening on 127\.0\.0\.1:(\d+)\n", lines.get(timeout=10))
            assert bound
            port = int(bound.group(1))
            data = (corpus_dir / "coordinate-email.xml").read_bytes()
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(len(data).to_bytes(4, "big") + data)
                assert lines.get(timeout=10) == "accepted=1\n"
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(len(data).to_bytes(4, "big") + data[:10])  # then hang up
            assert lines.get(timeout=10) == "stream ended badly: truncated frame body\n"
            listener.send_signal(signal.SIGINT)
            assert listener.wait(timeout=10) == 0
            assert listener.stderr.read() == ""
        finally:
            if listener.poll() is None:
                listener.kill()
                listener.wait(timeout=10)
            reader.join(5)
            listener.stdout.close()
            listener.stderr.close()
