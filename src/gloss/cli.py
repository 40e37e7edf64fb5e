"""Command-line front end.

Exit codes: 0 success, 1 for a GlossError (refused input or a failed
lookup), 2 for an OSError, a torn journal frame (BadFrame) or a usage
error; any other exception is a bug and keeps its traceback.  State for
ingest/query lives in the journal file, so separate invocations sharing a
--journal see each other's accepted events.
"""

from __future__ import annotations

import argparse
import re
import sys
import threading
from contextlib import closing
from pathlib import Path

from .errors import BadFrame, GlossError, NotWellFormed, SchemaViolation
from .eventd import EventStore, serve
from .geo import resolved_point
from .model import Distance, DistanceUnit, Gazetteer
from .trails import distill_archetypal, export_archetypal, import_observed, parse_id_key
from .wire import parse_location_event, serialize_location_event, validate_document

_EPSILON_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*(.*?)\s*$")


def _epsilon(text: str) -> Distance:
    m = _EPSILON_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected <value><unit>, got {text!r}")
    value, unit_text = m.groups()
    try:
        unit = DistanceUnit(unit_text) if unit_text else DistanceUnit.M
    except ValueError:
        choices = ", ".join(u.value for u in DistanceUnit)
        raise argparse.ArgumentTypeError(
            f"unknown distance unit {unit_text!r} (one of: {choices})"
        ) from None
    if float(value) == 0:
        raise argparse.ArgumentTypeError("epsilon must be positive")
    return Distance(float(value), unit)


def _port(text: str) -> int:
    port = int(text)  # argparse reports a ValueError as an invalid value
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port {port} is not in 0-65535")
    return port


def _gazetteer(args) -> Gazetteer | None:
    return Gazetteer.from_file(args.gazetteer) if args.gazetteer else None


def _store(args) -> EventStore:
    store = EventStore(
        step_label=args.step_label, journal=args.journal, gazetteer=_gazetteer(args)
    )
    if args.journal and Path(args.journal).exists():
        store.replay(args.journal)  # before appending, so earlier invocations count
    return store


def _cmd_validate(args) -> int:
    data = Path(args.file).read_bytes()
    report = validate_document(data)
    for violation in report.violations:
        detail = f" {violation.detail}" if violation.detail else ""
        print(f"{violation.path}: {violation.rule}{detail}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    if report.ok:
        print("valid")
        return 0
    print(f"invalid ({len(report.violations)} violation(s))")
    return 1


def _cmd_convert(args) -> int:
    data = Path(args.file).read_bytes()
    event = parse_location_event(data)
    sys.stdout.buffer.write(serialize_location_event(event))
    return 0


def _cmd_ingest(args) -> int:
    failures = 0
    with closing(_store(args)) as store:
        for name in args.files:
            data = Path(name).read_bytes()
            try:
                accepted = store.ingest(data)
            except (NotWellFormed, SchemaViolation) as exc:
                print(f"{name}: rejected: {exc}", file=sys.stderr)
                failures += 1
                continue
            print(f"{name}: accepted={accepted}")
    return 1 if failures else 0


def _cmd_listen(args) -> int:
    store = _store(args)
    printing = threading.Lock()

    def report(line: str):
        # whole lines from the handler threads, flushed: on a pipe, a
        # supervisor reads each one, the bound port first, as it happens
        with printing:
            print(line, flush=True)

    server = serve(store, args.port, report=report)
    host, port = server.server_address[:2]
    report(f"listening on {host}:{port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        store.close()
        # a handler thread still inside print at exit would abort the interpreter
        printing.acquire()
    return 0


def _cmd_query(args) -> int:
    store = _store(args)
    subject = parse_id_key(args.subject)
    observation = store.query_last(subject)
    when = observation.time_of_observation.lexical()
    try:
        point = resolved_point(observation.where, store.gazetteer)
        print(f"{subject.key} {when} {point.latitude!r} {point.longitude!r}")
    except GlossError:
        print(f"{subject.key} {when} (no coordinate)")
    return 0


def _cmd_trail_distill(args) -> int:
    trails = []
    for name in args.manifests:
        trail, _policy = import_observed(name)
        trails.append(trail)
    archetype = distill_archetypal(trails, args.epsilon, _gazetteer(args))
    sys.stdout.write(export_archetypal(archetype))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gloss", description="Location-event tooling: validate, convert, ingest, query."
    )
    parser.add_argument("--step-label", default="processed", help="description this node stamps onto events")
    parser.add_argument("--journal", help="append-only event journal (also replayed on start)")
    parser.add_argument("--gazetteer", help="tab-separated name/lat/lon[/radius] lookup file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document, reporting every violation")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("convert", help="re-serialize a document in canonical form")
    p.add_argument("file")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("ingest", help="parse files into the store")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("listen", help="ingest length-prefixed documents from a TCP port")
    p.add_argument("port", type=_port, help="0-65535; 0 picks a free port")
    p.set_defaults(func=_cmd_listen)

    p = sub.add_parser("query", help="interrogate the store")
    qsub = p.add_subparsers(dest="query_command", required=True)
    q = qsub.add_parser("last", help="most recent known position for a subject")
    q.add_argument("subject", help="<kind>:<value>, e.g. email:graham@dcs.st-and.ac.uk")
    q.set_defaults(func=_cmd_query)

    p = sub.add_parser("trail", help="trail operations")
    tsub = p.add_subparsers(dest="trail_command", required=True)
    t = tsub.add_parser("distill", help="collapse observed trails into a place graph")
    t.add_argument("--epsilon", type=_epsilon, required=True, help="cluster radius, e.g. 50m or 0.5km")
    t.add_argument("manifests", nargs="+")
    t.set_defaults(func=_cmd_trail_distill)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, BadFrame) as exc:  # BadFrame: a torn journal frame
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GlossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
