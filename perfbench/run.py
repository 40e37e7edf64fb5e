"""gloss benchmark: three seeded workloads, checked against references.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

Run from the repository root, stdlib only.  A run generates its inputs
from ``--seed`` (untimed), sets up, then repeats identical rounds against
fresh program state until ``--seconds`` have passed.  Work is timed on
the CPU clock of the thread that does it, so that time the host's
hypervisor takes the CPU away is not counted, and put at a reference
speed with a gauge timed around it (see perfbench/README.md).
With ``--trace 0`` no round records spans, and the rounds give the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate, the traced ones give the per-layer metrics, and the two
together give the tracing overhead.

Standard output carries one ``{"record": ...}`` line per run, with the
environment, sample counts and every metric under the names used in
perfbench/README.md, and ends with the result line:
``{"correct", "attempted", "failed", "metrics"}``.  A table of the same
metrics goes to standard error.  Spans of traced rounds are written to
``.perfbench-out/trace-<workload>-<seed>.json``.  The exit code is 0 once
the result line is printed, wrong outputs included (``correct`` says so),
and 2 when gloss or the test generator cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

from common import CPUS, pin
from spans import END, NAME, PARENT, START, Tracer, median, percentile, self_times

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench-out"

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "batch_s": "s",
    "peak_rss_mb": "MB",
}

# per-workload names for the same measurements, printed in the record
NAMED = {
    "setup_s": "s",
    "ingest_docs_per_s": "docs/s",
    "ingest_latency_p50_ms": "ms",
    "ingest_latency_p99_ms": "ms",
    "replay_docs_per_s": "docs/s",
    "query_last_per_s": "1/s",
    "relay_docs_per_s": "docs/s",
    "distill_s": "s",
    "coupling_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}

PER_LAYER = {
    "wire.parse.calls": "count",
    "wire.parse.bytes": "B",
    "wire.parse.busy_s": "s",
    "wire.parse.p50_us": "us",
    "wire.serialize.calls": "count",
    "wire.serialize.busy_s": "s",
    "wire.serialize.p50_us": "us",
    "eventd.ingest.calls": "count",
    "eventd.ingest.busy_s": "s",
    "eventd.ingest.p50_us": "us",
    "eventd.ingest.p99_us": "us",
    "eventd.ingest.excl_parse_us": "us",
    "eventd.ingest.growth": "ratio",
    "eventd.obs.offered": "count",
    "eventd.obs.accepted": "count",
    "eventd.obs.duplicate": "count",
    "eventd.frames.sent": "count",
    "eventd.frames.rejected": "count",
    "eventd.read_journal.busy_s": "s",
    "eventd.journal.bytes": "B",
    "eventd.query_last.p50_us": "us",
    "eventd.trail_for.p50_us": "us",
    "eventd.forward.busy_s": "s",
    "eventd.tcp.backlog_max": "count",
    "trails.kept_ratio": "ratio",
    "trails.import_observed.busy_s": "s",
    "trails.export_observed.busy_s": "s",
    "trails.distill_archetypal.s_n": "s",
    "trails.distill_archetypal.s_2n": "s",
    "trails.distill_archetypal.s_4n": "s",
    "trails.distill.growth": "ratio",
    "trails.points": "count",
    "trails.clusters": "count",
    "interaction.proximity_coupling.calls": "count",
    "interaction.proximity_coupling.busy_s": "s",
    "interaction.proximity_coupling.pairs": "count",
    "interaction.topology_place.busy_s": "s",
    "model.gazetteer.load_s": "s",
    "model.gazetteer.entries": "count",
    "bench.gen_late_max_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
    "bench.layer_coverage": "ratio",
}

WORKLOADS = ("fleet", "long-history", "spatial")

SETUPS = 9  # set-ups per run


def _import_workloads():
    here = Path(__file__).resolve().parent
    for path in (ROOT / "src", ROOT / "tests", here):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import fleet
    import longhistory
    import spatial

    return {"fleet": fleet.Fleet, "long-history": longhistory.LongHistory, "spatial": spatial.Spatial}


def _git_sha() -> str | None:
    """HEAD from the checkout's own .git, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gloss").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _per_item(lists: list[list[float]]) -> list[float]:
    """Item by item, the median over the rounds."""
    return [median(item) for item in zip(*lists)]


def _summary(name, untraced, setup, peak_rss) -> tuple[dict, dict]:
    """End-to-end figures and the named per-workload ones.

    Rounds repeat identical work, so their items line up: each figure
    takes every item's median over the rounds (per call, per frame, per
    request).
    """

    def per_item(items_of) -> list[float]:
        return _per_item([items_of(r) for r in untraced])

    latencies = per_item(lambda r: r.latencies_ms)
    end_to_end = {
        "setup_s": median(setup),
        "throughput_per_s": untraced[0].rate_count / sum(per_item(lambda r: r.rate_items)),
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
        "batch_s": sum(per_item(lambda r: r.batch_items)),
        "peak_rss_mb": peak_rss,
    }
    named = {}
    for key, (count, _) in untraced[0].named.items():
        item_s = sum(per_item(lambda r: r.named[key][1]))
        named[key] = item_s if count is None else count / item_s
    named.update(setup_s=end_to_end["setup_s"], peak_rss_mb=peak_rss)
    if name != "spatial":
        named["ingest_latency_p50_ms"] = end_to_end["latency_p50_ms"]
        named["ingest_latency_p99_ms"] = percentile(latencies, 0.99)
    return end_to_end, named


def _layer_coverage(tracer, phases) -> float:
    """Time the layer spans cover inside the batch phases, over the
    phases' wall time."""
    spans = tracer.spans
    chosen = {i for i, s in enumerate(spans) if s[NAME] in phases}
    wall = sum(spans[i][END] - spans[i][START] for i in chosen)
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] in chosen)
    return covered / wall if wall else 0.0


def run_workload(cls, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """Returns (record, result) for one workload."""
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(seed, smoke, workdir)
        setup = [workload.setup_once() for _ in range(SETUPS)]
        # the inputs and references live for the whole run: keep the
        # collector from scanning them inside the timed calls
        gc.collect()
        gc.freeze()
        rounds = []
        start = time.monotonic()
        while True:
            gc.collect()
            began = time.monotonic()
            tracer = Tracer(trace and len(rounds) % 2 == 1)
            rounds.append((workload.round(tracer), tracer))
            # stop when another round of the same length would overrun
            if 2 * time.monotonic() - began - start >= seconds and (not trace or len(rounds) >= 2):
                break
        peak_rss = workload.peak_rss_mb()
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r, _ in rounds if not r.traced]
    traced = [(r, t) for r, t in rounds if r.traced]
    lateness = [x for r, _ in rounds for x in r.lateness_ms]
    attempted = sum(r.attempted for r, _ in rounds)
    failed = sum(r.failed for r, _ in rounds)
    end_to_end, named = _summary(name, untraced, setup, peak_rss)
    named["failed_ratio"] = failed / attempted
    latency_samples = len(untraced[0].latencies_ms)
    waits = _per_item([r.wait_ms for r in untraced])

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "per_round": {
            "throughput_per_s": [r.rate_count / sum(r.rate_items) for r in untraced],
            "batch_s": [sum(r.batch_items) for r in untraced],
            "setup_s": setup,
            "speed_scales": [r.scales for r in untraced],
        },
        "samples": {
            "setup_s": len(setup),
            "latency": latency_samples,
            "latency_beyond_p90": latency_samples - max(1, -(-90 * latency_samples // 100)),
            "latency_beyond_p99": latency_samples - max(1, -(-99 * latency_samples // 100)),
            "rounds_per_item": len(untraced),
        },
        "gen_late_max_ms": max(lateness, default=0.0),
        "gen_late_p99_ms": percentile(lateness, 0.99),
        "wait_ms": {f"p{q}": percentile(waits, q / 100) for q in (50, 90, 99)} if waits else None,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()},
        "metrics": {k: {"value": v, "unit": NAMED[k]} for k, v in named.items()},
    }

    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    if trace:
        layers = {}
        for key in PER_LAYER:
            values = [r.layers.get(key, 0.0) for r, _ in traced]
            layers[key] = median(values)
        layers["bench.gen_late_max_ms"] = record["gen_late_max_ms"]
        traced_batch = sum(_per_item([r.batch_items for r, _ in traced]))
        layers["bench.trace_overhead_ratio"] = traced_batch / end_to_end["batch_s"]
        layers["bench.layer_coverage"] = median([_layer_coverage(t, r.batch_phases) for r, t in traced])
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in PER_LAYER.items()}
        record["per_layer"] = metrics
        trace_file = OUT / f"trace-{name}-{seed}.json"
        rounds_out = []
        for r, t in traced:
            own = self_times(t.spans)
            summary: dict[str, list] = {}
            for s, self_ns in zip(t.spans, own):
                entry = summary.setdefault(s[NAME], [0, 0, 0])
                entry[0] += 1
                entry[1] += s[END] - s[START]
                entry[2] += self_ns
            rounds_out.append(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "doc"],
                    "spans": t.spans,
                    "layers": {k: {"calls": c, "busy_ns": b, "self_ns": o} for k, (c, b, o) in summary.items()},
                }
            )
        trace_file.write_text(json.dumps({"record": record, "rounds": rounds_out}))
        record["trace_file"] = str(trace_file.relative_to(ROOT))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        classes = _import_workloads()
    except ImportError as exc:
        print(f"perfbench: cannot import gloss or its test generator: {exc}", file=sys.stderr)
        return 2
    pin(CPUS[0])

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record, result = run_workload(
            classes[name], name, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        for table in ("metrics", "end_to_end", "per_layer"):
            for key, metric in record.get(table, {}).items():
                print(f"{name:>12} {table:<10} {key:<40} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
        print(json.dumps({"record": record}))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
