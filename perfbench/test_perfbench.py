"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED_METRICS = {
    "setup_s", "ingest_docs_per_s", "ingest_latency_p50_ms", "ingest_latency_p99_ms",
    "replay_docs_per_s", "query_last_per_s", "relay_docs_per_s", "distill_s",
    "coupling_s", "peak_rss_mb", "failed_ratio",
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _pairs(stdout: str):
    """(record, result) per workload, in the order printed."""
    lines = [json.loads(line) for line in stdout.strip().splitlines()]
    return [(lines[i]["record"], lines[i + 1]) for i in range(0, len(lines), 2)]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit_and_nothing_fails(trace):
    proc = _run("all", trace)
    assert proc.returncode == 0, proc.stderr
    pairs = _pairs(proc.stdout)
    assert [record["workload"] for record, _ in pairs] == WORKLOADS
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    named = set()
    for record, result in pairs:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        for metric in result["metrics"].values():
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], (int, float))
            if not trace:
                assert metric["value"] > 0
        assert record["metrics"]["failed_ratio"]["value"] == 0
        assert all(v["unit"] for v in record["metrics"].values())
        named |= set(record["metrics"])
    assert named == NAMED_METRICS


def test_same_seed_same_inputs():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import gen

    a = gen.fleet_inputs(5, 20, 4, 30)
    b = gen.fleet_inputs(5, 20, 4, 30)
    assert [f.document for f in a.burst + a.paced] == [f.document for f in b.burst + b.paced]
    assert any(f.event is None for f in a.burst + a.paced)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("fleet", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
