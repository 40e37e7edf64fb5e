"""The demo scripts run to completion from the repository root."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["distill_walks_demo.py", "relay_chain_demo.py"])
def test_demo_exits_cleanly(script):
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script)],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_codec_bench_prints_each_step():
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "codec_bench.py"), "--n", "20", "--k", "1"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    steps = [line.split()[0] for line in done.stdout.splitlines()[1:]]
    assert steps == ["parse", "validate", "serialize"]


def test_distill_sweep_prints_each_layout():
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "distill_sweep.py"), "--n", "20", "--k", "1"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    layouts = [line.split()[0] for line in done.stdout.splitlines()[2:]]
    assert layouts == ["spot", "sites", "uniform"]


def test_ingest_sweep_prints_each_order():
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "ingest_sweep.py"), "--n", "20", "--k", "1"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    orders = [line.split()[0] for line in done.stdout.splitlines()[2:]]
    assert orders == ["in-order", "late"]
