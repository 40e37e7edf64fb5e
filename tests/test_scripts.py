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


@pytest.fixture(scope="module")
def sweep_rows():
    """The sweep's table, one run shared by the cases below: {row name: cells}."""
    done = subprocess.run(
        # -I -S: no site-packages, so the script's standard-library-only claim is checked
        [sys.executable, "-I", "-S", str(REPO / "scripts" / "sweep.py"), "--n", "20", "--k", "1"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()[2:]]


def test_sweep_prints_each_row_at_three_sizes(sweep_rows):
    assert [row[0] for row in sweep_rows] == [
        "parse", "validate", "serialize", "spot", "sites", "uniform", "in-order", "late", "import", "place"
    ]
    for row in sweep_rows:
        assert len(row) == 5  # n, 2n and 4n costs, then the growth
        assert all(float(cell) > 0 for cell in row[1:]), row


def _section(sweep_rows, names):
    return [row[0] for row in sweep_rows if row[0] in names]


def test_codec_bench_prints_each_step(sweep_rows):
    steps = ["parse", "validate", "serialize"]
    assert _section(sweep_rows, steps) == steps


def test_distill_sweep_prints_each_layout(sweep_rows):
    layouts = ["spot", "sites", "uniform"]
    assert _section(sweep_rows, layouts) == layouts


def test_ingest_sweep_prints_each_order(sweep_rows):
    orders = ["in-order", "late"]
    assert _section(sweep_rows, orders) == orders
