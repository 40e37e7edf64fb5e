"""What one measured round of a workload hands back to the runner."""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field

from spans import END, NAME, START, durations_s, percentile


@dataclass
class Round:
    """Rounds of a run repeat identical work, so their lists line up item
    by item; the runner takes each item's median over the rounds."""

    traced: bool
    attempted: int
    failed: int
    rate_count: int  # items the throughput counts ...
    rate_items: list[float]  # ... and the seconds of each of them
    latencies_ms: list[float]  # one per latency item
    batch_items: list[float]  # seconds of each call in the closed-loop phases
    batch_phases: tuple[str, ...]  # span names of those phases
    lateness_ms: list[float] = field(default_factory=list)
    # open loops only: wall time per item from when it was due until done
    wait_ms: list[float] = field(default_factory=list)
    # named per-workload metrics: (count, item seconds) gives count / seconds,
    # (None, item seconds) gives seconds
    named: dict[str, tuple[int | None, list[float]]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)  # traced rounds only
    # the speed factors applied to this round's times, for the record
    scales: dict[str, float] = field(default_factory=dict)


def cpu_ns() -> int:
    """CPU nanoseconds of the calling thread, user and kernel mode.

    Work done in this process is timed with it rather than with a wall
    clock.  The reference host is a virtual machine whose CPUs the
    hypervisor takes away for stretches (steal time); a wall clock counts
    those stretches as the program's time, a thread's CPU clock does not.
    User and kernel time are read together because the kernel splits one
    measured total between them by sampling, which makes either alone
    jitter."""
    return time.thread_time_ns()


def user_cpu_s() -> float:
    """User-mode CPU seconds of the calling thread.  Set-up is timed with
    it: set-up creates and reads files, and on the reference host the
    kernel's cost of that swung three- to five-fold from minute to minute,
    which would drown the program's own set-up work.  Over a set-up of
    0.1 s it jitters by some per cent (see ``cpu_ns``), so set-ups are
    repeated and their median is taken."""
    return resource.getrusage(resource.RUSAGE_THREAD).ru_utime


# The benchmark process runs on the first CPU it may use and the fleet
# node on the last: each gauge reading then comes from the CPU that did the
# work it scales, and the two processes do not displace each other.
CPUS = sorted(os.sched_getaffinity(0))


def pin(cpu: int) -> None:
    """Run the calling process on ``cpu`` only."""
    os.sched_setaffinity(0, {cpu})


# CPU time still counts a CPU that runs slower: on the reference host,
# other tenants slowed the same work by up to a half, for seconds to
# minutes at a time.  So each process that does timed work also times a
# fixed gauge just before and just after it, and the work's times are
# multiplied by REFERENCE_S / (the gauge's best time of the two): seconds
# as they would read on a host where the gauge takes REFERENCE_S.
REFERENCE_S = 0.015


def _probe_s() -> float:
    """CPU seconds for a fixed piece of plain Python that uses no gloss code."""
    start = cpu_ns()
    table: dict = {}
    for i in range(20_000):
        key = (i % 97, str(i))
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return (cpu_ns() - start) / 1e9


def gauge_s() -> float:
    """The gauge's best of five."""
    return min(_probe_s() for _ in range(5))


def speed_scale(before_s: float, after_s: float) -> float:
    """The factor for work timed between two gauge readings."""
    return REFERENCE_S / min(before_s, after_s)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call_stats(spans, name: str, p99: bool = False) -> dict:
    """calls, busy_s and p50_us (and p99_us) of the spans called ``name``."""
    chosen = [s for s in spans if s[NAME] == name]
    seconds = durations_s(chosen)
    out = {
        f"{name}.calls": float(len(chosen)),
        f"{name}.busy_s": sum(seconds),
        f"{name}.p50_us": percentile(seconds, 0.5) * 1e6,
    }
    if p99:
        out[f"{name}.p99_us"] = percentile(seconds, 0.99) * 1e6
    return out


def growth(durations_by_subject: dict[object, list[float]]) -> float:
    """Mean cost over the last quarter of each subject's calls divided by
    the mean cost over the first quarter; subjects with fewer than four
    calls are left out."""
    first: list[float] = []
    last: list[float] = []
    for seconds in durations_by_subject.values():
        quarter = len(seconds) // 4
        if quarter:
            first.extend(seconds[:quarter])
            last.extend(seconds[-quarter:])
    if not first or sum(first) == 0:
        return 0.0
    return (sum(last) / len(last)) / (sum(first) / len(first))


def span_ns(span) -> int:
    return span[END] - span[START]
