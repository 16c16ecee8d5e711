"""The benchmark's own arithmetic: percentiles, self time, failure share, RSS.

Kept free of program imports so its tests run without a deployment.
"""

from __future__ import annotations

import math
import os

#: Percentiles reported beside a median, highest first.  One is reported
#: only when at least ten samples lie beyond it.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_SAMPLES = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it."""
    for p in PERCENTILE_LADDER:
        if n * (1 - p / 100) >= TAIL_SAMPLES - 1e-9:
            return p
    return None


def summarize(values: list[float]) -> dict:
    """Median, the highest supported percentile (or None), and n."""
    p = supported_percentile(len(values))
    return {
        "n": len(values),
        "median": median(values),
        "pct": p,
        "pct_value": percentile(values, p) if p is not None else None,
    }


def normalize(seconds: float, kernel_samples: list[float], reference_s: float,
              elasticity: float) -> float:
    """``seconds`` of program time at the reference machine speed.

    ``kernel_samples`` are the speed probe's kernel times that tell the
    machine's speed over the interval (the caller removes any probe time
    from ``seconds`` first).  ``seconds`` is scaled by
    ``(reference_s / mean(kernel_samples)) ** elasticity``.  The mean, not
    the median: the interval's wall time is the sum of its slices, each
    slowed by the speed of its moment, so the slow moments must weigh in.
    ``elasticity`` is how strongly the program's speed follows the kernel's
    (1: in proportion).
    """
    if not kernel_samples:
        raise ValueError("no speed samples for the interval")
    mean = sum(kernel_samples) / len(kernel_samples)
    return seconds * (reference_s / mean) ** elasticity


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children may overlap each other (spans recorded on other threads, or a
    batch and the singles it fans out to); the union is subtracted once.
    """
    return (end - start) - covered(children, start, end)


def count_operations(rounds: list[dict], requests: list[bool], calls: list[bool]) -> tuple[int, int]:
    """``(attempted, failed)`` over client submissions, requests and calls.

    ``rounds`` rows carry ``participants``, ``failures`` and ``aborted``;
    every participant of an aborted round counts as failed.  ``requests``
    and ``calls`` hold one flag each: confirmed / delivered by the end of
    the drain rounds.
    """
    attempted = failed = 0
    for row in rounds:
        attempted += row["participants"]
        failed += row["participants"] if row["aborted"] else row["failures"]
    attempted += len(requests) + len(calls)
    failed += sum(1 for ok in requests if not ok) + sum(1 for ok in calls if not ok)
    return attempted, failed


def failure_share(attempted: int, failed: int) -> float:
    if attempted <= 0:
        raise ValueError("no operations were attempted")
    return failed / attempted


def parse_vmhwm_kib(status_text: str) -> int:
    """The ``VmHWM`` (peak resident set) line of a ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line")


def read_vmhwm_kib(pid: int | str = "self") -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        return parse_vmhwm_kib(handle.read())


def peak_rss_mib(parent_kib: int, worker_kib: list[int]) -> float:
    """Peak RSS of the parent plus every worker, in MiB.

    Each process's own peak is summed: an upper bound on the simultaneous
    total, and the figure a worker-count change moves.
    """
    return (parent_kib + sum(worker_kib)) / 1024


def process_peak_rss_mib(worker_pids: list[int]) -> float:
    """:func:`peak_rss_mib` read live from ``/proc`` (workers still running)."""
    return peak_rss_mib(read_vmhwm_kib(os.getpid()), [read_vmhwm_kib(pid) for pid in worker_pids])
