"""Tests for the benchmark's own arithmetic and its seeded traffic generator.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import (  # noqa: E402
    count_operations,
    covered,
    failure_share,
    median,
    normalize,
    parse_vmhwm_kib,
    peak_rss_mib,
    percentile,
    self_time,
    summarize,
    supported_percentile,
)
from traffic import TrafficGenerator, pair  # noqa: E402


# -- median and percentiles ---------------------------------------------------
def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile(values, 99.9) == 100
    assert percentile([5.0], 90) == 5.0


def test_highest_supported_percentile_needs_ten_samples_beyond():
    assert supported_percentile(5) is None
    assert supported_percentile(39) is None
    assert supported_percentile(40) == 75.0  # 10 samples above p75
    assert supported_percentile(99) == 75.0
    assert supported_percentile(100) == 90.0
    assert supported_percentile(200) == 95.0
    assert supported_percentile(1000) == 99.0
    assert supported_percentile(10000) == 99.9


def test_summary_reports_n_and_only_supported_percentiles():
    small = summarize([1.0, 2.0, 3.0])
    assert small == {"n": 3, "median": 2.0, "pct": None, "pct_value": None}
    big = summarize([float(i) for i in range(1, 101)])
    assert big["n"] == 100 and big["pct"] == 90.0 and big["pct_value"] == 90.0
    assert big["median"] == 50.5


# -- speed normalization ---------------------------------------------------------
def test_normalize_scales_by_mean_kernel_speed():
    # The kernel ran at its reference time: seconds are unchanged.
    assert normalize(0.996, [0.001] * 4, 0.001, 1.0) == pytest.approx(0.996)
    # The kernel took twice its reference time, so the machine ran at half
    # the reference speed: 0.992 s of program time is 0.496 s there.
    assert normalize(0.992, [0.002] * 4, 0.001, 1.0) == pytest.approx(0.992 / 2)
    # With an elasticity below 1 the program is assumed to slow less.
    assert normalize(0.992, [0.002] * 4, 0.001, 0.5) == pytest.approx(0.992 / 2 ** 0.5)


def test_normalize_uses_the_mean_so_slow_moments_count():
    # Half the interval ran at reference speed, half at a third of it.
    samples = [0.001] * 5 + [0.003] * 5
    assert normalize(1.98, samples, 0.001, 1.0) == pytest.approx(1.98 / 2)
    with pytest.raises(ValueError):
        normalize(1.0, [], 0.001, 1.0)


# -- self time ------------------------------------------------------------------
def test_self_time_without_children_is_the_duration():
    assert self_time(1.0, 3.0, []) == 2.0


def test_self_time_subtracts_overlapping_children_once():
    # Children [1,4] and [3,6] overlap on [3,4]: they cover [1,6] = 5 s of
    # the span's 10 s.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)
    # A child nested inside another adds nothing.
    assert self_time(0.0, 10.0, [(1.0, 6.0), (2.0, 3.0)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_span():
    # A child on another thread may start before or end after the span.
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (10.0, 11.0)]) == pytest.approx(2.0)
    assert covered([(0.0, 1.0), (1.0, 2.0)], 0.0, 2.0) == pytest.approx(2.0)


# -- operation accounting --------------------------------------------------------
def test_count_operations_clean_run():
    rounds = [{"participants": 10, "failures": 0, "aborted": False}] * 3
    attempted, failed = count_operations(rounds, [True, True], [True])
    assert (attempted, failed) == (33, 0)
    assert failure_share(attempted, failed) == 0.0


def test_count_operations_counts_every_failure_kind():
    rounds = [
        {"participants": 10, "failures": 2, "aborted": False},  # 2 failed submissions
        {"participants": 10, "failures": 3, "aborted": True},   # all 10 count as failed
    ]
    requests = [True, False, False]  # two unconfirmed after the drain
    calls = [False]                  # one undelivered
    attempted, failed = count_operations(rounds, requests, calls)
    assert attempted == 10 + 10 + 3 + 1
    assert failed == 2 + 10 + 2 + 1
    assert failure_share(attempted, failed) == pytest.approx(15 / 24)
    with pytest.raises(ValueError):
        failure_share(0, 0)


# -- RSS -------------------------------------------------------------------------
def test_peak_rss_sums_parent_and_workers():
    assert peak_rss_mib(1024, []) == 1.0
    assert peak_rss_mib(2048, [1024, 512]) == 3.5


def test_vmhwm_parsing():
    status = "Name:\tpython3\nVmPeak:\t  300000 kB\nVmHWM:\t   81920 kB\nVmRSS:\t 70000 kB\n"
    assert parse_vmhwm_kib(status) == 81920
    with pytest.raises(ValueError):
        parse_vmhwm_kib("Name:\tpython3\n")


# -- the seeded generator -----------------------------------------------------------
POPULATION = [f"user{i}@bench.example.org" for i in range(200)]


def schedule(seed: int, rounds: int = 12) -> list:
    """Drive the generator against a toy protocol: a request confirms two
    add-friend rounds after it is queued and is dialable from then on."""
    gen = TrafficGenerator(seed, POPULATION)
    linked: set = set()
    friends: dict[str, set] = {e: set() for e in POPULATION}
    in_flight: list = []
    out = []
    for index in range(rounds):
        landed = [(s, r) for s, r, at in in_flight if at + 2 <= index]
        in_flight = [(s, r, at) for s, r, at in in_flight if at + 2 > index]
        for s, r in landed:
            friends[s].add(r)
            friends[r].add(s)
        busy = {s for s, _, _ in in_flight}
        requests = gen.friend_requests([e for e in POPULATION if e not in busy], linked)
        for s, r in requests:
            linked.add(pair(s, r))
            in_flight.append((s, r, index))
        calls = gen.calls({e: sorted(f) for e, f in friends.items() if f})
        out.append((requests, calls))
    return out


def test_same_seed_gives_identical_schedules():
    assert schedule(7) == schedule(7)


def test_different_seed_changes_schedules():
    first, second = schedule(7), schedule(8)
    assert [r for r, _ in first] != [r for r, _ in second]
    assert [c for _, c in first] != [c for _, c in second]


def test_schedules_respect_the_traffic_rules():
    per_round = round(0.05 * len(POPULATION))
    linked: set = set()
    total_calls = 0
    for requests, calls in schedule(3):
        assert len(requests) == per_round
        for sender, recipient in requests:
            assert sender != recipient
            assert pair(sender, recipient) not in linked
            linked.add(pair(sender, recipient))
        assert len(calls) <= per_round
        pairs = [pair(caller, callee) for caller, callee in calls]
        assert len(set(pairs)) == len(pairs)  # one side of a pair dials
        assert all(p in linked for p in pairs)  # only friends are dialed
        total_calls += len(calls)
    assert total_calls > 0


def test_population_input_order_does_not_matter():
    a = TrafficGenerator(5, POPULATION)
    b = TrafficGenerator(5, list(reversed(POPULATION)))
    assert a.friend_requests(POPULATION, set()) == b.friend_requests(
        list(reversed(POPULATION)), set())


# -- BENCHMARK.json and the metrics the command prints ------------------------------
def test_benchmark_json_names_what_the_benchmark_reports():
    import json

    import tracing
    from bench import WORKLOADS

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside perfbench/")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in end_to_end and len(end_to_end) == 10


# -- same-seed digests across runs ----------------------------------------------
def _digest_session(bytes_sent: int):
    from types import SimpleNamespace

    from bench import WORKLOADS, RoundRecord

    record = RoundRecord(phase="timed", protocol="dialing", round_number=3, started=0.0,
                         wall_s=0.1, latency_s=0.2, participants=64, submissions=64,
                         failures=0, aborted=False, mailbox_count=1, bytes_sent=bytes_sent,
                         client_bytes=bytes_sent // 2, requests=0, calls=2)
    return SimpleNamespace(workload=WORKLOADS["pure-crypto-64"], rounds=[record])


def test_digests_compare_only_runs_of_the_same_code(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = _digest_session(0).workload
    monkeypatch.setattr(run, "code_hash", lambda: "parent")
    assert run.check_repeat(workload, 7, [[]], _digest_session(1000)) == []
    # The same code with the same seed must repeat its bytes.
    problems = run.check_repeat(workload, 7, [[]], _digest_session(900))
    assert len(problems) == 1 and "differs" in problems[0]
    # A mismatching run leaves the record as it was.
    assert run.check_repeat(workload, 7, [[]], _digest_session(1000)) == []
    # Changed code may change the bytes: it starts a record of its own.
    monkeypatch.setattr(run, "code_hash", lambda: "child")
    assert run.check_repeat(workload, 7, [[]], _digest_session(900)) == []
    assert len(list(tmp_path.glob("digest-pure-crypto-64-seed7-*.json"))) == 2


# -- no process outlives a run --------------------------------------------------
def test_stop_processes_reaps_children_and_the_resource_tracker():
    import multiprocessing
    import time
    from multiprocessing import resource_tracker

    from bench import stop_processes

    child = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(0.2,))
    child.start()
    tracker_pid = resource_tracker._resource_tracker._pid
    assert tracker_pid is not None
    stop_processes()
    assert multiprocessing.active_children() == []
    assert child.exitcode == 0
    assert resource_tracker._resource_tracker._fd is None
    with pytest.raises(ChildProcessError):
        os.waitpid(tracker_pid, os.WNOHANG)
