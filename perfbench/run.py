"""Steady-state round benchmark for the Alpenhorn reproduction.

    python3 perfbench/run.py --workload steady-1k --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the last stdout line is a JSON object with every end-to-end
metric; with ``--trace 1`` it carries the per-layer metrics of a traced run
instead, and the spans are written to ``perfbench/out/``.  Any failed output
check prints the reasons to stderr and exits 1 without a result; a missing
program exits 2.  See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from bench import PROTOCOL_TAGS, WORKLOADS, Session, stop_processes  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from stats import (  # noqa: E402
    count_operations,
    failure_share,
    median,
    normalize,
    process_peak_rss_mib,
    summarize,
)

#: Deployments set up per untraced run; setup_s is their median.
SETUP_REPEATS = 3
#: The probe kernel's duration at the reference speed: reported times are
#: wall seconds scaled to a machine on which the kernel takes this long.
REFERENCE_KERNEL_S = 400e-6
#: How strongly round times follow the kernel's speed on this machine, by
#: how the readings are taken: the value that minimised the seed-to-seed
#: spread of the round metrics.  Periodic readings were fitted on five
#: seeds each of steady-1k and pure-crypto-64 (0.5 to 1.0 tried), idle
#: bursts on fifteen seeds of mp-runtime-200 (0 to 1.2 tried; the worker's
#: core is not probed).
ELASTICITY_PERIODIC = 0.8
ELASTICITY_IDLE = 0.7
#: With idle bursts (mp), the readings up to this long before an interval
#: starts and after it ends count for it.
IDLE_MARGIN_S = 0.05
PROBE = SpeedProbe()


def at_reference(wall: float, started: float) -> float:
    """``wall`` seconds from ``started``, less probe time, at the reference speed."""
    end = started + wall
    if PROBE.periodic:
        margin, elasticity = 0.0, ELASTICITY_PERIODIC
    else:
        margin, elasticity = IDLE_MARGIN_S, ELASTICITY_IDLE
    return normalize(wall - sum(PROBE.between(started, end)),
                     PROBE.between(started - margin, end + margin),
                     REFERENCE_KERNEL_S, elasticity)


def setup_seconds(wall: float, started: float) -> float:
    """A set-up's seconds: at the reference speed on sim.  On mp most of the
    set-up is connect waves waiting out SYN retransmissions, which do not
    follow CPU speed, so only the probe time is removed."""
    if PROBE.periodic:
        return at_reference(wall, started)
    return wall - sum(PROBE.between(started, started + wall))


def new_session(workload, seed: int) -> Session:
    """Periodic readings on sim; idle bursts around each round on mp."""
    return Session(workload, seed, idle=None if workload.runtime == "sim" else PROBE.burst)


def round_s(r) -> float:
    return at_reference(r.wall_s, r.started)


def latency_s(r, runtime: str) -> float:
    """Simulated latency as is; real (mp) latency scaled like the round."""
    return r.latency_s if runtime == "sim" else r.latency_s * round_s(r) / r.wall_s


def load_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src}/repro; run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def check_session(session: Session) -> list[str]:
    problems = []
    aborted = [r for r in session.rounds if r.aborted]
    if aborted:
        problems.append(f"{len(aborted)} round(s) aborted")
    requests, calls = session.outcomes()
    if not all(requests):
        problems.append(f"{requests.count(False)}/{len(requests)} friend requests unconfirmed "
                        "after the drain rounds")
    if not all(calls):
        problems.append(f"{calls.count(False)}/{len(calls)} calls undelivered after the drain rounds")
    if not requests or not calls:
        problems.append(f"the run carried no real traffic ({len(requests)} requests, "
                        f"{len(calls)} calls)")
    return problems


def warmup_digests(session: Session) -> list[tuple]:
    return [r.digest() for r in session.rounds if r.phase == "warmup"]


def code_hash() -> str:
    """sha256 over the program's and the benchmark's Python sources.

    Same-seed digests are compared only between runs of the same code: a
    change may legitimately move per-round bytes or mailbox counts.
    """
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()[:16]


def check_repeat(workload, seed: int, sessions_digests: list[list[tuple]],
                 session: Session) -> list[str]:
    """Same seed, same per-round bytes and mailbox counts (sim workloads).

    Within a run, every deployment's warm-up rounds must match.  Across
    runs of the same code, the rounds an earlier run with this seed
    recorded in ``out/`` must match the same rounds of this run; a run that
    matches and went further extends the record, one that differs leaves
    it as it is.
    """
    if workload.runtime != "sim":
        return []
    problems = []
    first = sessions_digests[0]
    for index, digests in enumerate(sessions_digests[1:], start=2):
        if digests != first:
            problems.append(f"deployment {index} warm-up rounds differ from deployment 1 "
                            "under the same seed")
    rounds = [list(r.digest()) for r in session.rounds if r.phase in ("warmup", "timed")]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"digest-{workload.name}-seed{seed}-{code_hash()}.json"
    previous = json.loads(path.read_text()) if path.exists() else []
    for index, (before, now) in enumerate(zip(previous, rounds), start=1):
        if before != now:
            problems.append(f"round {index} differs from an earlier run of the same code "
                            f"with seed {seed}: {before} vs {now}")
            break
    if not problems and len(rounds) > len(previous):
        staged = path.with_name(f"{path.name}.{os.getpid()}")
        staged.write_text(json.dumps(rounds))
        os.replace(staged, path)
    return problems


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------
def timed_rounds(session: Session, protocol: str | None = None):
    return [r for r in session.rounds
            if r.phase == "timed" and (protocol is None or r.protocol == protocol)]


def rate(rounds, raw: bool = False) -> float:
    seconds = sum(r.wall_s if raw else round_s(r) for r in rounds)
    return sum(r.participants for r in rounds) / seconds


def end_to_end(session: Session, setups: list[tuple[float, float]], rss_mib: float,
               attempted: int, failed: int) -> tuple[dict, list[str]]:
    """Every end-to-end metric, and the lines that print them (with raw walls)."""
    metrics = {}
    lines = []
    runtime = session.workload.runtime

    def put(name, value, unit, n, note=""):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<24} {value:>14.6g} {unit:<16} n={n}{note}")

    def timing(name, values, raw):
        summary = summarize(values)
        note = (f"  p{summary['pct']:g}={summary['pct_value']:.6g}"
                if summary["pct"] is not None
                else "  (no higher percentile has 10 samples beyond it)")
        put(name, summary["median"], "s", summary["n"], f"{note}  raw median {median(raw):.6g}")

    timing("setup_s", [setup_seconds(wall, started) for wall, started in setups],
           [wall for wall, _ in setups])
    rounds = timed_rounds(session)
    put("client_rounds_per_s", rate(rounds), "client-rounds/s", len(rounds),
        f"  raw {rate(rounds, raw=True):.6g}")
    for protocol, tag in PROTOCOL_TAGS.items():
        rounds = timed_rounds(session, protocol)
        timing(f"{tag}_round_s", [round_s(r) for r in rounds], [r.wall_s for r in rounds])
        timing(f"{tag}_latency_s", [latency_s(r, runtime) for r in rounds],
               [r.latency_s for r in rounds])
        per_client = [r.client_bytes / r.participants for r in rounds]
        put(f"{tag}_client_bytes", sum(per_client) / len(per_client), "B", len(per_client),
            "  (mean per participating client per round)")
    put("peak_rss_mib", rss_mib, "MiB", 1, "  (parent + workers)")
    share = failure_share(attempted, failed)
    lines.append(f"  {'op_failure_share':<24} {share:>14.6g} {'ratio':<16} "
                 f"n={attempted}  ({failed} failed)")
    put("op_success_share", 1.0 - share, "ratio", attempted)
    return metrics, lines


def round_table(session: Session) -> list[str]:
    lines = ["  phase   protocol    round  online  mailboxes  real-ops  wall_s    ref_s"
             "     latency_s  client_B/client"]
    for r in session.rounds:
        lines.append(
            f"  {r.phase:<7} {r.protocol:<10} {r.round_number:>6} {r.participants:>7} "
            f"{r.mailbox_count:>10} {r.requests + r.calls:>9}  {r.wall_s:<8.4f}  "
            f"{round_s(r):<8.4f}  {r.latency_s:<10.4f} "
            f"{r.client_bytes / max(1, r.participants):.1f}"
        )
    return lines


def operations(session: Session) -> tuple[int, int]:
    requests, calls = session.outcomes()
    rows = [{"participants": r.participants, "failures": r.failures, "aborted": r.aborted}
            for r in session.rounds]
    return count_operations(rows, requests, calls)


# ---------------------------------------------------------------------------
# The two run modes
# ---------------------------------------------------------------------------
def fail(problems: list[str], session: Session | None) -> int:
    if session is not None:
        print("\n".join(round_table(session)))
        session.close()
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    return 1


def run_untraced(workload, seed: int, seconds: float) -> int:
    setups, digests = [], []
    session = None
    for index in range(SETUP_REPEATS):
        if session is not None:
            session.close()
        session = new_session(workload, seed)
        session.build()
        session.warm_up()
        setups.append((session.setup_s, session.setup_started))
        digests.append(warmup_digests(session))
    session.timed(seconds)
    session.drain()
    rss = process_peak_rss_mib(session.worker_pids())
    problems = check_session(session) + check_repeat(workload, seed, digests, session)
    if problems:
        return fail(problems, session)
    attempted, failed = operations(session)
    metrics, lines = end_to_end(session, setups, rss, attempted, failed)
    print(f"perfbench {workload.name} seed={seed} seconds={seconds:g}: "
          f"{workload.clients} clients, {workload.runtime} runtime, {workload.engine} engine")
    print("\n".join(round_table(session)))
    print("end-to-end metrics (timed rounds; times in reference-speed seconds, mp set-up in "
          "wall seconds; raw wall beside):")
    print("\n".join(lines))
    session.close()
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_traced(workload, seed: int, seconds: float) -> int:
    import tracing

    # An untraced deployment first: its warm-up must repeat exactly under
    # tracing (the same-seed check, and proof the wrappers change nothing).
    reference = new_session(workload, seed)
    reference.build()
    reference.warm_up()
    digests = [warmup_digests(reference)]
    reference.close()

    from repro.crypto.engine import get_backend

    engine = get_backend(workload.engine)
    setup_tracer = tracing.Tracer()
    inst = tracing.Instrumentation(setup_tracer)
    session = new_session(workload, seed)
    try:
        tracing.install(inst, engine)
        session.build(on_built=lambda net: tracing.install_transport(
            inst, net, workload.runtime != "sim"))
        with setup_tracer.span("setup.warmup", "setup"):
            session.warm_up()
    finally:
        inst.remove()
    digests.append(warmup_digests(session))

    # Timed pairs of rounds alternate untraced and traced, so the overhead
    # compares rounds of the same stretch of the run.
    timed_tracer = tracing.Tracer()
    inst = tracing.Instrumentation(timed_tracer)
    untraced, traced = [], []
    counters = {"frames": 0, "events": 0, "heap_peak": 0}
    deadline = time.perf_counter() + seconds
    for index in itertools.count():
        on = index % 2 == 1
        if on:
            tracing.install(inst, engine)
            tracing.install_transport(inst, session.net, workload.runtime != "sim")
            start = tracing.program_counters(session.net)
        try:
            rounds = [session.round("timed", protocol) for protocol in ("add-friend", "dialing")]
        finally:
            inst.remove()
        if on:
            counters = tracing.add_counters(counters, start,
                                            tracing.program_counters(session.net))
        (traced if on else untraced).extend(rounds)
        if on and time.perf_counter() >= deadline:
            break
    untraced_rate, traced_rate = rate(untraced), rate(traced)

    session.drain()
    problems = check_session(session) + check_repeat(workload, seed, digests, session)
    problems += [f"wrapper never fired: {name}"
                 for name in tracing.unfired(timed_tracer, setup_tracer, workload.runtime)]
    if problems:
        return fail(problems, session)
    attempted, failed = operations(session)

    layer = tracing.layer_metrics(timed_tracer, setup_tracer, counters, workload.runtime)
    layer["trace.client_rounds_per_s"] = {"value": traced_rate, "unit": "client-rounds/s"}
    layer["untraced.client_rounds_per_s"] = {"value": untraced_rate, "unit": "client-rounds/s"}
    layer["trace.overhead_ratio"] = {"value": untraced_rate / traced_rate - 1, "unit": "ratio"}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{workload.name}-seed{seed}"
    timed_tracer.write(f"{stem}.timed.jsonl.gz")
    setup_tracer.write(f"{stem}.setup.jsonl.gz")

    print(f"perfbench {workload.name} seed={seed} seconds={seconds:g} traced: "
          f"{len(untraced)} untraced and {len(traced)} traced timed rounds, alternating "
          f"by pair; {untraced_rate:.1f} vs {traced_rate:.1f} client-rounds/s, overhead "
          f"{layer['trace.overhead_ratio']['value']:+.1%}")
    print("\n".join(round_table(session)))
    print(f"per-layer metrics over the traced rounds ({len(timed_tracer.spans)} spans; "
          "setup.* over the traced deployment's set-up):")
    for line in tracing.report_lines(layer, workload.runtime):
        print(line)
    print(f"spans written to {stem}.{{timed,setup}}.jsonl.gz")
    session.close()
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": tracing.reported(layer)}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    if workload.runtime == "sim":
        PROBE.start()
    try:
        if args.trace:
            code = run_traced(workload, args.seed, args.seconds)
        else:
            code = run_untraced(workload, args.seed, args.seconds)
    finally:
        PROBE.stop()
        stop_processes()
    print(f"perfbench: finished in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
