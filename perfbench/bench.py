"""Workloads and the steady-state round driver.

One :class:`Session` is one deployment's life: build it through the
scenario harness (the same ``Scenario.build`` the ``repro.sim`` CLI uses),
create and register the clients, run one warm-up round per protocol, then
interleave timed add-friend and dialing rounds, then drain.  The traffic
each round carries comes from :class:`traffic.TrafficGenerator` and enters
the program only through the public session API (``add_friend``/``call``).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from traffic import TrafficGenerator, pair

#: Most drain passes (one round of each protocol that still has work in
#: flight) before undelivered work counts as failed.
MAX_DRAIN_ROUNDS = 6


PROTOCOL_TAGS = {"add-friend": "addfriend", "dialing": "dialing"}

#: Sessions built and not yet closed, so every exit path can close them.
_OPEN: set = set()


@dataclass(frozen=True)
class Workload:
    name: str
    clients: int
    runtime: str
    engine: str
    mp_workers: int


WORKLOADS = {
    w.name: w
    for w in (
        # The Python-level layers (codec, simulator, client scan, the x25519
        # bypass) under homogeneous rounds.
        Workload("steady-1k", 1000, "sim", "accelerated", 0),
        # ~90% pure-Python crypto: the crypto-kernel workload, and the bypass
        # for codec and simulator changes.
        Workload("pure-crypto-64", 64, "sim", "pure", 0),
        # The only workload on repro.runtime: localhost TCP, the wire codec and
        # one mix worker process (two processes on two cores).
        Workload("mp-runtime-200", 200, "mp", "accelerated", 1),
    )
}


def client_email(index: int) -> str:
    return f"user{index}@bench.example.org"


@dataclass
class RoundRecord:
    phase: str  # "warmup" | "timed" | "drain"
    protocol: str
    round_number: int
    started: float
    wall_s: float
    latency_s: float
    participants: int
    submissions: int
    failures: int
    aborted: bool
    mailbox_count: int
    bytes_sent: int
    client_bytes: int
    requests: int
    calls: int

    def digest(self) -> tuple:
        """What must repeat exactly for a seed: bytes and mailbox counts."""
        return (self.protocol, self.round_number, self.mailbox_count, self.bytes_sent,
                self.client_bytes, self.submissions, self.requests, self.calls)


class Session:
    """One deployment of a workload, driven round by round."""

    def __init__(self, workload: Workload, seed: int, idle=None) -> None:
        self.workload = workload
        self.seed = seed
        #: Called with no arguments just before and just after each round,
        #: while the program is idle (the speed probe's bursts).
        self.idle = idle or (lambda: None)
        self.emails = [client_email(i) for i in range(workload.clients)]
        self.traffic = TrafficGenerator(seed, self.emails)
        self.rounds: list[RoundRecord] = []
        #: (sender, recipient, handle) per queued friend request.
        self.requests: list = []
        #: (caller, callee, handle) per placed call.
        self.calls: list = []
        self.linked: set = set()
        self.deployment = None
        self.net = None
        self.scenario = None
        #: perf_counter at the start of the build; setup_s runs from there
        #: to the end of the warm-up rounds.
        self.setup_started = 0.0
        self.setup_s = 0.0

    # -- setup ---------------------------------------------------------------
    def spec(self):
        from repro.sim.scenario import ScenarioSpec

        w = self.workload
        return ScenarioSpec(
            name=w.name,
            num_clients=w.clients,
            crypto_backend=w.engine,
            runtime=w.runtime,
            mp_workers=w.mp_workers,
            fidelity="slotted",
            seed=f"perfbench/{self.seed}",
        )

    def build(self, on_built=None) -> None:
        """Deployment build (workers included), clients and PKG registration."""
        from repro.sim.scenario import Scenario

        self.setup_started = time.perf_counter()
        _OPEN.add(self)
        self.scenario = Scenario(self.spec())
        self.deployment, self.net = self.scenario.build()
        if on_built is not None:
            on_built(self.net)
        for email in self.emails:
            self.deployment.create_client(email)
            self.deployment.session(email)
        self.scenario.privacy.on_start(self.deployment, self.net, self.scenario.spec)

    def warm_up(self) -> None:
        self.round("warmup", "add-friend")
        self.round("warmup", "dialing")
        self.setup_s = time.perf_counter() - self.setup_started

    # -- traffic -------------------------------------------------------------
    def _queue_requests(self) -> int:
        dep = self.deployment
        idle = [e for e in self.emails if not dep.clients[e].addfriend.queue]
        chosen = self.traffic.friend_requests(idle, self.linked)
        for sender, recipient in chosen:
            self.linked.add(pair(sender, recipient))
            self.requests.append((sender, recipient, dep.session(sender).add_friend(recipient)))
        return len(chosen)

    def _dialable(self) -> dict[str, list[str]]:
        dep = self.deployment
        next_round = dep.dialing_round + 1
        dialable = {}
        for email in self.emails:
            client = dep.clients[email]
            if client.dialing.queue:
                continue
            wheel = client.keywheel
            friends = []
            for friend in wheel.friends():
                other = dep.clients[friend].keywheel
                if (wheel.entry(friend).round_number <= next_round
                        and other.has_friend(email)
                        and other.entry(email).round_number <= next_round):
                    friends.append(friend)
            if friends:
                dialable[email] = friends
        return dialable

    def _queue_calls(self) -> int:
        dep = self.deployment
        chosen = self.traffic.calls(self._dialable())
        for caller, callee in chosen:
            self.calls.append((caller, callee, dep.session(caller).call(callee)))
        return len(chosen)

    # -- rounds --------------------------------------------------------------
    def _client_bytes(self) -> int:
        by_endpoint = self.net.stats.bytes_by_endpoint
        return sum(by_endpoint.get(email, 0) for email in self.emails)

    def round(self, phase: str, protocol: str, traffic: bool = True) -> RoundRecord:
        from repro.sim.scenario import RoundStats

        dep = self.deployment
        queued_requests = queued_calls = 0
        if traffic:
            # Choosing and queueing the round's traffic is not timed.
            if protocol == "add-friend":
                queued_requests = self._queue_requests()
            else:
                queued_calls = self._queue_calls()
        client_before = self._client_bytes()
        self.idle()
        started = time.perf_counter()
        if protocol == "add-friend":
            summary = dep.run_addfriend_round()
        else:
            summary = dep.run_dialing_round()
        wall = time.perf_counter() - started
        self.idle()
        self.scenario.privacy.on_round(RoundStats.from_summary(summary), dep)
        record = RoundRecord(
            phase=phase,
            protocol=protocol,
            round_number=summary.round_number,
            started=started,
            wall_s=wall,
            latency_s=summary.latency_s,
            participants=summary.participants,
            submissions=summary.submissions,
            failures=summary.failures,
            aborted=summary.aborted,
            mailbox_count=summary.mailbox_count,
            bytes_sent=summary.bytes_sent,
            client_bytes=self._client_bytes() - client_before,
            requests=queued_requests,
            calls=queued_calls,
        )
        self.rounds.append(record)
        return record

    def timed(self, seconds: float) -> float:
        """Interleave add-friend and dialing rounds for ``seconds``; returns
        the phase's wall seconds (rounds only)."""
        deadline = time.perf_counter() + seconds
        wall = 0.0
        while True:
            for protocol in ("add-friend", "dialing"):
                wall += self.round("timed", protocol).wall_s
            if time.perf_counter() >= deadline:
                return wall

    # -- drain and checks ----------------------------------------------------
    def _request_done(self, sender: str, recipient: str, handle) -> bool:
        return handle.confirmed and recipient in self.deployment.clients[sender].friends()

    def _call_done(self, caller: str, callee: str, handle) -> bool:
        from repro.api.handles import RequestState

        if handle.state is not RequestState.DELIVERED or handle.placed is None:
            return False
        return any(
            call.caller == caller and call.round_number == handle.placed.round_number
            for call in self.deployment.clients[callee].received_calls()
        )

    def pending(self) -> tuple[int, int]:
        requests = sum(1 for r in self.requests if not self._request_done(*r))
        calls = sum(1 for c in self.calls if not self._call_done(*c))
        return requests, calls

    def drain(self) -> None:
        """Untimed rounds without new traffic until everything has landed."""
        for _ in range(MAX_DRAIN_ROUNDS):
            requests, calls = self.pending()
            if not requests and not calls:
                return
            if requests:
                self.round("drain", "add-friend", traffic=False)
            if calls:
                self.round("drain", "dialing", traffic=False)

    def outcomes(self) -> tuple[list[bool], list[bool]]:
        return ([self._request_done(*r) for r in self.requests],
                [self._call_done(*c) for c in self.calls])

    @staticmethod
    def worker_pids() -> list[int]:
        import multiprocessing

        return [p.pid for p in multiprocessing.active_children()]

    def close(self) -> None:
        _OPEN.discard(self)
        if self.deployment is not None:
            self.deployment.close()
        self.deployment = self.net = self.scenario = None
        gc.collect()


def stop_processes() -> None:
    """Close every open session, then end every child process and wait for it.

    The mp runtime spawns its worker through multiprocessing, which also
    starts a resource-tracker process that would otherwise outlive this one
    by a moment; it is stopped last, once no worker holds its pipe.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for session in list(_OPEN):
        session.close()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        tracker._stop()
