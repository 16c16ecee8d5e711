"""Seeded steady-state traffic: who sends a friend request, who calls whom.

The generator only decides; ``bench.Session`` queues the decisions through the
public session API.  Every choice comes from one ``random.Random`` seeded by
the benchmark's ``--seed`` (string seeds hash through SHA-512, so the stream
does not depend on ``PYTHONHASHSEED``), and every input is sorted before a
choice is drawn from it, so the same seed and the same program state always
give the same schedule.
"""

from __future__ import annotations

import random

#: Share of clients that act in a round (§8.1 of the paper: 5% real traffic).
REAL_SHARE = 0.05
#: Draws per sender before it gives up finding an unlinked recipient.
_RECIPIENT_ATTEMPTS = 64


def pair(a: str, b: str) -> frozenset:
    return frozenset((a, b))


class TrafficGenerator:
    """Per-round friend-request and call schedules for one population."""

    def __init__(self, seed: int, population: list[str]) -> None:
        if not population:
            raise ValueError("the population is empty")
        self.population = sorted(population)
        self.per_round = max(1, round(REAL_SHARE * len(self.population)))
        self._rng = random.Random(f"perfbench-traffic/{seed}")

    def friend_requests(self, idle: list[str], linked: set) -> list[tuple[str, str]]:
        """``(sender, recipient)`` pairs for one add-friend round.

        Senders are drawn from ``idle`` (clients with nothing queued).  A
        recipient is never the sender, nor anyone the sender is already
        linked to (friends, or a request in flight either way); pairs chosen
        this round count as linked for the rest of the round.
        """
        rng = self._rng
        candidates = sorted(idle)
        senders = rng.sample(candidates, min(self.per_round, len(candidates)))
        taken = set(linked)
        requests = []
        for sender in senders:
            for _ in range(_RECIPIENT_ATTEMPTS):
                recipient = rng.choice(self.population)
                if recipient != sender and pair(sender, recipient) not in taken:
                    taken.add(pair(sender, recipient))
                    requests.append((sender, recipient))
                    break
        return requests

    def calls(self, dialable: dict[str, list[str]]) -> list[tuple[str, str]]:
        """``(caller, callee)`` pairs for one dialing round.

        ``dialable`` maps each client with an empty dialing queue to the
        friends it can dial this round.  At most one side of a pair dials
        in a round: a mutual dial with the same intent derives the same
        token on both sides, and each side would discard it as its own.
        """
        rng = self._rng
        callers = sorted(caller for caller, friends in dialable.items() if friends)
        rng.shuffle(callers)
        used: set = set()
        calls = []
        for caller in callers:
            if len(calls) == self.per_round:
                break
            friends = [f for f in sorted(dialable[caller]) if pair(caller, f) not in used]
            if not friends:
                continue
            callee = rng.choice(friends)
            used.add(pair(caller, callee))
            calls.append((caller, callee))
        return calls
