"""Machine-speed probe: a fixed kernel timed beside the program.

The CPU this benchmark runs on is shared, and its speed drifts by a fifth
or more over a few seconds (the same loop measures 0.13 s and 0.19 s a few
seconds apart, with process time equal to wall time).  The probe takes
speed readings in one of two ways:

- periodic (:meth:`SpeedProbe.start`): a SIGALRM handler times
  :func:`kernel` every 20 ms on the program's own thread, between its
  bytecodes, so every round carries readings taken while it ran.  This
  suits a single-threaded program (the sim runtime), whose thread the
  kernel only interrupts.
- idle bursts (:meth:`SpeedProbe.burst`): the caller times the kernel a
  few times in a row while the program is idle, just before and just after
  each round.  A multi-threaded program (the mp runtime) needs this: a
  kernel run during a round would wait for the GIL behind the program's
  own threads and read the program's load as machine slowness.

:func:`stats.normalize` scales a round's wall time by its readings; the raw
wall times are printed beside the normalized ones.
"""

from __future__ import annotations

import hashlib
import signal
import time

INTERVAL_S = 0.02
#: Kernel runs per idle burst (about 4 ms at the reference speed).
BURST = 10


_P25519 = 2**255 - 19


def kernel() -> int:
    """Fixed work of the kinds the program does: dict and bytes operations,
    32-bit add-rotate-xor (ChaCha20-style), 255-bit modular multiplication
    (X25519/Ed25519-style) and short OpenSSL hashes."""
    table: dict[int, int] = {}
    acc = 0
    x = 9
    blob = b"perfbench-speed-probe"
    for i in range(200):
        key = (i * 40503) & 255
        table[key] = table.get(key, 0) + i
        acc = (acc + table[key] * 31 + blob[i % len(blob)]) & 0xFFFFFFFF
        acc = ((acc << 7) | (acc >> 25)) & 0xFFFFFFFF
        x = (x * x + acc) % _P25519
        if i % 8 == 0:
            acc ^= hashlib.sha256(blob + key.to_bytes(2, "little")).digest()[0]
    return acc ^ (x & 0xFFFF)


class SpeedProbe:
    """Collects ``(time, kernel seconds)`` samples while started."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        #: True while the SIGALRM readings run.
        self.periodic = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        kernel()
        self.samples.append((started, time.perf_counter() - started))

    def burst(self) -> None:
        """Take :data:`BURST` readings now, on the calling thread."""
        for _ in range(BURST):
            self._sample(None, None)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.periodic = True

    def stop(self) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
            self.periodic = False

    def between(self, start: float, end: float) -> list[float]:
        """Kernel durations of the samples taken in ``[start, end]``."""
        return [d for t, d in self.samples if start <= t <= end]
