"""Speed-normalized timing for a host whose speed drifts.

On a shared machine the same deterministic run can take 1.5x longer for
tens of seconds at a time (another tenant on the sibling hardware thread,
frequency changes), which swamps any regression bound a benchmark could
set. So every timed slice is preceded by a short fixed *probe* — a mix of
the work this program does (object and dict churn with a heap, byte-table
lookups and XORs like the pure-Python AES, big-integer ``pow`` like the
threshold and RSA code, SHA-256) — and the slice's wall time is rescaled
by ``PROBE_REFERENCE_S / probe time``. A slice run while the machine is
slow is stretched back to what it would have taken at reference speed.

The probe is the benchmark's own code, so a change to ``src/`` never moves
it: a slower program shows up in full. On a machine that is uniformly
faster or slower than the reference, normalized figures move only by the
difference between the program's and the probe's speed-up.
"""

from __future__ import annotations

import hashlib
import heapq
import time
from typing import Callable

#: The probe's wall time on the reference machine (2-core x86 container,
#: CPython 3.11) at full speed.
PROBE_REFERENCE_S = 0.00115

_TABLE = list(range(256))[::-1]
_MODULUS = (1 << 383) + 187


class _Event:
    __slots__ = ("when", "tag")

    def __init__(self, when: int, tag: int) -> None:
        self.when = when
        self.tag = tag


def _probe_work() -> int:
    heap: list = []
    totals: dict = {}
    for i in range(400):
        event = _Event(i * 7 % 101, i)
        heapq.heappush(heap, (event.when, i, event))
        totals[event.tag % 31] = totals.get(event.tag % 31, 0) + event.when
    while heap:
        heapq.heappop(heap)
    state = bytearray(range(16))
    for _ in range(60):
        state = bytearray(_TABLE[b] ^ state[(i + 1) % 16] for i, b in enumerate(state))
    value = 0x1234567
    for _ in range(3):
        value = pow(value, _MODULUS - 2, _MODULUS)
    hashlib.sha256(bytes(state) * 64).digest()
    return value + len(totals)


def probe(repeats: int = 3) -> float:
    """Seconds the probe takes now (the fastest of ``repeats``)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedClock:
    """Accumulates raw and speed-normalized wall time over slices."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.norm_s = 0.0
        #: The factor applied to the most recent slice.
        self.last_scale = 1.0

    def time(self, fn: Callable, *args):
        """Run ``fn(*args)`` as one slice; returns its result."""
        scale = self.last_scale = PROBE_REFERENCE_S / probe()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self.wall_s += wall
        self.norm_s += wall * scale
        return result
