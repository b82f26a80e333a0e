"""Pacing: a fixed reference kernel that tracks how fast the host runs.

The benchmark shares a few cores of a busy host.  How fast a core runs
for this process drifts by tens of percent over seconds, so two runs
of the same code can differ by more than any bound worth setting.
Every timed op is followed by one sample of this kernel, outside the
op's timing.  The kernel's work never changes and never calls the
program.  It mixes the two kinds of work the program spends its time
in: modular exponentiation and SHA-256 at the program's RSA and digest
sizes (which the drift slows like signing), and interpreted dict
lookups and method calls over a table of a few megabytes (which it
slows like VO building and verification).  An op's paced time is its
wall time times ``NOMINAL_MS`` over the median of the kernel samples
around it.  That cancels most of the drift; the program still slows
somewhat more than the kernel when the host is busy.

The kernel creates no container objects, so it never triggers a
garbage collection whose cost would depend on the program's heap.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

#: The kernel's time at nominal speed; a paced time is "ms at the speed
#: where one kernel sample takes ``NOMINAL_MS``".
NOMINAL_MS = 0.35
#: Kernel samples, centred on an op, whose median gives its slowdown.
SPAN = 25
#: Ops per throughput window: whole blocks of every workload's op deal.
WINDOW = 50
_SEED = 20040301
_HASHES = 12  # SHA-256 calls per sample
_ROWS = 8192  # rows of the interpreted part's table (a power of two)
_LOOKUPS = 150  # row lookups per sample


class Reference:
    """The reference kernel and its samples."""

    def __init__(self) -> None:
        rng = random.Random(_SEED)
        self._prime = rng.getrandbits(256) | (1 << 255) | 1
        self._exp = rng.getrandbits(256)
        self._modulus = rng.getrandbits(512) | (1 << 511) | 1
        self._blocks = [rng.randbytes(20) for _ in range(_HASHES)]
        self._keys = [rng.randbytes(12).hex() for _ in range(_ROWS)]
        self._rows = {k: (i, k[:12], k[12:]) for i, k in enumerate(self._keys)}
        self._order = [rng.randrange(_ROWS) for _ in range(_ROWS)]
        self._pos = 0

    def _fold(self, acc: int, row: tuple) -> int:
        return (acc * 31 + row[0] + (row[1] > row[2])) & 0xFFFFFFFF

    def _kernel(self) -> int:
        x = pow(0x5DEECE66D, self._exp, self._prime)
        x = pow(x, 65537, self._modulus)
        digest = x.to_bytes(64, "big")
        for block in self._blocks:
            digest = hashlib.sha256(digest + block).digest()
        keys, rows, order = self._keys, self._rows, self._order
        acc = int.from_bytes(digest, "big") & 0xFFFF
        pos = self._pos
        for i in range(pos, pos + _LOOKUPS):
            acc = self._fold(acc, rows[keys[order[i & (_ROWS - 1)]]])
        self._pos = (pos + _LOOKUPS) & (_ROWS - 1)
        return acc

    def sample(self) -> float:
        """Run the kernel once; its wall time in ms."""
        start = time.perf_counter_ns()
        self._kernel()
        return (time.perf_counter_ns() - start) / 1e6


def paced(log: list) -> list:
    """Pace one stretch's ``(op type, latency ms, kernel ms)`` log.

    Each op's slowdown is the median of the ``SPAN`` kernel samples
    centred on it (fewer at the ends of a short stretch) over
    ``NOMINAL_MS``.

    Returns:
        ``(op type, paced ms)`` per op, in order.
    """
    kernel = [ms for _, _, ms in log]
    last = max(0, len(log) - SPAN)
    out = []
    for i, (name, ms, _) in enumerate(log):
        lo = min(max(0, i - SPAN // 2), last)
        out.append((name, ms * NOMINAL_MS / statistics.median(kernel[lo:lo + SPAN])))
    return out


def rates(ops: list) -> list:
    """Ops per second of paced op time over each whole ``WINDOW`` of a
    stretch's paced ops (over all of them when there is no whole one)."""
    if len(ops) < WINDOW:
        return [len(ops) * 1e3 / sum(ms for _, ms in ops)] if ops else []
    return [
        WINDOW * 1e3 / sum(ms for _, ms in ops[start:start + WINDOW])
        for start in range(0, len(ops) - WINDOW + 1, WINDOW)
    ]
