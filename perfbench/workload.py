"""Workload definitions, seeded op streams and the ground-truth oracle.

Every input a run feeds the program comes from ``--seed``: the table
(through the program's own ``generate_table``), the signing-key seed,
the query ranges and the rows written.  The program receives only the
generated values.  All randomness is drawn from ``random.Random``
instances seeded here; nothing reads a module-level RNG.
"""

from __future__ import annotations

import bisect
import random
import string
from dataclasses import dataclass

# -- the measured configuration (pinned, and printed with every run) ----

TABLE = "t"
ROWS = 2000
COLUMNS = 10
ATTR_SIZE = 20
KEY_STEP = 2  # base keys are even; the run inserts odd keys between them
FANOUT = 32  # VB-tree fan-out override: 2000 rows give a height-3 tree
RSA_BITS = 512
FANOUT_WINDOW = 8
FANOUT_WORKERS = 1
ROUTER_POLICY = "round_robin"
IO_MODE = "reactor"
THETA = 0.99
BUCKET = 32  # base rows per Zipf bucket (two 16-row leaves)
# Read offsets: every 4th row of a bucket, each once per 8 reads.  Fixed
# offsets make a quarter of narrow reads span two leaves for every seed;
# random ones put the median read on the border of the two costs.
STRATA = 8
NARROW_KEYS = 16  # key span of a narrow read: 8 base rows
WIDE_KEYS = 256  # key span of a wide read: 128 base rows
ZIPF_CHUNK = 256  # bucket ranks are drawn this many at a time
COUNT_OPS = 200  # untimed exact-count slice, which also warms lazy state
BLOCK = 10  # op kinds are dealt in shuffled blocks of ten
WIDTH_BLOCK = 5  # read widths are dealt in shuffled blocks of five

_ALPHABET = string.ascii_lowercase + string.digits
_TOP_KEY = KEY_STEP * (ROWS - 1)


@dataclass(frozen=True)
class Workload:
    """One closed-loop traffic mix.

    Attributes:
        name: Workload name (``--workload``).
        why: What the workload isolates, one line.
        edges: Edge servers in the fleet.
        tcp: Edges are separate processes behind a reactor
            ``Deployment``; otherwise they are in-process.
        reads: Verified range reads in every block of ten ops; the
            rest are signed writes.
        wide: Wide reads in every block of five reads.
        deletes: Writes alternate between inserting a fresh key and
            deleting a key the run inserted (table size stays level);
            otherwise every write is an insert.
        ack_every: Ack-coalescing threshold pushed to the edges.
        pool: Run-owned keys inserted before counting starts, so the
            alternating deletes never run dry.
        probe_reads: Extra reads metered after the count slice on a
            workload whose mix holds few reads, so per-row byte counts
            rest on enough queries.
        probe_writes: Writes metered in the count slice and issued
            again after the timed loop, on a workload whose loop never
            writes.
    """

    name: str
    why: str
    edges: int
    tcp: bool
    reads: int
    wide: int
    deletes: bool
    ack_every: int
    pool: int
    probe_reads: int
    probe_writes: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="read_zipf",
            why=(
                "100% verified Zipf range reads on 2 in-process edges: "
                "client verify, VO build and wire codec do the work; "
                "signing and fan-out stay idle"
            ),
            edges=2,
            tcp=False,
            reads=10,
            wide=1,
            deletes=True,
            ack_every=1,
            pool=0,
            probe_reads=0,
            probe_writes=64,
        ),
        Workload(
            name="write_fanout",
            why=(
                "90% signed insert/delete, 10% narrow verified reads, 8 "
                "in-process edges: RSA signing, delta recording, pump and "
                "8x apply_delta dominate"
            ),
            edges=8,
            tcp=False,
            reads=1,
            wide=0,
            deletes=True,
            ack_every=1,
            pool=32,
            probe_reads=180,
            probe_writes=0,
        ),
        Workload(
            name="mixed_tcp",
            why=(
                "90% verified reads, 10% inserts + sync over a reactor "
                "Deployment with 2 edge processes: sockets, framing, acks "
                "and the process boundary block"
            ),
            edges=2,
            tcp=True,
            reads=9,
            wide=1,
            deletes=False,
            ack_every=8,
            pool=0,
            probe_reads=0,
            probe_writes=0,
        ),
    )
}


@dataclass(frozen=True)
class Seeds:
    """Independent sub-seeds derived from the run's ``--seed``."""

    table: int
    key: int
    ops: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        rng = random.Random(seed)
        return cls(
            table=rng.getrandbits(32),
            key=rng.getrandbits(32),
            ops=rng.getrandbits(32),
        )


class Oracle:
    """The table the run expects: a plain dict kept from its own ops.

    Args:
        rows: The generated base rows, key first.
    """

    def __init__(self, rows) -> None:
        self.rows = {row[0]: tuple(row) for row in rows}
        self.keys = sorted(self.rows)

    def insert(self, row: tuple) -> None:
        self.rows[row[0]] = row
        bisect.insort(self.keys, row[0])

    def delete(self, key: int) -> None:
        del self.rows[key]
        del self.keys[bisect.bisect_left(self.keys, key)]

    def matches(self, result, low: int, high: int) -> bool:
        """True iff ``result`` holds exactly the model's rows in
        ``[low, high]``, in key order: sound and complete."""
        lo = bisect.bisect_left(self.keys, low)
        hi = bisect.bisect_right(self.keys, high)
        keys = self.keys[lo:hi]
        if list(result.keys) != keys:
            return False
        return all(
            tuple(got) == self.rows[key]
            for got, key in zip(result.rows, keys, strict=True)
        )


class OpStream:
    """The seeded op sequence of one workload.

    Ops are ``("read", low, high)``, ``("insert", key, row)`` or
    ``("delete", key, None)``.  Writes update the oracle as they are
    drawn, so every read is checked against all writes issued before
    it.  Kinds, read widths and read offsets are dealt from shuffled
    blocks, so every stretch of the stream holds the stated mix.

    Args:
        workload: The traffic mix.
        seed: The op-stream seed.
        oracle: The model the stream's writes keep current.
    """

    def __init__(self, workload: Workload, seed: int, oracle: Oracle) -> None:
        self.workload = workload
        self.oracle = oracle
        self._rng = random.Random(seed)
        buckets = -(-ROWS // BUCKET)
        self.hot_buckets = list(range(buckets))
        self._rng.shuffle(self.hot_buckets)
        self._ranks: list[int] = []
        self._kinds: list[str] = []
        self._widths: list[bool] = []
        self._offsets: list[int] = []
        self._pool: list[int] = []
        self._insert_turn = True

    def _deal(self, hand: list, block) -> object:
        if not hand:
            hand.extend(block)
            self._rng.shuffle(hand)
        return hand.pop()

    def _bucket(self) -> int:
        if not self._ranks:
            # Imported here: ``src/`` is on the path only once run.py
            # has checked that the program is there.
            from repro.workloads.generator import zipf_ranks

            self._ranks = zipf_ranks(
                len(self.hot_buckets), ZIPF_CHUNK, theta=THETA,
                seed=self._rng.getrandbits(32),
            )
        return self.hot_buckets[self._ranks.pop()]

    def next(self) -> tuple:
        """The next op of the mix."""
        w = self.workload
        kind = self._deal(
            self._kinds, ["read"] * w.reads + ["write"] * (BLOCK - w.reads)
        )
        return self.read() if kind == "read" else self.write()

    def read(self) -> tuple:
        """A verified range read centred in a Zipf-hot bucket."""
        w = self.workload
        wide = self._deal(
            self._widths, [True] * w.wide + [False] * (WIDTH_BLOCK - w.wide)
        )
        step = BUCKET // STRATA
        offset = self._deal(self._offsets, [i * step for i in range(STRATA)])
        span = WIDE_KEYS if wide else NARROW_KEYS
        low = KEY_STEP * (self._bucket() * BUCKET + offset)
        high = low + span - 1
        if high > _TOP_KEY:
            high = _TOP_KEY
            low = high - span + 1
        return ("read", low, high)

    def write(self) -> tuple:
        """The next signed write: insert, or delete a run-owned key."""
        delete = self.workload.deletes and not self._insert_turn and self._pool
        if self.workload.deletes:
            self._insert_turn = not self._insert_turn
        return self.delete() if delete else self.insert()

    def insert(self) -> tuple:
        """Insert a fresh odd key next to a Zipf-hot position."""
        pos = min(self._bucket() * BUCKET + self._rng.randrange(BUCKET), ROWS - 1)
        key = KEY_STEP * pos + 1
        while key in self.oracle.rows:
            key = key + KEY_STEP if key + KEY_STEP <= _TOP_KEY else 1
        row = (
            key,
            *(
                "".join(self._rng.choices(_ALPHABET, k=ATTR_SIZE))
                for _ in range(COLUMNS - 1)
            ),
        )
        self.oracle.insert(row)
        self._pool.append(key)
        return ("insert", key, row)

    def delete(self) -> tuple:
        """Delete a random key this run inserted."""
        i = self._rng.randrange(len(self._pool))
        self._pool[i], self._pool[-1] = self._pool[-1], self._pool[i]
        key = self._pool.pop()
        self.oracle.delete(key)
        return ("delete", key, None)

    def hot_key(self) -> int:
        """A base key in the middle of the hottest bucket — the target
        of the benchmark's can-fail checks."""
        return KEY_STEP * min(self.hot_buckets[0] * BUCKET + BUCKET // 2, ROWS - 1)
