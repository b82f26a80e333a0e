"""The closed loop: one client thread that issues each op only after
the previous one returned, checking every answer against the oracle.

An op fails when the router raises (an exception, or every edge
exhausted), when a verified answer came only after a REJECT, when the
answer differs from the model's range, or when a write is not
servable on every edge once it returns.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.core.wire import result_to_bytes

from fabric import Fabric, Meters
from workload import KEY_STEP, NARROW_KEYS, OpStream

#: Failure messages kept for the report (the count is always exact).
MAX_ERRORS = 5


def op_kind(op: tuple) -> str:
    """``read`` or ``write`` — the unit per-op metrics divide by."""
    return "read" if op[0] == "read" else "write"


@dataclass
class Tally:
    """Attempted and failed ops across every slice of a run."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


@dataclass
class Slice:
    """What one stretch of ops did.

    Attributes:
        seconds: Wall time of the stretch.
        ops: Completed ops per kind (``read`` / ``write``).
        latency_ms: Per-op latency samples by op type (``read``,
            ``insert``, ``delete``), successful ops only.
        rows, payload, nodes_read, attempts: Read-side exact counts
            (metered slices only).
        meters: Per-kind deltas of :class:`~fabric.Meters` counters
            (metered slices only).
        log: ``(op type, latency ms, kernel ms)`` per successful op in
            issue order, when the loop samples a reference kernel (see
            :mod:`pace`); not carried over by :meth:`absorb`.
    """

    seconds: float = 0.0
    ops: Counter = field(default_factory=Counter)
    latency_ms: dict = field(default_factory=lambda: defaultdict(list))
    rows: int = 0
    payload: int = 0
    nodes_read: int = 0
    attempts: int = 0
    meters: dict = field(default_factory=lambda: defaultdict(Counter))
    log: list = field(default_factory=list)

    def absorb(self, other: "Slice") -> None:
        """Add another stretch's ops, latencies and counts to this one."""
        self.seconds += other.seconds
        self.ops.update(other.ops)
        for name, latencies in other.latency_ms.items():
            self.latency_ms[name].extend(latencies)
        self.rows += other.rows
        self.payload += other.payload
        self.nodes_read += other.nodes_read
        self.attempts += other.attempts
        for kind, counts in other.meters.items():
            self.meters[kind].update(counts)


class Loop:
    """Issues ops against one fabric and checks each answer.

    Args:
        fabric: The deployment under test.
        stream: The seeded op stream (holds the oracle).
        tally: Where attempts and failures are counted.
        tracer: Run every op under a root span when given.

    Attributes:
        reference: When set, a :class:`pace.Reference` sampled after
            every successful op, outside its timing.
    """

    def __init__(self, fabric: Fabric, stream: OpStream, tally: Tally, tracer=None):
        self.fabric = fabric
        self.stream = stream
        self.tally = tally
        self.tracer = tracer
        self.reference = None

    def _once(self, op: tuple):
        fabric = self.fabric
        name = op[0]
        try:
            start = time.perf_counter_ns()
            if name == "read":
                response = fabric.read(op[1], op[2])
            else:
                fabric.write(op)
                response = None
            elapsed = time.perf_counter_ns() - start
        except Exception as exc:  # every failure mode counts as a failed op
            self.tally.fail(f"{name} {op[1]}: {type(exc).__name__}: {exc}")
            return None, None
        if response is not None:
            if response.rejected:
                self.tally.fail(f"read {op[1]}: REJECT from {response.rejected}")
                return None, None
            if not self.stream.oracle.matches(response.result, op[1], op[2]):
                self.tally.fail(f"read [{op[1]}, {op[2]}]: differs from the model")
                return None, None
        elif not fabric.visible():
            self.tally.fail(f"{name} {op[1]}: not servable on every edge")
            return None, None
        return elapsed / 1e6, response

    def step(self, op: tuple):
        """Run one op; returns ``(latency_ms, response)``, both ``None``
        when the op failed."""
        self.tally.attempted += 1
        if self.tracer is not None:
            return self.tracer.run_op(op_kind(op), self._once, op)
        return self._once(op)

    def run(self, ops, meters: Meters | None = None) -> Slice:
        """Run ``ops`` one by one.  With ``meters``, attribute exact
        meter deltas and read-side counts to each op's kind; the
        re-encoding that sizes each payload then happens here, between
        ops, outside every op's timing."""
        out = Slice()
        start = time.perf_counter()
        for op in ops:
            before = meters.read() if meters is not None else None
            latency, response = self.step(op)
            kind = op_kind(op)
            if meters is not None:
                out.meters[kind].update(meters.read() - before)
            if latency is None:
                continue
            out.ops[kind] += 1
            out.latency_ms[op[0]].append(latency)
            if self.reference is not None:
                out.log.append((op[0], latency, self.reference.sample()))
            if response is not None and meters is not None:
                result = response.result
                out.rows += result.num_rows
                out.payload += len(result_to_bytes(result, self.fabric.sig_len))
                out.attempts += len(response.attempts)
                edge = self.fabric.edges.get(response.edge)
                if edge is not None:
                    out.nodes_read += edge.io_reads_last_query
        out.seconds = time.perf_counter() - start
        return out

    def timed(self, seconds: float) -> Slice:
        """Run the mix for ``seconds`` of wall time."""
        deadline = time.perf_counter() + seconds
        return self.run(self._until(deadline))

    def _until(self, deadline: float):
        while time.perf_counter() < deadline:
            yield self.stream.next()

    def mix(self, count: int):
        """The next ``count`` ops of the stream."""
        for _ in range(count):
            yield self.stream.next()

    def probe(self, writes: int):
        """``writes`` writes, each followed by a narrow read over the
        written key — the read must already reflect the write."""
        for _ in range(writes):
            op = self.stream.write()
            yield op
            low = op[1] - op[1] % KEY_STEP
            yield ("read", low, low + NARROW_KEYS - 1)
