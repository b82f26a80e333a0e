"""perfbench: verified-query latency and insert-to-servable delay.

Run one workload from the repository root::

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
makes the separate traced run that splits time across the layers.
Op times are paced by a fixed reference kernel sampled between ops
(see ``pace.py``), which cancels most of the host's speed drift.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric with its unit and sample count.  The exit code is 0 only
when every op was verified and matched the model.

``--inject tamper`` (a single-edge router over an edge whose replica
holds a tampered value) and ``--inject short_model`` (a model missing
one row) prove the correctness check can fail; both must exit non-zero.
See ``perfbench/README.md`` for workloads, metrics and what each
per-layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

from workload import (
    ATTR_SIZE,
    COLUMNS,
    COUNT_OPS,
    FANOUT,
    FANOUT_WINDOW,
    FANOUT_WORKERS,
    IO_MODE,
    ROUTER_POLICY,
    ROWS,
    RSA_BITS,
    TABLE,
    WORKLOADS,
    Oracle,
    OpStream,
    Seeds,
)

ROOT = Path(__file__).resolve().parent.parent
#: Edge logs and span files; inside the checkout, ignored by git.
OUT_DIR = ROOT / ".bench_build" / "perfbench"
#: Cold starts per untraced run; ``setup_s`` is their median, and each
#: is followed by an equal share of the timed loop.
SETUPS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=10.0, help="timed loop length"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="0: end-to-end metrics; 1: the traced per-layer run",
    )
    parser.add_argument(
        "--inject", choices=("tamper", "short_model"),
        help="a fault the correctness check must catch",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.inject == "tamper" and WORKLOADS[args.workload].tcp:
        parser.error("--inject tamper needs an in-process workload")
    return args


def _terminate(signum, _frame):
    # Unwind through every ``finally`` so edge processes are stopped.
    raise SystemExit(128 + signum)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def text_line(name: str, value, unit: str, note: str) -> str:
    shown = "n/a" if value is None else f"{value:.4f}"
    return f"{name:<30} {shown:>14} {unit:<6} ({note})"


def configuration(workload) -> dict:
    """The pinned configuration and the machine it ran on."""
    return {
        "workload": workload.name,
        "rows": ROWS,
        "columns": COLUMNS,
        "attr_size": ATTR_SIZE,
        "fanout_override": FANOUT,
        "rsa_bits": RSA_BITS,
        "replication": "eager",
        "io_mode": IO_MODE if workload.tcp else "in-process",
        "edges": workload.edges,
        "ack_every": workload.ack_every,
        "fanout_window": FANOUT_WINDOW,
        "fanout_workers": FANOUT_WORKERS,
        "router_policy": ROUTER_POLICY,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class Session:
    """One run: builds fabrics, drives the phases, keeps the tally."""

    def __init__(self, args) -> None:
        from drive import Tally

        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.seeds = Seeds.derive(args.seed)
        self.tally = Tally()

    def build(self):
        from fabric import build

        router_edges = 1 if self.args.inject == "tamper" else None
        return build(self.workload, self.seeds, str(OUT_DIR), router_edges)

    def loop(self, fabric, rows, tracer=None):
        """The closed loop over ``fabric``, with any injected fault."""
        from drive import Loop
        from repro.edge.adversary import ValueTamper

        stream = OpStream(self.workload, self.seeds.ops, Oracle(rows))
        if self.args.inject == "tamper":
            edge = fabric.edges[fabric.router.router.edge_names[0]]
            ValueTamper(TABLE, stream.hot_key(), "a1", "tampered").apply(edge)
        elif self.args.inject == "short_model":
            stream.oracle.delete(stream.hot_key())
        return Loop(fabric, stream, self.tally, tracer)

    def prime(self, loop) -> None:
        """Insert the run-owned keys the alternating deletes draw on."""
        loop.run(loop.stream.insert() for _ in range(self.workload.pool))

    def warm(self, loop, meters):
        """The exact-count slice, which also warms lazily built state
        before anything is timed."""
        w = self.workload
        counted = loop.run(loop.mix(COUNT_OPS), meters)
        extra = (loop.stream.read() for _ in range(w.probe_reads))
        counted.absorb(loop.run(extra, meters))
        if w.probe_writes:
            probe = loop.run(loop.probe(w.probe_writes), meters)
            counted.meters["write"] = probe.meters["write"]
            counted.ops["write"] = probe.ops["write"]
        return counted

    def close(self, fabric) -> None:
        if fabric is not None:
            fabric.close(keep_logs=self.tally.failed > 0)

    # -- untraced: the end-to-end metrics ------------------------------

    def untraced(self):
        from drive import Slice
        from fabric import Meters, replication_egress
        from pace import NOMINAL_MS, Reference, paced, rates
        from report import median, ratio, tail

        w = self.workload
        reference = Reference()
        setups = []
        counted = None
        timed, after = Slice(), Slice()
        timed_ops, probe_ops, windows, kernel = [], [], [], []
        fabric = None
        try:
            # Each cold start is followed by its own share of the timed
            # loop, so one run samples the machine at several moments.
            for _ in range(SETUPS):
                self.close(fabric)
                fabric = loop = None
                gc.collect()
                fabric, rows, times = self.build()
                setups.append(times)
                loop = self.loop(fabric, rows)
                self.prime(loop)
                warmed = self.warm(loop, Meters(fabric))
                if counted is None:
                    counted = warmed
                loop.reference = reference
                share = loop.timed(self.args.seconds / SETUPS)
                probe = loop.run(loop.probe(w.probe_writes))
                timed.absorb(share)
                after.absorb(probe)
                share_ops = paced(share.log)
                timed_ops.extend(share_ops)
                windows.extend(rates(share_ops))
                probe_ops.extend(paced(probe.log))
                kernel.extend(k for _, _, k in share.log)
        finally:
            self.close(fabric)
        write_ops = timed_ops if timed.ops["write"] else probe_ops
        reads = [ms for name, ms in timed_ops if name == "read"]
        inserts = [ms for name, ms in write_ops if name == "insert"]
        deletes = [ms for name, ms in write_ops if name == "delete"]
        ops = sum(timed.ops.values())
        metrics = {
            "setup_s": (median([t.total for t in setups]), "s"),
            "ops_per_s": (median(windows), "op/s"),
            "query_p50_ms": (median(reads), "ms"),
            "write_visible_p50_ms": (median(inserts), "ms"),
            "query_bytes_per_row": (ratio(counted.payload, counted.rows), "B/row"),
            "replication_bytes_per_write": (
                ratio(
                    replication_egress(counted.meters["write"]),
                    counted.ops["write"],
                ),
                "B",
            ),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        samples = {
            "setup_s": f"{len(setups)} cold starts",
            "ops_per_s": f"{len(windows)} windows, {ops} ops",
            "query_p50_ms": f"{len(reads)} reads",
            "write_visible_p50_ms": f"{len(inserts)} inserts",
            "query_bytes_per_row": f"{counted.ops['read']} reads, {counted.rows} rows",
            "replication_bytes_per_write": f"{counted.ops['write']} writes",
            "peak_rss_mb": "1 process",
        }
        lines = [
            text_line(name, value, unit, f"n: {samples[name]}")
            for name, (value, unit) in metrics.items()
        ]
        # Printed only: a tail needs ten samples beyond it, deletes exist
        # on one workload, and the result line carries the failed ratio
        # as ``failed`` / ``attempted``.
        for name, data, what in (
            ("query_p99_ms", reads, "reads"),
            ("write_visible_p99_ms", inserts, "inserts"),
        ):
            value, beyond = tail(data, 0.99)
            lines.append(
                text_line(name, value, "ms", f"n: {len(data)} {what}, {beyond} beyond")
            )
        lines.append(
            text_line(
                "delete_visible_p50_ms",
                median(deletes) if deletes else None,
                "ms",
                f"n: {len(deletes)} deletes",
            )
        )
        lines.append(
            text_line(
                "failed_ratio",
                ratio(self.tally.failed, self.tally.attempted),
                "ratio",
                f"n: {self.tally.attempted} attempted",
            )
        )
        lines.append(
            "setup split: "
            + ", ".join(
                f"build {t.build:.3f} s + bootstrap {t.bootstrap:.3f} s"
                for t in setups
            )
        )
        unpaced = timed if timed.ops["write"] else after
        lines.append(
            f"unpaced: {ratio(ops, timed.seconds):.2f} op/s over wall time, "
            f"query p50 {median(timed.latency_ms['read']):.4f} ms, write "
            f"visible p50 {median(unpaced.latency_ms['insert']):.4f} ms; "
            f"kernel p50 {median(kernel):.4f} ms "
            f"(nominal {NOMINAL_MS} ms)"
        )
        return metrics, lines

    # -- traced: the per-layer split -----------------------------------

    def traced(self):
        from fabric import Meters
        from pace import Reference, paced, rates
        from report import PER_LAYER, SELF_TIMES, median, ratio
        from spans import OP_SPAN, Tracer

        w = self.workload
        half = self.args.seconds / 2
        reference = Reference()
        fabric = None
        try:
            fabric, rows, times = self.build()
            loop = self.loop(fabric, rows)
            self.prime(loop)
            self.warm(loop, Meters(fabric))
            loop.reference = reference
            base = loop.timed(half)
        finally:
            self.close(fabric)
        fabric = loop = None
        gc.collect()

        tracer = Tracer()
        tracer.install()
        try:
            fabric, rows, _ = self.build()
            tracer.phase = "prime"
            loop = self.loop(fabric, rows, tracer)
            snapshot_bytes = fabric.snapshot_bytes()
            self.prime(loop)
            tracer.phase = "count"
            counted = self.warm(loop, Meters(fabric))
            loop.reference = reference
            tracer.phase = "timed"
            tracer.recording = True
            start = time.perf_counter()
            timed = loop.timed(half)
            after = loop.run(loop.probe(w.probe_writes))
            # The kernel samples between ops are the benchmark's, not
            # the program's: they leave the traced wall time.
            wall_ms = (time.perf_counter() - start) * 1e3 - sum(
                k for _, _, k in timed.log + after.log
            )
            tracer.recording = False
            snapshot_bytes = fabric.snapshot_bytes() - snapshot_bytes
        finally:
            self.close(fabric)
            tracer.uninstall()
        span_file = OUT_DIR / f"trace-{w.name}-seed{self.args.seed}.tsv.gz"
        n_spans = tracer.write_spans(str(span_file))

        ops = timed.ops + after.ops
        metrics = {}
        for name, layers, kind in SELF_TIMES:
            den = ops[kind] if kind else sum(ops.values())
            total = sum(tracer.self_ms("timed", kind, layer) for layer in layers)
            metrics[name] = (ratio(total, den), "ms")
        reads, writes = counted.ops["read"], counted.ops["write"]
        rmeter, wmeter = counted.meters["read"], counted.meters["write"]
        counts = {
            "db.btree.nodes_read_per_query": ratio(counted.nodes_read, reads),
            "client.hashes_per_row": ratio(rmeter["client.hashes"], counted.rows),
            "client.combines_per_row": ratio(rmeter["client.combines"], counted.rows),
            "client.verifies_per_query": ratio(rmeter["client.verifies"], reads),
            "central.signs_per_write": ratio(
                tracer.count("count", "write", "crypto.rsa_sign"), writes
            ),
            "setup.signs": tracer.count("setup", None, "crypto.rsa_sign"),
            "replication.delta_bytes_per_write": ratio(wmeter["log.delta"], writes),
            "fanout.frames_per_write": ratio(
                wmeter["down.delta.frames"] + wmeter["down.snapshot.frames"], writes
            ),
            "fanout.snapshot_bytes_after_setup": snapshot_bytes,
            "reactor.sendmsg_per_write": ratio(wmeter["reactor.sendmsg"], writes),
            "reactor.recv_per_op": ratio(
                rmeter["reactor.recv"] + wmeter["reactor.recv"], reads + writes
            ),
            "transport.up_bytes_per_write": ratio(wmeter["up.ack"], writes),
            "router.attempts_per_query": ratio(counted.attempts, reads),
        }
        units = {name: unit for name, unit, _better, _moves in PER_LAYER}
        for name, value in counts.items():
            metrics[name] = (value, units[name])
        metrics["setup.build_s"] = (times.build, "s")
        metrics["setup.bootstrap_s"] = (times.bootstrap, "s")
        layered = sum(
            tracer.self_ms("timed", None, layer) for layer in tracer.layers()
        )
        metrics["trace.layer_coverage"] = (ratio(layered, wall_ms), "ratio")
        base_rate = median(rates(paced(base.log)))
        traced_rate = median(rates(paced(timed.log)))
        metrics["trace.overhead"] = (ratio(base_rate, traced_rate), "ratio")

        lines = [
            f"{name:<42} {value:>14.6f} {unit}"
            for name, (value, unit) in metrics.items()
        ]
        lines.append(
            f"traced wall {wall_ms:.1f} ms over {dict(ops)} ops; harness "
            f"share {ratio(tracer.self_ms('timed', None, OP_SPAN), wall_ms):.4f}; "
            f"paced ops/s untraced {base_rate:.2f} vs traced {traced_rate:.2f}; "
            f"read p50 untraced {median(base.latency_ms['read']):.3f} ms"
        )
        lines.append(f"{n_spans} spans written to {span_file.relative_to(ROOT)}")
        return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if importlib.util.find_spec("repro") is None:
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    from report import result_line

    session = Session(args)
    print("config " + json.dumps(configuration(session.workload), sort_keys=True))
    if args.inject:
        print(f"injected fault: {args.inject}")
    metrics, lines = session.traced() if args.trace else session.untraced()
    for line in lines:
        print(line)
    tally = session.tally
    for error in tally.errors:
        print(f"FAILED: {error}")
    correct = tally.failed == 0
    print(result_line(correct, tally.attempted, tally.failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
