"""Metric definitions, percentiles and the result line.

``END_TO_END`` and ``PER_LAYER`` are the metrics ``BENCHMARK.json``
lists.  Each per-layer metric names the end-to-end metric and workload
it should move.
"""

from __future__ import annotations

import json
import math
import statistics

#: ``(name, unit, better)`` — on the result line of every untraced run.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "op/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("write_visible_p50_ms", "ms", "lower"),
    ("query_bytes_per_row", "B/row", "lower"),
    ("replication_bytes_per_write", "B", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_READ = "query_p50_ms@read_zipf"
_WRITE = "write_visible_p50_ms@write_fanout"
_TCP_Q = "query_p50_ms@mixed_tcp"
_TCP_W = "write_visible_p50_ms@mixed_tcp"

#: ``(name, unit, better, moves)`` — on the result line of traced runs.
PER_LAYER = (
    ("db.btree.nodes_read_per_query", "count", "lower", _READ),
    ("core.vo_build.ms_per_query", "ms", "lower", f"{_READ}, ops_per_s@read_zipf"),
    ("core.wire.encode_ms_per_query", "ms", "lower", _READ),
    ("core.wire.decode_ms_per_query", "ms", "lower", f"{_READ}, {_TCP_Q}"),
    ("core.verify.self_ms_per_query", "ms", "lower",
     f"query_p50/p99_ms@read_zipf, {_TCP_Q}"),
    ("core.digests.attribute_ms_per_query", "ms", "lower", _READ),
    ("core.digests.attribute_ms_per_write", "ms", "lower", _WRITE),
    ("client.hashes_per_row", "count", "lower", _READ),
    ("crypto.commutative.display_ms_per_query", "ms", "lower", _READ),
    ("client.combines_per_row", "count", "lower", _READ),
    ("crypto.rsa_verify_ms_per_query", "ms", "lower", _READ),
    ("crypto.rsa_verify_ms_per_write", "ms", "lower", _WRITE),
    ("client.verifies_per_query", "count", "lower", _READ),
    ("crypto.rsa_sign_ms_per_write", "ms", "lower", _WRITE),
    ("central.signs_per_write", "count", "lower", _WRITE),
    ("setup.signs", "count", "lower", "setup_s@all"),
    ("central.write.self_ms_per_write", "ms", "lower", _WRITE),
    ("core.update.self_ms_per_write", "ms", "lower", _WRITE),
    ("replication.record_ms_per_write", "ms", "lower", _WRITE),
    ("replication.delta_bytes_per_write", "B", "lower",
     f"{_WRITE}, replication_bytes_per_write@write_fanout"),
    ("fanout.pump.self_ms_per_write", "ms", "lower", f"{_WRITE}, {_TCP_W}"),
    ("fanout.frames_per_write", "count", "lower", f"{_WRITE}, {_TCP_W}"),
    ("fanout.snapshot_bytes_after_setup", "B", "lower", f"{_WRITE}, {_TCP_W}"),
    ("edge.apply_delta.self_ms_per_write", "ms", "lower", _WRITE),
    ("edge.query.self_ms_per_query", "ms", "lower", _READ),
    ("transport.link.self_ms_per_op", "ms", "lower", _READ),
    ("transport.frame_codec_ms_per_op", "ms", "lower", f"{_TCP_Q}, {_TCP_W}"),
    ("reactor.query_wait_ms", "ms", "lower", _TCP_Q),
    ("reactor.sync_ms_per_write", "ms", "lower", _TCP_W),
    ("reactor.sendmsg_per_write", "count", "lower", _TCP_W),
    ("reactor.recv_per_op", "count", "lower", f"{_TCP_Q}, {_TCP_W}"),
    ("transport.up_bytes_per_write", "B", "lower", _TCP_W),
    ("router.self_ms_per_query", "ms", "lower", "query_p50_ms@all"),
    ("router.attempts_per_query", "count", "lower", "query_p50_ms@all"),
    ("setup.build_s", "s", "lower", "setup_s@all"),
    ("setup.bootstrap_s", "s", "lower", "setup_s@all"),
    ("trace.layer_coverage", "ratio", "higher", "-"),
    ("trace.overhead", "ratio", "lower", "-"),
)

#: Layer self times a traced run attributes, and how each is reported.
#: ``(metric, layers, kind)``: the summed self time of ``layers`` over
#: ops of ``kind`` (``None`` = all ops), divided by that op count.
SELF_TIMES = (
    ("core.vo_build.ms_per_query", ("core.vo_build",), "read"),
    ("core.wire.encode_ms_per_query", ("core.wire.encode",), "read"),
    ("core.wire.decode_ms_per_query", ("core.wire.decode",), "read"),
    ("core.verify.self_ms_per_query", ("core.verify",), "read"),
    ("core.digests.attribute_ms_per_query", ("core.digests.attribute",), "read"),
    ("core.digests.attribute_ms_per_write", ("core.digests.attribute",), "write"),
    ("crypto.commutative.display_ms_per_query", ("crypto.commutative.display",), "read"),
    ("crypto.rsa_verify_ms_per_query", ("crypto.rsa_verify",), "read"),
    ("crypto.rsa_verify_ms_per_write", ("crypto.rsa_verify",), "write"),
    ("crypto.rsa_sign_ms_per_write", ("crypto.rsa_sign",), "write"),
    ("central.write.self_ms_per_write", ("central.write",), "write"),
    ("core.update.self_ms_per_write", ("core.update",), "write"),
    ("replication.record_ms_per_write", ("replication.record",), "write"),
    ("fanout.pump.self_ms_per_write", ("fanout.pump",), "write"),
    ("edge.apply_delta.self_ms_per_write",
     ("edge.apply_delta", "edge.handle_frame"), "write"),
    ("edge.query.self_ms_per_query", ("edge.handle_frame",), "read"),
    ("transport.link.self_ms_per_op", ("transport.link",), None),
    ("transport.frame_codec_ms_per_op", ("transport.frame_codec",), None),
    ("reactor.query_wait_ms", ("reactor.query_wait",), "read"),
    ("reactor.sync_ms_per_write", ("reactor.sync",), "write"),
    ("router.self_ms_per_query", ("router",), "read"),
)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def tail(samples, q: float):
    """Nearest-rank ``q`` percentile and the number of samples beyond
    it; the percentile is ``None`` when fewer than ten lie beyond."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < 10:
        return None, beyond
    return sorted(samples)[rank - 1], beyond


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The JSON object the run prints last."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
