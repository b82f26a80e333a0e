"""In-memory span recorder wrapped around the program's public callables.

The traced run installs a wrapper on every callable in
:data:`TRACE_POINTS` *before* the fabric is built (a handler bound at
connect time would otherwise keep the unwrapped method).  Each call
becomes a span — layer, start, end, parent span, op id — kept in memory
and written out when the run ends.  Self time, a span's duration minus
the time its child spans cover, is summed per (phase, op kind, layer)
as spans close, and calls are counted the same way.

Only the thread that installed the tracer is recorded: the deployment's
accept thread runs handshakes concurrently and is passed straight
through.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import threading
import time
from collections import defaultdict

#: ``(layer, module, callable)`` — a ``Class.method`` is patched on the
#: class; a module function is patched in every ``repro`` module that
#: imported it by name.
TRACE_POINTS = (
    ("router", "repro.edge.router", "VerifyingRouter.query"),
    ("router", "repro.edge.router", "EdgeRouter.query"),
    ("transport.link", "repro.edge.router", "TransportQueryChannel.request"),
    ("reactor.query_wait", "repro.edge.router", "DeploymentQueryChannel.request"),
    ("transport.frame_codec", "repro.edge.transport", "frame_to_bytes"),
    ("transport.frame_codec", "repro.edge.transport", "frame_from_bytes"),
    ("edge.handle_frame", "repro.edge.edge_server", "EdgeServer.handle_frame"),
    ("edge.apply_delta", "repro.edge.edge_server", "EdgeServer.apply_delta"),
    ("core.vo_build", "repro.core.query_auth", "QueryAuthenticator.range_query"),
    ("core.wire.encode", "repro.core.wire", "result_to_bytes"),
    ("core.wire.decode", "repro.core.wire", "result_from_bytes"),
    ("core.verify", "repro.edge.client", "Client.verify"),
    ("core.digests.attribute", "repro.core.digests", "DigestEngine.attribute_value"),
    ("crypto.commutative.display", "repro.core.digests", "DigestEngine.display_value"),
    ("crypto.rsa_verify", "repro.crypto.signatures", "DigestVerifier.recover"),
    ("crypto.rsa_sign", "repro.crypto.signatures", "DigestSigner.sign"),
    ("core.update", "repro.core.update", "AuthenticatedUpdater.insert"),
    ("core.update", "repro.core.update", "AuthenticatedUpdater.delete"),
    ("replication.record", "repro.edge.replication", "Replicator.record"),
    ("fanout.pump", "repro.edge.fanout", "FanoutEngine.pump"),
    ("central.write", "repro.edge.central", "CentralServer.insert"),
    ("central.write", "repro.edge.central", "CentralServer.delete"),
    ("reactor.sync", "repro.edge.deploy", "Deployment.sync"),
)

#: The benchmark's own per-op span (oracle check, dispatch): not a layer.
OP_SPAN = "bench.op"


class Tracer:
    """Span recorder and per-layer self-time / call-count aggregator.

    Attributes:
        phase: Label the aggregates are filed under (``setup``,
            ``prime``, ``count``, ``timed``).
        recording: Keep individual spans (on for the timed slice only;
            aggregates are kept in every phase).
        self_ns: ``(phase, kind, layer)`` → summed self time.
        calls: ``(phase, kind, layer)`` → number of calls.
        spans: ``(layer, start_ns, end_ns, parent, op)`` per recorded
            span; ``parent`` indexes this list, ``-1`` for a root.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.recording = False
        self.self_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.spans: list = []
        self._kind = "setup"
        self._op = -1
        self._stack: list = []
        self._thread = threading.get_ident()
        self._patched: list = []

    # -- span mechanics --------------------------------------------------

    def _run(self, layer: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        sid = -1
        if self.recording:
            sid = len(self.spans)
            self.spans.append(None)
        frame = [sid, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            key = (self.phase, self._kind, layer)
            self.self_ns[key] += duration - frame[1]
            self.calls[key] += 1
            if sid >= 0:
                self.spans[sid] = (layer, start, end, parent, self._op)

    def wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            return tracer._run(layer, fn, args, kwargs)

        return traced

    def run_op(self, kind: str, fn, *args):
        """Run ``fn(*args)`` as one op under a root span; layer spans
        inside it are attributed to ``kind`` (``read`` or ``write``)."""
        self._kind = kind
        self._op += 1
        return self._run(OP_SPAN, fn, args, {})

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Wrap every trace point; :meth:`uninstall` restores them."""
        modules = {module for _layer, module, _name in TRACE_POINTS}
        for name in sorted(modules):
            importlib.import_module(name)
        for layer, module_name, qualname in TRACE_POINTS:
            module = sys.modules[module_name]
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(layer, original))
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(layer, original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "") or ""
                if name.split(".")[0] != "repro":
                    continue
                if getattr(mod, qualname, None) is original:
                    self._patch(mod, qualname, original, wrapped)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched callable."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    @staticmethod
    def _total(table: dict, phase: str, kind: str | None, layer: str):
        return sum(
            value
            for (p, k, name), value in table.items()
            if p == phase and name == layer and (kind is None or k == kind)
        )

    def self_ms(self, phase: str, kind: str | None, layer: str) -> float:
        """Summed self time of ``layer`` in ``phase`` (all kinds if
        ``kind`` is None), in milliseconds."""
        return self._total(self.self_ns, phase, kind, layer) / 1e6

    def count(self, phase: str, kind: str | None, layer: str) -> int:
        """Calls of ``layer`` in ``phase`` (all kinds if ``kind`` is None)."""
        return self._total(self.calls, phase, kind, layer)

    def layers(self) -> list[str]:
        """Every layer name the trace points define."""
        return sorted({layer for layer, _m, _n in TRACE_POINTS})

    def write_spans(self, path: str) -> int:
        """Write recorded spans as gzip TSV; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tlayer\tstart_ns\tend_ns\tparent\top\n")
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                layer, start, end, parent, op = span
                out.write(f"{sid}\t{layer}\t{start}\t{end}\t{parent}\t{op}\n")
        return len(self.spans)
