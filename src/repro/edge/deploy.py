"""Multi-process deployment: central listener + edge OS processes.

This is the paper's Figure 2 drawn with real process boundaries: the
trusted central DBMS runs in *this* process and listens on a TCP port;
each edge server is a separate OS process (``python -m
repro.edge.serve``) that dials in, registers, and receives its replicas
over the wire.  Nothing but serialized frames ever crosses the
boundary — the same property the in-process transport enforces
structurally, now enforced by the operating system.

Typical use (see also ``examples/socket_deployment.py`` and the
README's Deployment section)::

    central = CentralServer("proddb", seed=7)
    central.create_table(schema, rows)
    with Deployment(central) as deploy:
        deploy.launch_edge("edge-0")
        deploy.launch_edge("edge-1")
        deploy.wait_for_edge("edge-0")
        deploy.wait_for_edge("edge-1")
        central.insert("items", (1001, "new row"))
        deploy.sync()
        response = deploy.range_query("edge-0", "items", low=1, high=50)
        assert central.make_client().verify(response).ok

Failure handling rides entirely on the existing replication machinery:
a killed edge's link reports ``failed`` sends (like a partitioned
in-process link) and the central write path never blocks on it; when
the process is relaunched it re-registers with an empty cursor list
and the fan-out engine's epoch check heals it with snapshots — the
same nack→retry→snapshot-heal escalation, now exercised by real
``ECONNRESET``\\ s.
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.core.vo import VOFormat
from repro.core.wire import predicate_to_bytes, result_from_bytes
from repro.edge.central import CentralServer
from repro.edge.edge_server import EdgeResponse
from repro.edge.event_loop import EdgeEventLoop, ReactorTransport
from repro.edge.socket_transport import (
    recv_hello,
    send_frame,
    serve_registrations,
)
from repro.edge.transport import (
    Transport,
    QueryRequestFrame,
    QueryResponseFrame,
    config_to_frame,
    frame_to_bytes,
    range_query_frame,
    secondary_query_frame,
    select_query_frame,
)
from repro.exceptions import TransportError

__all__ = ["EdgeProcess", "Deployment", "ShardedDeployment", "RelayDeployment"]


def _src_root() -> str:
    """The directory to put on the edge processes' ``PYTHONPATH``."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@dataclass
class EdgeProcess:
    """One managed edge: its OS process and its current link.

    Attributes:
        name: Edge server name.
        process: The ``python -m repro.edge.serve`` subprocess (``None``
            for externally launched edges that just dialed in).
        transport: Link over the edge's most recent connection.
        registered: Set each time the edge completes a handshake.
        log: The open log-file handle the current process writes to
            (``None`` when logging to ``/dev/null``).  Kept per edge so
            a restart closes the superseded handle instead of leaking
            one file descriptor per relaunch.
    """

    name: str
    process: Optional[subprocess.Popen] = None
    transport: Optional[Transport] = None
    registered: threading.Event = field(default_factory=threading.Event)
    log: Any = None

    @property
    def connected(self) -> bool:
        return self.transport is not None and self.transport.connected

    @property
    def alive(self) -> bool:
        """True while the subprocess is running."""
        return self.process is not None and self.process.poll() is None

    def launch(self, args: Sequence[str], log_dir: str | None) -> "EdgeProcess":
        """(Re)start ``python -m repro.edge.serve *args`` for this name.

        The subprocess inherits this interpreter and gets the package's
        source root prepended to ``PYTHONPATH``; its output is appended
        to ``<log_dir>/<name>.log`` (silenced when ``log_dir`` is
        ``None``).  A relaunch closes the superseded log handle first,
        or every restart would leak one file descriptor.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = _src_root() + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.close_log()
        stdout: Any = subprocess.DEVNULL
        if log_dir is not None:
            os.makedirs(log_dir, exist_ok=True)
            stdout = open(  # not a context manager: closed on relaunch/shutdown
                os.path.join(log_dir, f"{self.name}.log"), "ab"
            )
            self.log = stdout
        self.registered.clear()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.edge.serve", *args],
            env=env,
            stdout=stdout,
            stderr=subprocess.STDOUT if stdout is not subprocess.DEVNULL
            else subprocess.DEVNULL,
        )
        return self

    def kill(self) -> None:
        """SIGKILL the running process (if any) and reap it."""
        if self.alive:
            self.process.kill()
            self.process.wait(timeout=10)

    def close_log(self) -> None:
        """Close the current log handle (idempotent)."""
        if self.log is not None:
            try:
                self.log.close()
            except OSError:
                pass
            self.log = None


def _stop_all(handles: Sequence[EdgeProcess], timeout: float) -> None:
    """Terminate every running process, then reap each one (SIGKILL
    past ``timeout``) and close its log."""
    for handle in handles:
        if handle.alive:
            handle.process.terminate()
    for handle in handles:
        if handle.process is not None:
            try:
                handle.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait(timeout=timeout)
        handle.close_log()


class Deployment:
    """Run a central listener and manage edge server processes.

    Args:
        central: The trusted central server (lives in this process).
        host: Listen address (loopback by default).
        port: Listen port (``0`` = ephemeral; read :attr:`address`).
        io_timeout: Reply deadline on every accepted edge link, and the
            total time a dialer has to deliver its registration hello.
        log_dir: Directory for per-edge stdout/stderr logs; edges are
            silenced (``/dev/null``) when not given.
        io_mode: Only ``"reactor"`` is accepted (anything else raises
            ``ValueError``): every accepted edge link is served from
            one :class:`~repro.edge.event_loop.EdgeEventLoop`.
        reactor: Share an existing :class:`EdgeEventLoop` instead of
            owning a private one.  A sharded
            deployment runs one ``Deployment`` per signer shard on one
            machine; sharing the loop keeps every shard's accepted
            links on a single selector.  A shared reactor is *not*
            closed by :meth:`shutdown` — its owner closes it.
        shard_map: A :class:`~repro.edge.sharding.ShardMap` to push to
            every registering edge in the handshake ``ConfigFrame``
            (optional trailing fields — absent, the handshake is
            byte-identical to the unsharded protocol).
    """

    def __init__(
        self,
        central: CentralServer,
        host: str = "127.0.0.1",
        port: int = 0,
        io_timeout: float = 10.0,
        log_dir: str | None = None,
        io_mode: str = "reactor",
        reactor: EdgeEventLoop | None = None,
        shard_map=None,
    ) -> None:
        if io_mode != "reactor":
            raise ValueError(f"io_mode must be 'reactor', got {io_mode!r}")
        self.central = central
        self.io_timeout = io_timeout
        self.log_dir = log_dir
        self.shard_map = shard_map
        self._owns_reactor = reactor is None
        self.reactor = reactor if reactor is not None else EdgeEventLoop()
        central.fanout.reactor = self.reactor
        self.edges: dict[str, EdgeProcess] = {}
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self._closed = False
        self._accept_thread = threading.Thread(
            target=serve_registrations,
            args=(self._listener, self._handshake, "deploy.accept_loop"),
            name="deploy-accept",
            daemon=True,
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    # Listener / handshake
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` edges should dial."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    def _handshake(self, conn: socket.socket) -> None:
        """Serve one edge registration (runs on the accept thread)."""
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = recv_hello(conn, self.io_timeout)
        config = config_to_frame(
            self.central.edge_config(),
            ack_every=self.central.ack_every,
            ack_bytes=self.central.ack_bytes,
            shard_id=self.central.shard_id,
            shard_map=(
                self.shard_map.to_wire() if self.shard_map is not None else None
            ),
        )
        send_frame(conn, frame_to_bytes(config))
        transport = ReactorTransport(
            hello.edge, self.reactor, conn, timeout=self.io_timeout
        )
        # Seed the peer with the epoch of the bundle we *actually sent*
        # — a rotation racing this handshake must still trigger a
        # refresh on the next pump.
        sent_epoch = max(
            (record[0] for record in config.epochs), default=-1
        )
        self.central.attach_remote_edge(
            hello.edge, transport, cursors=hello.cursors,
            config_epoch=sent_epoch,
        )
        handle = self.edges.setdefault(hello.edge, EdgeProcess(hello.edge))
        handle.transport = transport
        handle.registered.set()

    # ------------------------------------------------------------------
    # Edge process management
    # ------------------------------------------------------------------

    def launch_edge(
        self, name: str, *, extra_args: Sequence[str] = ()
    ) -> EdgeProcess:
        """Start ``python -m repro.edge.serve`` for ``name`` (see
        :meth:`EdgeProcess.launch`).  Call :meth:`wait_for_edge` before
        relying on its replicas.
        """
        host, port = self.address
        handle = self.edges.setdefault(name, EdgeProcess(name))
        return handle.launch(
            ["--name", name, "--host", host, "--port", str(port), *extra_args],
            self.log_dir,
        )

    def wait_for_edge(
        self, name: str, timeout: float = 30.0, sync: bool = True
    ) -> EdgeProcess:
        """Block until ``name`` has completed its handshake.

        Args:
            name: Edge to wait for.
            timeout: Registration deadline.
            sync: Also run a :meth:`sync` round so the edge's replicas
                are current when this returns.

        Raises:
            TransportError: If the edge does not register in time.
        """
        handle = self.edges.setdefault(name, EdgeProcess(name))
        if not handle.registered.wait(timeout):
            raise TransportError(
                f"edge {name!r} did not register within {timeout}s"
            )
        if sync:
            self.sync()
        return handle

    def kill_edge(self, name: str) -> None:
        """SIGKILL the edge's process — the mid-stream crash scenario.

        The central side is *not* told: its next send discovers the
        reset, exactly as with a remote machine failure.
        """
        handle = self.edges[name]
        handle.kill()
        handle.registered.clear()

    def restart_edge(self, name: str) -> EdgeProcess:
        """Relaunch a (killed) edge process under the same name."""
        self.kill_edge(name)
        return self.launch_edge(name)

    def restart_storm(
        self,
        names: Sequence[str] | None = None,
        cycles: int = 1,
        seed: int = 0,
        wait: bool = True,
        timeout: float = 30.0,
    ) -> list[str]:
        """Seeded SIGKILL/relaunch storm over the named edges.

        Each cycle kills and relaunches every target once, in an order
        drawn from ``random.Random(seed)`` — the same seed always
        produces the same kill order, which is what makes a storm
        failure replayable (see ``src/repro/chaos``).

        Args:
            names: Edges to storm (default: every managed edge).
            cycles: Kill/relaunch passes over the whole target set.
            seed: Shuffle seed; the schedule is a pure function of it.
            wait: Re-wait for registration (and sync) after each cycle,
                so the storm ends with a healed fleet.
            timeout: Per-edge registration deadline when waiting.

        Returns:
            The kill order actually applied, one entry per kill.
        """
        rng = random.Random(seed)
        targets = list(names) if names is not None else sorted(self.edges)
        order: list[str] = []
        for _ in range(max(0, cycles)):
            shuffled = list(targets)
            rng.shuffle(shuffled)
            for name in shuffled:
                self.restart_edge(name)
                order.append(name)
            if wait:
                for name in shuffled:
                    self.wait_for_edge(name, timeout=timeout)
        return order

    # ------------------------------------------------------------------
    # Replication & queries over the wire
    # ------------------------------------------------------------------

    def sync(self, table: str | None = None, max_rounds: int = 8) -> int:
        """Propagate until every *connected* edge is current.

        Each round pumps the fan-out engine and then drains the
        pipelined acks; multiple rounds let the nack→retry→snapshot
        escalation run to quiescence (a heal needs one round to learn
        of the problem and one to ship the fix).  The settle
        (:meth:`FanoutEngine.drain
        <repro.edge.fanout.FanoutEngine.drain>`) is readiness-driven:
        every edge's queued frames and its cursor probe leave in one
        vectored write, and one shared reactor wait settles the whole
        fleet as acks land — no per-peer blocking, no busy polling.

        Returns:
            Total frames shipped.
        """
        shipped = 0
        for _ in range(max_rounds):
            shipped += self.central.propagate(table)
            self.central.fanout.drain(wait=True)
            if self._settled(table):
                break
        return shipped

    def _settled(self, table: str | None) -> bool:
        tables = [table] if table else list(self.central.vbtrees)
        # Snapshot: the accept thread may register a dialing edge
        # mid-iteration.
        for handle in list(self.edges.values()):
            if not handle.connected:
                continue
            peer = self.central.fanout.peer(handle.name)
            if peer.needs_snapshot or peer.inflight:
                return False
            for t in tables:
                if self.central.fanout.staleness(handle.name, t) != 0:
                    return False
        return True

    def staleness(self, name: str, table: str) -> int:
        """LSN lag of ``name``'s replica of ``table`` (ack-fed)."""
        return self.central.staleness(name, table)

    def _request(self, name: str, frame: QueryRequestFrame) -> EdgeResponse:
        handle = self.edges.get(name)
        if handle is None or handle.transport is None:
            raise TransportError(f"no connected edge {name!r}")
        reply = handle.transport.request(frame)
        if not isinstance(reply, QueryResponseFrame):
            raise TransportError(
                f"expected QueryResponseFrame, got {type(reply).__name__}"
            )
        # The response rode the same ordered link replication uses, so
        # its piggybacked cursors are acks the central can bank — under
        # coalescing this keeps the authoritative staleness view fresh
        # between settle points without a single extra frame.
        self.central.fanout.observe_response_cursors(name, reply.cursors)
        if reply.error:
            raise TransportError(
                f"edge {name!r} rejected query: {reply.error}"
            )
        result = result_from_bytes(reply.payload)
        return EdgeResponse(
            edge_name=reply.edge,
            result=result,
            wire_bytes=len(reply.payload),
            transfer=handle.transport.up_channel.transfers[-1],
            lsn=reply.lsn,
            epoch=reply.epoch,
        )

    def make_router(
        self,
        names: Sequence[str] | None = None,
        policy="round_robin",
        **kwargs,
    ):
        """A :class:`~repro.edge.router.VerifyingRouter` over this
        deployment's edge processes, on real TCP query channels.

        Channels resolve each edge's *current* connection per request,
        so a killed edge fails fast (and enters router cooldown) while
        a restarted one is routable again right after re-registering.
        Staleness hints are seeded from the fan-out engine's cursors.

        Args:
            names: Edges to route over (default: every edge known to
                the deployment, connected or not — an unreachable edge
                just starts in the failure path).
            policy: Routing policy name or enum.
            **kwargs: Forwarded to :class:`~repro.edge.router.EdgeRouter`.
        """
        from repro.edge.router import (
            DeploymentQueryChannel,
            EdgeRouter,
            VerifyingRouter,
        )

        if names is None:
            names = list(self.edges)
        channels = [DeploymentQueryChannel(self, name) for name in names]
        router = EdgeRouter(channels, policy=policy, **kwargs)
        router.seed_from_fanout(self.central.fanout)
        return VerifyingRouter(router, self.central.make_client())

    def range_query(
        self,
        edge: str,
        table: str,
        low: Any = None,
        high: Any = None,
        columns: Optional[Sequence[str]] = None,
        vo_format: VOFormat | None = None,
    ) -> EdgeResponse:
        """Primary-key range query against a remote edge, over TCP."""
        return self._request(
            edge, range_query_frame(table, low, high, columns, vo_format)
        )

    def secondary_range_query(
        self,
        edge: str,
        table: str,
        attribute: str,
        low: Any = None,
        high: Any = None,
        columns: Optional[Sequence[str]] = None,
        vo_format: VOFormat | None = None,
    ) -> EdgeResponse:
        """Secondary-index range query against a remote edge."""
        return self._request(
            edge,
            secondary_query_frame(table, attribute, low, high, columns, vo_format),
        )

    def select(
        self,
        edge: str,
        table: str,
        predicate,
        columns: Optional[Sequence[str]] = None,
        vo_format: VOFormat | None = None,
    ) -> EdgeResponse:
        """General predicate selection against a remote edge."""
        return self._request(
            edge,
            select_query_frame(
                table, predicate_to_bytes(predicate), columns, vo_format
            ),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Close the listener, links, and every managed process."""
        if self._closed:
            return
        self._closed = True
        try:
            # shutdown() (not just close()) is what actually wakes a
            # thread blocked in accept() on Linux.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        handles = list(self.edges.values())
        for handle in handles:
            if handle.transport is not None:
                handle.transport.close()
        if self._owns_reactor:
            self.reactor.close()
        if self.central.fanout.reactor is self.reactor:
            self.central.fanout.reactor = None
        _stop_all(handles, timeout)
        self._accept_thread.join(timeout=timeout)

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class RelayDeployment:
    """Central → k relay processes → n edge processes (DESIGN.md §13).

    The hierarchical face of the fabric: the trusted central runs in
    this process behind a :class:`Deployment` listener; each **relay**
    is a separate OS process (``python -m repro.edge.serve --relay``)
    that dials the central like an edge (``role="relay"`` in its hello)
    and re-listens for its own downstream edge processes.  The central
    sees only the k relays — its egress scales with k, not n — while
    every edge still verifies the byte-identical signed frames
    end-to-end, so the relays need no trust.

    Relay listen ports are reserved up front and *pinned per name*: a
    killed relay's replacement rebinds the same address, so its
    downstream edges' reconnect loops find it again without any
    coordination.  A relay SIGKILL loses the relay's frame store; its
    restart re-registers empty, heals from the central via snapshot,
    and re-seeds the whole subtree — the exact escalation path a killed
    edge already exercises, one level up.

    Args:
        central: The trusted central server (lives in this process).
        host: Listen address for the central and every relay.
        io_timeout / log_dir: As for :class:`Deployment`.
    """

    def __init__(
        self,
        central: CentralServer,
        host: str = "127.0.0.1",
        io_timeout: float = 10.0,
        log_dir: str | None = None,
    ) -> None:
        self.host = host
        self.log_dir = log_dir
        self.deploy = Deployment(
            central, host=host, io_timeout=io_timeout, log_dir=log_dir
        )
        self.central = central
        self.relays: dict[str, EdgeProcess] = {}
        self.relay_ports: dict[str, int] = {}
        #: Launch kwargs pinned per relay name, so a restart rebuilds
        #: the process with the same store cap / spot-check policy.
        self.relay_opts: dict[str, dict] = {}
        self.edge_procs: dict[str, EdgeProcess] = {}
        self.edge_relay: dict[str, str] = {}

    @property
    def address(self) -> tuple[str, int]:
        """The central listener's ``(host, port)``."""
        return self.deploy.address

    def relay_address(self, name: str) -> tuple[str, int]:
        """The ``(host, port)`` edges of relay ``name`` dial."""
        return (self.host, self.relay_ports[name])

    def _reserve_port(self) -> int:
        """Pick a currently-free port the relay process will rebind.

        The reservation socket closes before the relay binds, so this
        is only *probably* free — fine for tests/benches on loopback,
        and what makes relay restart address-stable.
        """
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((self.host, 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def _spawn(
        self, handles: dict[str, EdgeProcess], name: str, args: list[str]
    ) -> EdgeProcess:
        """(Re)launch the serve process ``handles[name]`` tracks."""
        return handles.setdefault(name, EdgeProcess(name)).launch(
            args, self.log_dir
        )

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------

    def launch_relay(
        self, name: str, *, spot_check_every: int = 0,
        max_store_bytes: int = 0,
    ) -> EdgeProcess:
        """Start a relay process dialing the central listener.

        The relay's downstream listen port is reserved on the first
        launch and reused on every relaunch under the same name.
        """
        chost, cport = self.deploy.address
        port = self.relay_ports.get(name)
        if port is None:
            port = self._reserve_port()
            self.relay_ports[name] = port
        self.relay_opts[name] = {
            "spot_check_every": spot_check_every,
            "max_store_bytes": max_store_bytes,
        }
        return self._spawn(
            self.relays,
            name,
            [
                "--relay", "--name", name,
                "--host", chost, "--port", str(cport),
                "--listen-host", self.host, "--listen-port", str(port),
                "--spot-check-every", str(spot_check_every),
                "--max-store-bytes", str(max_store_bytes),
                "--retry-attempts", "120",
            ],
        )

    def launch_edge(self, name: str, relay: str) -> EdgeProcess:
        """Start an edge process dialing relay ``relay``'s listener.

        The generous retry budget keeps the edge re-dialing through a
        relay kill/restart window instead of giving up.
        """
        self.edge_relay[name] = relay
        return self._spawn(
            self.edge_procs,
            name,
            [
                "--name", name,
                "--host", self.host,
                "--port", str(self.relay_ports[relay]),
                "--retry-attempts", "120",
            ],
        )

    def wait_for_relay(self, name: str, timeout: float = 30.0) -> EdgeProcess:
        """Block until relay ``name`` has registered with the central.

        Registration is observed at the central listener (the relay's
        upstream hello), so this also guarantees the relay's downstream
        listener is up — it binds before dialing.
        """
        handle = self.deploy.edges.setdefault(name, EdgeProcess(name))
        if not handle.registered.wait(timeout):
            raise TransportError(
                f"relay {name!r} did not register within {timeout}s"
            )
        return self.relays[name]

    def wait_for_edges(
        self,
        relay: str,
        names: Sequence[str],
        table: str,
        timeout: float = 30.0,
    ) -> None:
        """Block until every named edge answers a query through the
        relay.

        Edges register with the relay *process*, which this process
        cannot observe directly — so readiness is probed the way it
        will be used: round-robin queries through the relay until every
        name has answered, interleaved with sync rounds so the probed
        replicas exist.

        Raises:
            TransportError: If some edge never answered in time.
        """
        import time as _time

        deadline = _time.monotonic() + timeout
        missing = set(names)
        while missing:
            if _time.monotonic() > deadline:
                raise TransportError(
                    f"edges {sorted(missing)} behind relay {relay!r} did not "
                    f"answer within {timeout}s"
                )
            self.sync()
            for _ in range(len(missing) + 1):
                try:
                    response = self.deploy.range_query(relay, table)
                except TransportError:
                    _time.sleep(0.2)
                    break
                missing.discard(response.edge_name)
            else:
                continue

    def kill_relay(self, name: str) -> None:
        """SIGKILL the relay — its frame store dies with it; the
        central discovers the reset on its next send and the subtree's
        edges re-dial the (pinned) listen address until a replacement
        binds it."""
        self.relays[name].kill()
        central_handle = self.deploy.edges.get(name)
        if central_handle is not None:
            central_handle.registered.clear()

    def restart_relay(self, name: str) -> EdgeProcess:
        """Relaunch a (killed) relay on the same listen port, with the
        same launch options it was first given."""
        self.kill_relay(name)
        return self.launch_relay(name, **self.relay_opts.get(name, {}))

    def restart_storm(
        self,
        names: Sequence[str] | None = None,
        cycles: int = 1,
        seed: int = 0,
    ) -> list[str]:
        """Seeded SIGKILL/relaunch storm over the named relays.

        The relay-tier sibling of :meth:`Deployment.restart_storm`:
        the kill order is a pure function of ``seed``.  Waiting is the
        caller's job (:meth:`wait_for_edges` probes the subtree the
        way it will be used), because a relay's readiness is only
        observable through its edges.

        Returns:
            The kill order actually applied, one entry per kill.
        """
        rng = random.Random(seed)
        targets = list(names) if names is not None else sorted(self.relays)
        order: list[str] = []
        for _ in range(max(0, cycles)):
            shuffled = list(targets)
            rng.shuffle(shuffled)
            for name in shuffled:
                self.restart_relay(name)
                order.append(name)
        return order

    def kill_edge(self, name: str) -> None:
        """SIGKILL a downstream edge process."""
        self.edge_procs[name].kill()

    def restart_edge(self, name: str) -> EdgeProcess:
        """Relaunch a (killed) edge under the same name and relay."""
        self.kill_edge(name)
        return self.launch_edge(name, self.edge_relay[name])

    # ------------------------------------------------------------------
    # Replication & queries
    # ------------------------------------------------------------------

    def sync(self, table: str | None = None, max_rounds: int = 16) -> int:
        """Propagate until the whole *tree* is current.

        The relay's cumulative acks carry min-cursor aggregates over
        its connected edges, so the central's ``_settled`` check — all
        connected peers current — is transitively a statement about the
        subtree.  The extra rounds (vs a flat deployment) cover the
        store-and-forward hop: one round lands frames on the relays,
        later rounds let the relays pump them down and the aggregate
        acks ride back.
        """
        return self.deploy.sync(table, max_rounds=max_rounds)

    def make_router(self, names: Sequence[str] | None = None, **kwargs):
        """A :class:`~repro.edge.router.VerifyingRouter` over the relay
        links: each channel queries one relay, which round-robins the
        request over its own connected edges.  A killed relay fails
        fast into router cooldown and its sibling serves — failover one
        tier up, verification still end-to-end."""
        return self.deploy.make_router(
            names=list(self.relays) if names is None else names, **kwargs
        )

    def range_query(self, relay: str, table: str, **kwargs):
        """Range query routed through ``relay`` to one of its edges."""
        return self.deploy.range_query(relay, table, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop edges, then relays, then the central listener."""
        for handles in (self.edge_procs, self.relays):
            _stop_all(list(handles.values()), timeout)
        self.deploy.shutdown(timeout=timeout)

    def __enter__(self) -> "RelayDeployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ShardedDeployment:
    """One listener per signer shard, one shared reactor, one machine.

    The multi-process face of
    :class:`~repro.edge.sharding.ShardedCentral`: every shard gets its
    own :class:`Deployment` (own TCP listener, own fan-out engine, own
    edge processes), while one shared
    :class:`~repro.edge.event_loop.EdgeEventLoop` serves all of them —
    N signer shards' worth of accepted links on one selector.  Each
    shard's handshake ``ConfigFrame`` carries the plane's versioned
    shard map plus that shard's id and public keys, so a registering
    edge (or a map-restoring router) learns the whole placement from
    any one shard.

    Args:
        sharded: The sharded central plane.
        host: Listen address for every shard listener.
        io_timeout / log_dir: As for :class:`Deployment`.
    """

    def __init__(
        self,
        sharded,
        host: str = "127.0.0.1",
        io_timeout: float = 10.0,
        log_dir: str | None = None,
    ) -> None:
        self.sharded = sharded
        self.reactor = EdgeEventLoop()
        self.deployments: list[Deployment] = [
            Deployment(
                shard,
                host=host,
                io_timeout=io_timeout,
                log_dir=log_dir,
                reactor=self.reactor,
                shard_map=sharded.shard_map,
            )
            for shard in sharded.shards
        ]

    def deployment(self, shard_id: int) -> Deployment:
        """The per-shard deployment (IndexError if unknown)."""
        return self.deployments[shard_id]

    def address(self, shard_id: int) -> tuple[str, int]:
        """The ``(host, port)`` edges of shard ``shard_id`` dial."""
        return self.deployments[shard_id].address

    def launch_edge(self, shard_id: int, name: str) -> EdgeProcess:
        """Start an edge process attached to shard ``shard_id``."""
        return self.deployments[shard_id].launch_edge(name)

    def wait_for_edge(
        self, shard_id: int, name: str, timeout: float = 30.0
    ) -> EdgeProcess:
        """Block until the edge has registered with its shard."""
        return self.deployments[shard_id].wait_for_edge(name, timeout=timeout)

    def sync(self) -> int:
        """Propagate every shard until its connected edges are current.

        Shards are share-nothing, so per-shard sync rounds compose
        without any cross-shard ordering concern.

        Returns:
            Total frames shipped across all shards.
        """
        return sum(deploy.sync() for deploy in self.deployments)

    def make_router(self, policy="round_robin", **kwargs):
        """A :class:`~repro.edge.router.ScatterGatherRouter` over every
        shard's TCP edge processes: per-shard verify-or-failover
        routers (each holding its own shard's public keys) composed
        with the plane's shard map."""
        routers = {
            shard_id: deploy.make_router(policy=policy, **kwargs)
            for shard_id, deploy in enumerate(self.deployments)
        }
        return self.sharded.make_sharded_router(routers)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Shut down every shard deployment, then the shared reactor."""
        for deploy in self.deployments:
            deploy.shutdown(timeout=timeout)
        self.reactor.close()

    def __enter__(self) -> "ShardedDeployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
