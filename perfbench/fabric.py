"""Build, drive and tear down the measured fabric through the public API.

A fabric is one central server, its edge fleet and a round-robin
``VerifyingRouter`` over the fleet: in-process edges for
``read_zipf``/``write_fanout``, edge processes behind a reactor
``Deployment`` for ``mixed_tcp``.  Every knob that changes the measured
path is pinned here rather than left to defaults or the environment.
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
import time
from collections import Counter
from dataclasses import dataclass

from repro.edge.central import CentralServer, ReplicationMode
from repro.edge.deploy import Deployment
from repro.workloads.generator import TableSpec, generate_table

from workload import (
    ATTR_SIZE,
    COLUMNS,
    FANOUT,
    FANOUT_WINDOW,
    FANOUT_WORKERS,
    IO_MODE,
    KEY_STEP,
    ROUTER_POLICY,
    ROWS,
    RSA_BITS,
    TABLE,
    Seeds,
    Workload,
)

#: Deadline for an edge process to register (cold interpreter start).
EDGE_REGISTER_TIMEOUT = 60.0


@dataclass(frozen=True)
class SetupTimes:
    """Wall-clock seconds of one cold start.

    Attributes:
        total: Key generation through a routed, servable fleet.
        build: Table generation and the bulk VB-tree build.
        bootstrap: Edge bootstrap (in-process fleet, or launch +
            handshake + sync of the edge processes) and router set-up.
    """

    total: float
    build: float
    bootstrap: float


class Fabric:
    """One built deployment and the calls the benchmark times."""

    def __init__(self, central, router, edges, deployment, log_dir):
        self.central = central
        self.router = router
        #: In-process edge servers by name (empty over TCP).
        self.edges = {edge.name: edge for edge in edges}
        self.deployment = deployment
        self.log_dir = log_dir
        self.names = sorted(central.fanout.peers)
        self.sig_len = central.public_key.signature_len

    @property
    def reactor(self):
        return self.deployment.reactor if self.deployment is not None else None

    def read(self, low: int, high: int):
        """One verified range read: returns on an ACCEPT verdict."""
        return self.router.range_query(TABLE, low=low, high=high)

    def write(self, op: tuple) -> None:
        """One signed write, returning once every edge can serve it.

        In-process edges apply the delta before ``insert``/``delete``
        returns (eager fan-out); over TCP the write is followed by
        ``Deployment.sync()``, which returns at cursor parity.
        """
        kind, key, row = op
        if kind == "insert":
            self.central.insert(TABLE, row)
        else:
            self.central.delete(TABLE, key)
        if self.deployment is not None:
            self.deployment.sync(TABLE)

    def visible(self) -> bool:
        """True when every edge's acknowledged cursor is at the log head."""
        fanout = self.central.fanout
        return all(fanout.staleness(name, TABLE) == 0 for name in self.names)

    def snapshot_bytes(self) -> int:
        """Snapshot bytes shipped so far, summed over the fleet."""
        return sum(
            peer["bytes_by_kind"].get("snapshot", 0)
            for peer in self.central.fanout.stats().values()
        )

    def close(self, keep_logs: bool = False) -> None:
        """Stop every edge process and release sockets and logs."""
        if self.deployment is None:
            return
        try:
            self.deployment.shutdown()
        finally:
            for handle in self.deployment.edges.values():
                proc = handle.process
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    try:
                        proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        pass
            if not keep_logs:
                shutil.rmtree(self.log_dir, ignore_errors=True)


def build(
    workload: Workload,
    seeds: Seeds,
    work_dir: str,
    router_edges: int | None = None,
) -> tuple[Fabric, list, SetupTimes]:
    """Cold-start one fabric and time it.

    Args:
        workload: The traffic mix (fleet size, medium, ack cadence).
        seeds: Table and key seeds of the run.
        work_dir: Where edge-process logs go (a fresh temp dir inside).
        router_edges: Route over only the first N edges (the tamper
            check's single-edge channel); default all.

    Returns:
        The fabric, the generated base rows, and the set-up times.
    """
    start = time.perf_counter()
    central = CentralServer(
        db_name="perfbench",
        rsa_bits=RSA_BITS,
        seed=seeds.key,
        replication=ReplicationMode.EAGER,
        fanout_window=FANOUT_WINDOW,
        fanout_workers=FANOUT_WORKERS,
        ack_every=workload.ack_every,
    )
    schema, rows = generate_table(
        TableSpec(
            name=TABLE,
            rows=ROWS,
            columns=COLUMNS,
            attr_size=ATTR_SIZE,
            key_step=KEY_STEP,
            seed=seeds.table,
        )
    )
    central.create_table(schema, rows, fanout_override=FANOUT)
    built = time.perf_counter()
    names = [f"edge-{i}" for i in range(workload.edges)]
    routed = names[:router_edges] if router_edges else names
    if workload.tcp:
        log_dir = tempfile.mkdtemp(prefix="edge-logs-", dir=work_dir)
        deployment = Deployment(central, io_mode=IO_MODE, log_dir=log_dir)
        fabric = Fabric(central, None, (), deployment, log_dir)
        try:
            for name in names:
                deployment.launch_edge(name)
            for name in names:
                deployment.wait_for_edge(
                    name, timeout=EDGE_REGISTER_TIMEOUT, sync=False
                )
            deployment.sync()
            fabric.router = deployment.make_router(routed, policy=ROUTER_POLICY)
        except BaseException:
            fabric.close(keep_logs=True)
            raise
        fabric.names = sorted(central.fanout.peers)
    else:
        edges = central.spawn_edge_fleet(names)
        router = central.make_router(
            edges=[e for e in edges if e.name in routed], policy=ROUTER_POLICY
        )
        fabric = Fabric(central, router, edges, None, None)
    done = time.perf_counter()
    times = SetupTimes(
        total=done - start, build=built - start, bootstrap=done - built
    )
    return fabric, rows, times


class Meters:
    """Cumulative exact counts read off the program's own meters.

    Sources: the replication links' byte channels (``bytes_by_kind``
    per transfer, via the fan-out engine's peers), the table's delta
    log, the verifying client's ``CostMeter`` and, over TCP, the
    reactor's syscall tallies.  :meth:`read` only scans what is new
    since the previous call, so per-op deltas stay cheap; it must run at
    least once per retained log length of writes (1024 by default).
    """

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self._seen: dict[int, int] = {}
        self._lsn = fabric.central.replicator.log_for(TABLE).last_lsn
        self._totals: Counter = Counter()

    def _scan(self, prefix: str, channel) -> None:
        transfers = channel.transfers
        start = self._seen.get(id(channel), 0)
        self._seen[id(channel)] = len(transfers)
        for t in transfers[start:]:
            self._totals[prefix + t.kind] += t.nbytes
            self._totals[prefix + t.kind + ".frames"] += 1

    def read(self) -> Counter:
        fabric = self.fabric
        for peer in list(fabric.central.fanout.peers.values()):
            self._scan("down.", peer.transport.down_channel)
            self._scan("up.", peer.transport.up_channel)
        log = fabric.central.replicator.log_for(TABLE)
        if log.last_lsn != self._lsn:
            self._totals["log.delta"] += sum(
                e.nbytes for e in log.entries_since(self._lsn)
            )
            self._lsn = log.last_lsn
        out = Counter(self._totals)
        meter = fabric.router.client.meter
        out["client.hashes"] = meter.hashes
        out["client.combines"] = meter.combines
        out["client.verifies"] = meter.verifies
        if fabric.reactor is not None:
            out["reactor.sendmsg"] = fabric.reactor.syscalls["sendmsg"]
            out["reactor.recv"] = fabric.reactor.syscalls["recv"]
        return out


def replication_egress(delta: Counter) -> int:
    """Central down-link bytes that are replication, not query, traffic."""
    return sum(
        v
        for k, v in delta.items()
        if k.startswith("down.") and not k.endswith(".frames")
        and k != "down.query"
    )
