"""The standing battery, asserted (DESIGN.md §14).

Every named scenario must complete with **zero unverified results**,
quarantine any tamper it schedules, and converge to post-storm cursor
parity (the orchestrator raises if settle fails, so a returned report
is itself the parity proof).  Telemetry's ``*.unexpected`` counters
must stay silent throughout — a storm exercises the *expected* error
paths; anything routed to an unexpected-counter is a swallowed bug.
Each scenario's replication traffic must also match its pinned
fingerprint (``FINGERPRINTS``), the byte-parity oracle for the
delivery and settle path.
"""

import hashlib
from collections import defaultdict

import pytest

from repro.chaos.scenarios import SCENARIOS
from repro.edge import telemetry
from repro.edge.transport import Transport

#: Frame kinds that travel on replication links (query requests and
#: responses — ``query`` / ``payload`` — are left out: the fingerprints
#: pin replication traffic, not the load generator's).
REPLICATION_KINDS = frozenset({"snapshot", "delta", "ack", "control"})

#: Seed-0 replication fingerprint per scenario: one SHA-256 over every
#: replication link's ``(peer, kind, nbytes)`` transfer sequence — the
#: five flat fleets' central→edge links and the relay harness's
#: central→relay and relay→edge links.  Every scenario is deterministic
#: at a fixed seed, so these bytes record the fan-out engine's
#: decisions: what it ships, when it probes, when it forgets optimism
#: and resends.  A refactor of the delivery or settle path that claims
#: "no behaviour change" must leave every hash untouched; a change that
#: means to alter the traffic updates the table and says why.  The
#: hashes must not depend on ``PYTHONHASHSEED`` (CI reruns the
#: fingerprint test with ``PYTHONHASHSEED=1``): every sequence is taken
#: in event order and the links are hashed in sorted order.
FINGERPRINTS = {
    "byzantine_edges": (
        "cf74cbde4cc49471cecc631050b856f1"
        "e970ceee06b85c28af161105b7606b9b"
    ),
    "combined_storm": (
        "7e773c07488a54d73b704b81e51f01bf"
        "018888ae2c57b95b394d6b230138e75a"
    ),
    "network_flaps": (
        "b075f1ed75d5cfc233c6de6f8edd1160"
        "b680e74ff90be4d9245c9155e81927b8"
    ),
    "relay_storm": (
        "1382e9b8797e5dd70c29be58c52153d0"
        "dc24db26350c6f21b51525662b8affac"
    ),
    "rotation_mid_partition": (
        "29421a8834c4fb6d4afdd069b23b3bb4"
        "d39caeee20a4fab2c218f8b19563d14d"
    ),
    "slow_links": (
        "9d48bc2d9e1415ad416039df493810a7"
        "384bba4fdcb2ebcccba4d9a9608565c5"
    ),
}


def _metered(record, links):
    """Wrap a :class:`~repro.edge.transport.Transport` metering hook so
    every replication transfer is also appended to its peer's
    sequence in ``links`` for the scenario being run."""

    def metered(self, data, frame):
        transfer = record(self, data, frame)
        if transfer.kind in REPLICATION_KINDS:
            links[self.name].append((transfer.kind, transfer.nbytes))
        return transfer

    return metered


def _fingerprint(links) -> str:
    digest = hashlib.sha256()
    for peer in sorted(links):
        for kind, nbytes in links[peer]:
            digest.update(f"{peer}:{kind}:{nbytes}\n".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def battery():
    """Run every scenario once (cached for all assertions below),
    with the unexpected-error telemetry watched across the whole
    battery and each scenario's replication links fingerprinted.

    Metering is tapped at the :class:`~repro.edge.transport.Transport`
    base class, which every medium records through, so a link that is
    replaced mid-run (an edge kill, a relay kill) keeps appending to
    its peer's sequence."""
    telemetry.reset()
    reports, fingerprints = {}, {}
    with pytest.MonkeyPatch.context() as patch:
        for name, fn in SCENARIOS.items():
            links: dict[str, list] = defaultdict(list)
            for hook in ("_record_send", "_record_reply"):
                patch.setattr(
                    Transport, hook, _metered(getattr(Transport, hook), links)
                )
            reports[name] = fn(seed=0)
            patch.undo()
            fingerprints[name] = _fingerprint(links)
    unexpected = telemetry.unexpected_total()
    return reports, unexpected, fingerprints


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_zero_unverified_results(battery, name):
    """The paper's invariant under storm: the caller never sees an
    unverified result, whatever the weather."""
    reports, _, _ = battery
    report = reports[name]
    assert report.unverified == 0, (
        f"{name}: {report.unverified} unverified results "
        f"(plan: {report.plan_bytes!r})"
    )
    assert report.ok


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_storm_served_queries(battery, name):
    """A battery that answered nothing proves nothing: every scenario
    must actually serve verified results under its storm."""
    reports, _, _ = battery
    assert reports[name].verified > 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_replayable_from_plan_bytes(battery, name):
    """Each report carries its replay evidence: canonical plan bytes
    and the applied-fault trace."""
    from repro.chaos.plan import FaultPlan

    reports, _, _ = battery
    report = reports[name]
    plan = FaultPlan.from_bytes(report.plan_bytes)
    assert plan.to_bytes() == report.plan_bytes


def test_tamper_always_quarantined(battery):
    """Byzantine scenarios detect and quarantine every tampered edge;
    detection latency is finite and counted."""
    reports, _, _ = battery
    for name in ("byzantine_edges", "combined_storm"):
        report = reports[name]
        assert report.rejections > 0, f"{name}: tamper never rejected"
        assert report.detection_queries > 0, (
            f"{name}: tampered but never detected"
        )
        assert report.quarantined, f"{name}: nothing quarantined"


def test_clean_scenarios_reject_nothing(battery):
    """Fault storms without tamper must not trip the verifier — a
    partition or a slow link is not a forgery."""
    reports, _, _ = battery
    for name in ("network_flaps", "slow_links", "rotation_mid_partition"):
        report = reports[name]
        assert report.rejections == 0
        assert report.detection_queries == 0  # no tamper scheduled
        assert not report.quarantined


def test_relay_storm_exercises_store_bounds(battery):
    """The relay storm must actually trip the byte-cap eviction path
    *and* the snapshot-covers-chain compaction path — otherwise the
    bounded store rides along untested."""
    reports, _, _ = battery
    summary = reports["relay_storm"].load_summary
    assert summary["store_evictions"] > 0
    assert summary["compacted_frames"] > 0


def test_recovery_counted(battery):
    """Post-storm convergence took at least one settle pump and was
    reached (settle raises otherwise — the report existing is the
    parity proof)."""
    reports, _, _ = battery
    for name, report in reports.items():
        assert report.recovery_pumps >= 1, name


def test_no_unexpected_swallows_across_battery(battery):
    """Storms exercise expected error paths (handshake drops, stale
    epochs); the ``*.unexpected`` telemetry must stay at zero — any
    hit is a silently-swallowed bug surfacing."""
    _, unexpected, _ = battery
    assert unexpected == 0, telemetry.counters()


def test_every_scenario_is_fingerprinted():
    assert sorted(FINGERPRINTS) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_replication_bytes_match_pinned_fingerprint(battery, name):
    """Byte-parity oracle for the replication delivery and settle
    path: the scenario's per-link traffic hashes to its pinned value."""
    _, _, fingerprints = battery
    assert fingerprints[name] == FINGERPRINTS[name]
