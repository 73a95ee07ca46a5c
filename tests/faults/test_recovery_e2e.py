"""Recovery end to end: one seeded `run_query(world=...)` with churn,
a device crash, wire drops, *and* committee dropouts — the query still
returns the fault-free answer, and the RecoveryReport accounts for
every repair.

Everything here is deterministic: the world rng, the fault plan, and
every per-message verdict are seeded, so the whole scenario replays
bit-for-bit (see docs/RESILIENCE.md).
"""

import random

import pytest

from repro import telemetry
from repro.core.system import MyceliumSystem
from repro.engine.histogram import decode_histogram
from repro.engine.plaintext import aggregate_coefficients
from repro.errors import LivenessQuorumError
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.faults.injector import QUORUM_WAIT_LIMIT
from repro.mixnet import hopselect
from repro.mixnet.network import MixnetWorld
from repro.params import SystemParameters
from repro.query.schema import scaled_schema
from repro.workloads.epidemic import run_epidemic
from repro.workloads.graphgen import generate_household_graph

QUERY = "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf AND self.inf"
SEED = 29
#: The fault plan's own seed.  Which messages the wire faults hit decides
#: whether every loss is one bounded retransmission can repair; this
#: plan's are, for the paths seed 29's world builds.
FAULT_SEED = 34
#: The C-round the committee's dropouts end.  The query's communication
#: ends at C-round 43, so the committee waits three rounds to open.
DROPOUT_END = 46


def _build_graph(seed):
    rng = random.Random(seed)
    graph = generate_household_graph(
        10, degree_bound=2, rng=rng, external_contacts=1
    )
    run_epidemic(graph, rng)
    for u in range(graph.num_vertices):
        for v in graph.neighbors(u):
            edge = graph.edge(u, v)
            edge["duration"] = min(edge["duration"], 20)
            edge["contacts"] = min(edge["contacts"], 8)
    return graph, rng


@pytest.fixture(scope="module")
def scenario():
    graph, rng = _build_graph(SEED)
    infected = [
        v
        for v in range(graph.num_vertices)
        if graph.vertex_attrs[v].get("inf", 0)
    ]
    assert infected and len(infected) < graph.num_vertices
    # Crash a healthy device that neighbors an infected one: its
    # Enc(x^0) default is value-neutral (it would contribute exponent 0
    # anyway), so the degraded answer *is* the fault-free answer — the
    # test can demand exact recovery.  Same reason infected devices are
    # protected from churn.
    victim = next(
        v
        for v in range(graph.num_vertices)
        if v not in infected
        and any(n in infected for n in graph.neighbors(v))
    )
    # forwarder_fraction keeps the victim out of the hop pool for this
    # seed (verified below): a crashed *forwarder* severs every path
    # through it for good, which no amount of retransmission can repair
    # — that harsher regime is the chaos suite's job, where the degraded
    # oracle is the bar.  Here the crash silences only the victim, so
    # the recovered answer must equal the fault-free one exactly.
    params = SystemParameters(
        num_devices=graph.num_vertices,
        hops=2,
        replicas=2,
        forwarder_fraction=0.2,
        degree_bound=2,
        pseudonyms_per_device=2,
        churn_fraction=0.15,
    )
    world = MixnetWorld(
        params,
        num_devices=graph.num_vertices,
        rng=rng,
        rsa_bits=512,
        pseudonyms_per_device=2,
    )
    slots = hopselect.forwarder_slots(
        world.beacon,
        params.hops,
        params.forwarder_fraction,
        graph.num_vertices * 2,
    )
    forwarders = {
        world.handle_owner[world.verified_lookup(i).leaf.handle]
        for i in slots
    }
    assert victim not in forwarders
    system = MyceliumSystem.setup(
        num_devices=graph.num_vertices,
        rng=rng,
        params=params,
        schema=scaled_schema(),
        committee_size=3,
        committee_threshold=2,
        total_epsilon=100.0,
    )
    members = [m.device_id for m in system.committee.members]
    # One more member away than the committee can spare, over the open
    # round: the committee must wait for them (§6.5).
    dropouts = members[: system.committee.size - system.committee.threshold + 1]
    fault_start = params.telescoping_crounds + 4
    plan = FaultPlan.generate(
        seed=FAULT_SEED,
        num_devices=graph.num_vertices,
        churn_fraction=0.15,
        churn_window_rounds=4,
        horizon_rounds=80,
        start_round=fault_start,
        protected_devices=tuple(infected),
        crash_devices=(victim,),
        crash_round=fault_start,
        wire_drop_rate=0.08,
        wire_delay_rate=0.04,
        wire_fault_start=fault_start,
    ).with_absence(
        dropouts, fault_start, DROPOUT_END, FaultKind.COMMITTEE_DROPOUT
    )
    injector = FaultInjector(plan).attach(world)
    telemetry.enable()
    try:
        result = system.run_query(
            QUERY, graph, epsilon=1.0, noiseless=True, world=world
        )
        snapshot = telemetry.active().snapshot()
    finally:
        telemetry.disable()
    return {
        "graph": graph,
        "system": system,
        "victim": victim,
        "injector": injector,
        "result": result,
        "snapshot": snapshot,
    }


class TestFaultsWereReal:
    def test_at_least_three_fault_kinds_fired(self, scenario):
        counts = scenario["injector"].fault_counts()
        for kind in (
            FaultKind.CRASH,
            FaultKind.WIRE_DROP,
            FaultKind.COMMITTEE_DROPOUT,
        ):
            assert counts.get(kind.value, 0) >= 1, counts
        assert scenario["result"].metadata.recovery.total_faults >= 3

    def test_report_carries_the_injected_counts(self, scenario):
        report = scenario["result"].metadata.recovery
        assert report.faults_injected == scenario["injector"].fault_counts()


class TestAnswerSurvives:
    def test_result_equals_fault_free_oracle(self, scenario):
        plan = scenario["system"].compile(QUERY)
        expected, _ = aggregate_coefficients(plan, scenario["graph"])
        expected_counts = [
            [int(c) for c in g.counts]
            for g in decode_histogram(expected, plan)
        ]
        got = [
            [int(round(c)) for c in g.counts]
            for g in scenario["result"].groups
        ]
        assert got == expected_counts
        assert any(any(row) for row in got)  # a non-trivial answer

    def test_result_equals_degraded_oracle(self, scenario):
        """The stronger invariant: replaying the RecoveryReport against
        the plaintext executor reproduces the released answer exactly."""
        plan = scenario["system"].compile(QUERY)
        report = scenario["result"].metadata.recovery
        expected, _ = aggregate_coefficients(
            plan,
            scenario["graph"],
            skipped_origins=report.skipped_origins,
            defaulted=report.defaulted_by_origin,
        )
        expected_counts = [
            [int(c) for c in g.counts]
            for g in decode_histogram(expected, plan)
        ]
        got = [
            [int(round(c)) for c in g.counts]
            for g in scenario["result"].groups
        ]
        assert got == expected_counts


class TestEveryRecoveryLayerFired:
    def test_retransmissions_and_failovers(self, scenario):
        report = scenario["result"].metadata.recovery
        assert report.retransmissions >= 1
        assert report.failovers >= 1

    def test_crashed_device_was_defaulted(self, scenario):
        report = scenario["result"].metadata.recovery
        assert report.defaulted_pairs >= 1
        assert scenario["victim"] in report.defaulted_devices

    def test_committee_liveness_retry(self, scenario):
        """§6.5: two of the three members are away over the open round
        and the third crashed with the victim, so the committee waits
        for the two to come back and opens with them alone."""
        report = scenario["result"].metadata.recovery
        assert scenario["victim"] in [
            m.device_id for m in scenario["system"].committee.members
        ]
        assert report.quorum_wait_rounds == 3

    def test_complaints_surfaced(self, scenario):
        report = scenario["result"].metadata.recovery
        assert scenario["result"].metadata.complaints == len(report.complaints)
        assert len(report.complaints) >= 1
        assert any("deposit-dropped" in c for c in report.complaints)

    def test_report_summary_mentions_each_layer(self, scenario):
        summary = scenario["result"].metadata.recovery.summary()
        for needle in (
            "retransmissions",
            "failovers",
            "quorum wait rounds",
            "complaints",
        ):
            assert needle in summary


class TestRecoveryTelemetry:
    def test_every_recovery_metric_was_emitted(self, scenario):
        counters = scenario["snapshot"]["counters"]
        for name in (
            "faults.injected.total",
            "faults.churn.offline",
            "faults.wire.dropped",
            "faults.committee.dropouts",
            "mixnet.retransmissions.total",
            "mixnet.failovers.total",
            "durability.monitor.quorum_wait_rounds",
            "engine.defaults.total",
            "query.complaints.observed",
        ):
            assert counters.get(name, 0) >= 1, name

    def test_reliable_send_span_recorded(self, scenario):
        assert "mixnet.send_reliable" in scenario["snapshot"]["spans"]


def test_crashed_members_never_open():
    """Two of three committee members crash for good: no quorum ever
    returns, so the wait ends in the typed liveness error at its bound
    instead of a release decrypted by the dead."""
    graph, rng = _build_graph(SEED)
    params = SystemParameters(
        num_devices=graph.num_vertices,
        hops=2,
        replicas=2,
        forwarder_fraction=0.2,
        degree_bound=2,
        pseudonyms_per_device=2,
    )
    world = MixnetWorld(
        params,
        num_devices=graph.num_vertices,
        rng=rng,
        rsa_bits=512,
        pseudonyms_per_device=2,
    )
    system = MyceliumSystem.setup(
        num_devices=graph.num_vertices,
        rng=rng,
        params=params,
        schema=scaled_schema(),
        committee_size=3,
        committee_threshold=2,
        total_epsilon=100.0,
    )
    members = [m.device_id for m in system.committee.members]
    FaultInjector(
        FaultPlan.generate(
            seed=FAULT_SEED,
            num_devices=graph.num_vertices,
            crash_devices=tuple(members[:2]),
            crash_round=0,
        )
    ).attach(world)
    telemetry.enable()
    try:
        with pytest.raises(LivenessQuorumError):
            system.run_query(
                QUERY, graph, epsilon=1.0, noiseless=True, world=world
            )
        counters = telemetry.active().snapshot()["counters"]
    finally:
        telemetry.disable()
    assert counters["durability.monitor.pings"] == 3 * (QUORUM_WAIT_LIMIT + 1)
    assert "committee.decrypt.partials" not in counters
