"""The chaos property (docs/RESILIENCE.md): under *any* seeded fault
plan, a query either completes with the answer the degraded plaintext
oracle predicts from its own RecoveryReport, or fails with a typed
MyceliumError — never a wrong answer, never a hang.

Unlike the tier-1 e2e test, faults here start at C-round 0, so even
telescoping path setup runs under fire.  Opt-in: `make chaos`.
"""

import random

import pytest

from repro.core.system import MyceliumSystem
from repro.engine.histogram import decode_histogram
from repro.engine.plaintext import aggregate_coefficients
from repro.errors import MyceliumError
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.mixnet.network import MixnetWorld
from repro.params import SystemParameters
from repro.query.schema import scaled_schema
from repro.workloads.epidemic import run_epidemic
from repro.workloads.graphgen import generate_household_graph

pytestmark = pytest.mark.chaos

QUERY = "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf"

#: No faulted run may consume more than this many C-rounds: recovery is
#: *bounded* (attempt budgets, not infinite retry), so the clock is too.
ROUND_CAP = 400


def run_chaos(seed: int, failure: float, fault_start: int = 0):
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
    params = SystemParameters(
        num_devices=graph.num_vertices,
        hops=2,
        replicas=2,
        forwarder_fraction=0.45,
        degree_bound=2,
        pseudonyms_per_device=2,
        churn_fraction=min(0.9, failure),
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
    plan = FaultPlan.generate(
        seed=seed,
        num_devices=graph.num_vertices,
        churn_fraction=failure / 2,
        churn_window_rounds=4,
        horizon_rounds=ROUND_CAP,
        start_round=fault_start,
        wire_drop_rate=failure / 2,
        wire_delay_rate=failure / 4,
        wire_corrupt_rate=failure / 4,
        wire_fault_start=fault_start,
    ).with_absence(
        members[:1], fault_start, ROUND_CAP, FaultKind.COMMITTEE_DROPOUT
    )
    FaultInjector(plan).attach(world)
    result = system.run_query(
        QUERY, graph, epsilon=1.0, noiseless=True, world=world
    )
    return system, graph, world, result


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("failure", [0.08, 0.3])
def test_degraded_answer_or_typed_error(seed, failure):
    try:
        system, graph, world, result = run_chaos(seed, failure)
    except MyceliumError:
        return  # a typed, diagnosable failure is an allowed outcome
    assert world.current_round <= ROUND_CAP
    report = result.metadata.recovery
    plan = system.compile(QUERY)
    expected, _ = aggregate_coefficients(
        plan,
        graph,
        skipped_origins=report.skipped_origins,
        defaulted=report.defaulted_by_origin,
    )
    expected_counts = [
        [int(c) for c in g.counts] for g in decode_histogram(expected, plan)
    ]
    got = [[int(round(c)) for c in g.counts] for g in result.groups]
    assert got == expected_counts


def test_same_seed_same_outcome():
    """Chaos runs replay bit-for-bit: same seed, same faults, same
    report, same histogram."""

    def outcome():
        try:
            _, _, _, result = run_chaos(11, 0.2, fault_start=12)
        except MyceliumError as exc:
            return type(exc).__name__
        report = result.metadata.recovery
        return (
            [[int(round(c)) for c in g.counts] for g in result.groups],
            report.faults_injected,
            report.retransmissions,
            report.failovers,
            report.skipped_origins,
            report.defaulted_by_origin,
            report.complaints,
        )

    assert outcome() == outcome()
