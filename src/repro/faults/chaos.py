"""One faulted query over the real mix network.

``repro chaos`` and the audit's ``mixnet`` trial both run it: a seeded
epidemic workload on a mixnet world, a deployment, and a
:class:`~repro.faults.plan.FaultPlan` of churn and wire faults that
starts once the telescoped paths exist (the §3.4 steady state).  The
released histogram is compared with the *degraded* plaintext oracle —
the answer the devices the recovery report kept should produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.results import QueryResult
from repro.core.system import MyceliumSystem
from repro.engine import histogram as histogram_mod
from repro.engine.plaintext import aggregate_coefficients
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.mixnet.network import MixnetWorld
from repro.params import SystemParameters
from repro.query.schema import scaled_schema
from repro.workloads.epidemic import build_campaign_graph
from repro.workloads.graphgen import ContactGraph

CHAOS_QUERY = "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf"

#: C-rounds the fault plan spans after its first faulted round.
HORIZON_ROUNDS = 96


@dataclass
class ChaosQuery:
    """A built chaos deployment, ready to run :data:`CHAOS_QUERY`."""

    graph: ContactGraph
    system: MyceliumSystem
    world: MixnetWorld
    #: The first C-round that may carry a fault.
    fault_start: int
    epsilon: float

    @classmethod
    def build(
        cls,
        people: int,
        failure: float,
        seed: int,
        epsilon: float = 1.0,
        committee_outage: bool = False,
    ) -> ChaosQuery:
        """Build the world, the system and the fault plan from ``seed``.

        ``failure`` in [0, 1] is split across churn and the wire drop,
        delay and corrupt rates.  ``committee_outage`` takes one more
        committee member away than the committee can spare, for the
        plan's horizon, which forces the §6.5 quorum wait.
        """
        rng = random.Random(seed)
        graph = build_campaign_graph(people, 2, rng)
        params = SystemParameters(
            num_devices=graph.num_vertices, hops=2, replicas=2,
            forwarder_fraction=0.45, degree_bound=2, pseudonyms_per_device=2,
            churn_fraction=min(0.9, failure),
        )
        world = MixnetWorld(
            params, num_devices=graph.num_vertices, rng=rng, rsa_bits=512,
            pseudonyms_per_device=2,
        )
        system = MyceliumSystem.setup(
            num_devices=graph.num_vertices, rng=rng, params=params,
            schema=scaled_schema(), committee_size=3, committee_threshold=2,
            total_epsilon=max(10.0, epsilon),
        )
        # Path setup stays fault-free; chaos starts once circuits exist.
        fault_start = params.telescoping_crounds + 4
        plan = FaultPlan.generate(
            seed=seed,
            num_devices=graph.num_vertices,
            churn_fraction=failure / 2,
            churn_window_rounds=4,
            horizon_rounds=HORIZON_ROUNDS,
            start_round=fault_start,
            wire_drop_rate=failure / 2,
            wire_delay_rate=failure / 4,
            wire_corrupt_rate=failure / 4,
            wire_fault_start=fault_start,
        )
        if committee_outage:
            committee = system.committee
            plan = plan.with_absence(
                [m.device_id for m in committee.members][
                    : committee.size - committee.threshold + 1
                ],
                fault_start,
                fault_start + HORIZON_ROUNDS,
                FaultKind.COMMITTEE_DROPOUT,
            )
        FaultInjector(plan).attach(world)
        return cls(graph, system, world, fault_start, epsilon)

    def run(self) -> tuple[QueryResult, list[list[int]], list[list[int]]]:
        """Run the query noiselessly over the faulted world.

        Returns the result, its released counts and the degraded
        oracle's counts; a typed :mod:`repro.errors` failure propagates.
        """
        result = self.system.run_query(
            CHAOS_QUERY, self.graph, epsilon=self.epsilon, noiseless=True,
            world=self.world,
        )
        report = result.metadata.recovery
        plan = self.system.compile(CHAOS_QUERY)
        expected, _ = aggregate_coefficients(
            plan,
            self.graph,
            skipped_origins=report.skipped_origins,
            defaulted=report.defaulted_by_origin,
        )
        expected_counts = [
            [int(c) for c in g.counts]
            for g in histogram_mod.decode_histogram(expected, plan)
        ]
        got_counts = [[int(round(c)) for c in g.counts] for g in result.groups]
        return result, got_counts, expected_counts
