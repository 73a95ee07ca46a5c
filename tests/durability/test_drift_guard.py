"""Drift guard: the direct path and the campaign path release the same
thing, because they are the same phase methods (ROADMAP 6a, first slice).

``run_query`` is the in-order composition of the phase methods the
campaign journals one at a time, and both assemble ``QueryMetadata``
through ``MyceliumSystem.query_metadata``.  Same master seed, same
catalog query, same epsilon ⇒ the serialized releases are equal field
for field: committee noise is a function of members and epoch, and
homomorphic sums are exact, so the differing encryption randomness
cannot show.
"""

from __future__ import annotations

import dataclasses

from repro.core.system import MyceliumSystem
from repro.durability import serialize
from repro.durability.campaign import CampaignConfig, CampaignRunner
from repro.engine.malicious import Behavior
from repro.params import SystemParameters, TEST
from repro.query.catalog import CATALOG
from repro.query.schema import scaled_schema
from repro.runtime import TaskFabric, derive_rng
from repro.workloads.epidemic import build_campaign_graph

MASTER = 23
QUERY = "Q5"
EPSILON = 0.5
PEOPLE = 8
DEGREE = 3


def campaign_config() -> CampaignConfig:
    return CampaignConfig(
        master_seed=MASTER,
        queries=((QUERY, EPSILON),),
        people=PEOPLE,
        degree=DEGREE,
        rotate_every=0,
    )


def direct_system() -> MyceliumSystem:
    """The deployment a campaign with :func:`campaign_config` builds."""
    return MyceliumSystem.setup(
        num_devices=PEOPLE,
        rng=derive_rng(MASTER, "setup"),
        profile=TEST,
        params=SystemParameters(
            num_devices=PEOPLE,
            degree_bound=DEGREE,
            hops=2,
            committee_size=3,
            replicas=2,
            forwarder_fraction=0.3,
        ),
        schema=scaled_schema(),
        committee_size=3,
        committee_threshold=2,
        total_epsilon=10.0,
    )


def campaign_graph():
    return build_campaign_graph(
        PEOPLE, DEGREE, derive_rng(MASTER, "workload")
    )


def test_direct_and_campaign_release_the_same_payload(tmp_path):
    direct = serialize.result_to_json(
        direct_system().run_query(CATALOG[QUERY], campaign_graph(), EPSILON)
    )
    campaign = CampaignRunner.start(
        campaign_config(), tmp_path, fsync=False
    ).run()
    (released,) = campaign.results
    assert released.keys() == direct.keys()
    for field in direct:
        if field != "metadata":
            assert released[field] == direct[field], field
    assert released["metadata"].keys() == direct["metadata"].keys()
    for field, value in direct["metadata"].items():
        assert released["metadata"][field] == value, field
    assert direct["metadata"]["noise_scale"] > 0  # noise was really drawn


def test_direct_path_names_the_forged_proof_origin():
    result = direct_system().run_query(
        CATALOG[QUERY],
        campaign_graph(),
        EPSILON,
        behaviors={2: Behavior.FORGED_PROOF},
    )
    assert result.metadata.byzantine_origins == (2,)
    assert result.metadata.rejected_origins == 1


def test_campaign_release_names_rejected_origins(tmp_path):
    """The campaign's release phase reports *which* origins the
    aggregator rejected, not only how many: it has no metadata assembly
    of its own to forget the field in."""
    runner = CampaignRunner.start(campaign_config(), tmp_path, fsync=False)
    runner._ensure_setup()
    ctx = {"text": QUERY, "epsilon": EPSILON}
    with TaskFabric() as fabric:
        for phase in (
            "compile", "charge", "rounds", "submit", "aggregate",
            "decrypt", "noise",
        ):
            getattr(runner, f"_phase_{phase}")(0, ctx, fabric)
        ctx["aggregation"] = dataclasses.replace(
            ctx["aggregation"], rejected=[5, 2]
        )
        data = runner._phase_release(0, ctx, fabric)
    metadata = data["result"]["metadata"]
    assert metadata["byzantine_origins"] == [2, 5]
    assert metadata["rejected_origins"] == 2
    assert runner.system.query_log[-1].byzantine_origins == (2, 5)
