"""The committee lifecycle: generate once, redistribute forever (§4.2).

Orchard generated fresh keys for every query; Mycelium's genesis
committee generates the BGV key once and hands the Shamir shares from
committee to committee with extended VSR.  This demo runs several
queries across committee generations, shows that cross-epoch share
pooling is useless, and exercises a cheating dealer during a handoff.

Run:  python examples/committee_lifecycle.py
"""

import dataclasses
import random

from repro.core import committee as committee_mod
from repro.core.system import MyceliumSystem
from repro.crypto import bgv
from repro.params import SystemParameters, TEST
from repro.query.catalog import CATALOG
from repro.query.schema import scaled_schema
from repro.workloads.epidemic import run_epidemic
from repro.workloads.graphgen import generate_household_graph


def main() -> None:
    rng = random.Random(31)
    graph = generate_household_graph(
        14, degree_bound=3, rng=rng, external_contacts=1
    )
    run_epidemic(graph, rng)
    params = SystemParameters(
        num_devices=graph.num_vertices, degree_bound=3, hops=2,
        committee_size=3, replicas=2, forwarder_fraction=0.3,
    )
    system = MyceliumSystem.setup(
        num_devices=graph.num_vertices, rng=rng, params=params,
        schema=scaled_schema(), committee_size=3, committee_threshold=2,
        total_epsilon=10.0,
    )
    print(
        "genesis done: one BGV key pair, Shamir-shared to committee "
        f"{[m.device_id for m in system.committee.members]}"
    )

    # Three queries, rotating the committee in between each.
    old_committee = system.committee
    for i in range(3):
        result = system.run_query(
            CATALOG["Q5"], graph, epsilon=1.0, rotate=True
        )
        print(
            f"query {i + 1}: epoch {result.metadata.committee_epoch} "
            f"decrypted; rotated to "
            f"{[m.device_id for m in system.committee.members]} "
            f"(epoch {system.committee.epoch})"
        )

    # Cross-epoch shares do not combine.
    ct = bgv.encrypt_monomial(system.public_key, 3, rng)
    mixed = dataclasses.replace(
        old_committee,
        members=[old_committee.members[0], system.committee.members[1]],
    )
    garbage, _ = committee_mod.threshold_decrypt(mixed, ct, rng)
    print(
        "\nmixing an epoch-0 share with a current share decrypts "
        f"garbage: {sum(1 for c in garbage.coeffs if c)} of {TEST.n} "
        "coefficients non-zero (expected: a valid decryption has 1)"
    )

    # A cheating dealer during VSR is detected and excluded.
    before = system.committee
    system.rotate_committee(
        corrupt_dealers={before.members[0].device_id}
    )
    check = bgv.encrypt_monomial(system.public_key, 9, rng)
    plain, _ = committee_mod.threshold_decrypt(system.committee, check, rng)
    print(
        "rotation with a cheating dealer: Feldman checks excluded it; "
        f"new committee still decrypts correctly: "
        f"{plain.coeffs[9] == 1}"
    )
    print(f"\nbudget after the study: {system.budget.remaining:.1f} left")


if __name__ == "__main__":
    main()
