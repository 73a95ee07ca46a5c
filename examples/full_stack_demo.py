"""The whole system at once: a private graph query over the real mixnet.

Everything the paper describes, in one run: verifiable directory and
audits, telescoping onion paths through the untrusted aggregator's
mailboxes, the query flooding to neighbors as onion payloads, BGV
contributions (with Groth16 well-formedness proofs) returning the same
way, origin-side homomorphic aggregation, aggregator-side proof
verification + relinearization + summation, committee threshold
decryption, and a differentially private release.

Run:  python examples/full_stack_demo.py   (takes ~10 s)
"""

import random

from repro.core import committee as committee_mod
from repro.core.aggregator import QueryAggregator
from repro.core.transport import MixnetTransport
from repro.crypto import bgv
from repro.crypto.zksnark import Groth16System
from repro.dp.laplace import add_noise
from repro.engine import histogram as histogram_mod
from repro.engine.plaintext import aggregate_coefficients
from repro.engine.zkcircuits import build_circuits
from repro.mixnet.network import MixnetWorld
from repro.params import SystemParameters, TEST
from repro.query import sensitivity
from repro.query.compiler import compile_query
from repro.query.parser import parse
from repro.query.schema import scaled_schema
from repro.workloads.epidemic import run_epidemic
from repro.workloads.graphgen import generate_household_graph

QUERY = "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf AND self.inf"


def main() -> None:
    rng = random.Random(91)

    # -- the population and its contact graph ---------------------------------
    graph = generate_household_graph(
        10, degree_bound=2, rng=rng, external_contacts=1
    )
    run_epidemic(graph, rng)
    infected = sum(a["inf"] for a in graph.vertex_attrs)
    print(
        f"population: {graph.num_vertices} devices, {graph.num_edges()} "
        f"edges, {infected} infected"
    )

    # -- mixnet world: directory, bulletin board, beacon ----------------------
    params = SystemParameters(
        num_devices=graph.num_vertices, hops=2, replicas=1,
        forwarder_fraction=0.45, degree_bound=2, pseudonyms_per_device=2,
    )
    world = MixnetWorld(
        params, num_devices=graph.num_vertices, rng=rng, rsa_bits=512,
        pseudonyms_per_device=2,
    )
    print(
        f"directory: {world.directory.num_slots} pseudonyms committed to "
        f"the bulletin board; audits pass: {world.run_audits()}"
    )

    # -- genesis: keys once, shares to the first committee --------------------
    secret, public = bgv.keygen(TEST, rng)
    relin = bgv.make_relin_keys(secret, 6, rng)
    zk = Groth16System.setup(build_circuits(), rng)
    committee = committee_mod.genesis_share_key(
        secret, member_ids=[2, 5, 8], threshold=2, rng=rng
    )
    print("genesis: BGV keys + Groth16 setup done; key Shamir-shared")

    # -- the query travels the mixnet ------------------------------------------
    plan = compile_query(
        parse(QUERY), SystemParameters(degree_bound=2), scaled_schema()
    )
    transport = MixnetTransport(
        world=world, graph=graph, plan=plan, public_key=public, zk=zk, rng=rng
    )
    submissions = transport.run()
    print(
        f"\nmixnet: {transport.crounds_used['telescoping']} C-rounds of "
        f"telescoping, {transport.crounds_used['query_flood']} of query "
        f"flood, {transport.crounds_used['responses']} of responses "
        f"(one-hour C-rounds -> "
        f"{sum(transport.crounds_used.values())} hours end to end)"
    )

    # -- aggregator: verify, relinearize, sum ----------------------------------
    aggregator = QueryAggregator(zk=zk, relin_keys=relin)
    aggregated = aggregator.aggregate(submissions)
    print(
        f"aggregator: {aggregated.proofs_verified} proofs verified, "
        f"{len(aggregated.accepted)} contributions summed, "
        f"{len(aggregated.rejected)} rejected"
    )

    # -- committee: threshold-decrypt and noise --------------------------------
    plaintext, _ = committee_mod.threshold_decrypt(
        committee, aggregated.ciphertext, rng
    )
    coefficients = list(plaintext.coeffs[: plan.layout.total_coefficients])
    scale = sensitivity.laplace_scale(plan, epsilon=1.0)
    released = add_noise([float(c) for c in coefficients], scale, rng)

    expected, _ = aggregate_coefficients(plan, graph)
    print(
        f"\ncommittee decryption matches ground truth exactly: "
        f"{coefficients == expected}"
    )
    print("released histogram (epsilon = 1.0):")
    for value, (true, noisy) in enumerate(zip(expected, released)):
        print(
            f"  {value} infected contacts: true {true}, released {noisy:+.2f}"
        )


if __name__ == "__main__":
    main()
