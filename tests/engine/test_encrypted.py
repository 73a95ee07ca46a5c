"""Encrypted engine vs plaintext oracle, including Byzantine devices and
dropouts (§4.3-§4.7)."""

import random

import pytest

from repro.core.aggregator import QueryAggregator
from repro.crypto import bgv, zksnark
from repro.engine import semantics
from repro.engine.encrypted import (
    EncryptedExecutor,
    leaf_max_exponent,
    leaf_randomness,
)
from repro.engine.malicious import Behavior
from repro.engine.plaintext import aggregate_coefficients
from repro.engine.zkcircuits import build_circuits
from repro.params import SystemParameters, TEST
from repro.query.catalog import CATALOG, all_queries
from repro.query.compiler import compile_query
from repro.query.parser import parse
from repro.query.schema import scaled_schema
from repro.runtime import TaskFabric, derive_rng
from tests.conftest import build_epidemic_graph

PARAMS = SystemParameters(degree_bound=3)
SCHEMA = scaled_schema()


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(99)
    secret, public = bgv.keygen(TEST, rng)
    relin = bgv.make_relin_keys(secret, 16, rng)
    zk = zksnark.Groth16System.setup(build_circuits(), rng)
    graph = build_epidemic_graph(seed=46, people=12, degree=3)
    return secret, public, relin, zk, graph


def decrypt_global(setup_data, plan, submissions):
    secret, public, relin, zk, graph = setup_data
    aggregator = QueryAggregator(zk=zk, relin_keys=relin)
    result = aggregator.aggregate(submissions)
    assert result.ciphertext is not None
    plaintext = bgv.decrypt(secret, result.ciphertext)
    coeffs = list(plaintext.coeffs[: plan.layout.total_coefficients])
    return coeffs, result


def run_encrypted(setup_data, text_or_entry, behaviors=None, offline=None):
    secret, public, relin, zk, graph = setup_data
    if isinstance(text_or_entry, str):
        plan = compile_query(parse(text_or_entry), PARAMS, SCHEMA)
    else:
        plan = text_or_entry.plan(PARAMS, SCHEMA)
    executor = EncryptedExecutor(plan, public, zk, random.Random(7))
    submissions = executor.run(graph, behaviors=behaviors, offline=offline)
    coeffs, result = decrypt_global(setup_data, plan, submissions)
    return plan, coeffs, result, executor.stats


class TestCatalogEquivalence:
    """Every catalog query decrypts to exactly the plaintext answer."""

    @pytest.mark.parametrize("entry", all_queries(), ids=lambda e: e.qid)
    def test_matches_plaintext(self, setup, entry):
        graph = setup[4]
        plan, coeffs, result, _ = run_encrypted(setup, entry)
        expected, _ = aggregate_coefficients(plan, graph)
        assert coeffs == expected
        assert not result.rejected


class TestHonestRunProperties:
    def test_all_origins_accepted(self, setup):
        graph = setup[4]
        _, _, result, _ = run_encrypted(
            setup, "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf"
        )
        assert result.num_accepted == graph.num_vertices

    def test_summation_tree_inclusion(self, setup):
        secret, public, relin, zk, graph = setup
        plan = compile_query(
            parse("SELECT HISTO(COUNT(*)) FROM neigh(1)"), PARAMS, SCHEMA
        )
        executor = EncryptedExecutor(plan, public, zk, random.Random(3))
        submissions = executor.run(graph)
        aggregator = QueryAggregator(zk=zk, relin_keys=relin)
        result = aggregator.aggregate(submissions)
        proof = aggregator.inclusion_proof(0)
        # A leaf is the ciphertext the device uploaded: it checks its
        # inclusion from its own bytes, without the relinearization keys.
        submitted = submissions[0].ciphertext
        assert submitted.degree > 1
        assert aggregator.verify_inclusion(0, submitted.digest(), proof)
        assert not aggregator.verify_inclusion(
            0, bgv.relinearize(submitted, relin).digest(), proof
        )

    def test_leaf_max_exponent(self, setup):
        plan = compile_query(
            parse(
                "SELECT GSUM(SUM(dest.inf)/COUNT(*)) FROM neigh(1) CLIP [0,1]"
            ),
            PARAMS,
            SCHEMA,
        )
        assert leaf_max_exponent(plan) == plan.layout.pair_base + 1


class TestByzantineDevices:
    """§4.6: malformed ciphertexts are rejected; in-range lies are not."""

    @pytest.mark.parametrize(
        "behavior",
        [
            Behavior.OVERSIZED_EXPONENT,
            Behavior.MULTI_COEFFICIENT,
            Behavior.LARGE_COEFFICIENT,
            Behavior.FORGED_PROOF,
        ],
    )
    def test_malformed_leaves_filtered(self, setup, behavior):
        """A Byzantine *neighbor* is neutralized: the origin replaces its
        contribution with Enc(x^0), so results equal a graph where the
        attacker reports nothing."""
        graph = setup[4]
        attacker = 0
        plan, coeffs, result, stats = run_encrypted(
            setup,
            "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf",
            behaviors={attacker: behavior},
        )
        assert stats.origin_filtered_leaves > 0
        # Equivalent plaintext: attacker's indicator zeroed for others'
        # queries.  Its own origin submission stays honest except under
        # FORGED_PROOF, where the attacker forges *all* its proofs and
        # the aggregator rejects its origin contribution too.
        attacker_origin_rejected = behavior is Behavior.FORGED_PROOF
        mutated = build_epidemic_graph(seed=46, people=12, degree=3)
        saved = dict(mutated.vertex_attrs[attacker])
        expected = [0] * plan.layout.total_coefficients
        for origin in range(mutated.num_vertices):
            if origin == attacker:
                if attacker_origin_rejected:
                    continue
                mutated.vertex_attrs[attacker].update(saved)
            else:
                mutated.vertex_attrs[attacker].update(
                    {"inf": 0, "tInf": 0, "tInfec": 0}
                )
            from repro.engine.semantics import local_exponents

            for exponent in local_exponents(plan, mutated, origin):
                expected[exponent] += 1
        mutated.vertex_attrs[attacker].update(saved)
        if attacker_origin_rejected:
            assert result.rejected == [attacker]
        assert coeffs == expected

    def test_bad_aggregation_rejected(self, setup):
        graph = setup[4]
        _, coeffs, result, _ = run_encrypted(
            setup,
            "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf",
            behaviors={2: Behavior.BAD_AGGREGATION},
        )
        assert 2 in result.rejected
        assert result.num_accepted == graph.num_vertices - 1

    def test_lie_in_range_accepted_with_bounded_impact(self, setup):
        graph = setup[4]
        plan, honest_coeffs, _, _ = run_encrypted(
            setup, "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf"
        )
        _, lied_coeffs, result, _ = run_encrypted(
            setup,
            "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf",
            behaviors={0: Behavior.LIE_IN_RANGE},
        )
        assert not result.rejected  # undetectable by design
        # Impact bounded: total mass unchanged; L1 shift bounded by
        # 2 * (neighbors of the liar) (each affected origin moves bins).
        assert sum(lied_coeffs) == sum(honest_coeffs)
        l1 = sum(abs(a - b) for a, b in zip(lied_coeffs, honest_coeffs))
        assert l1 <= 2 * (graph.degree(0) + 1)

    def test_drop_message_neutral(self, setup):
        graph = setup[4]
        plan, coeffs, result, _ = run_encrypted(
            setup,
            "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf",
            behaviors={1: Behavior.DROP_MESSAGE},
        )
        assert not result.rejected
        # Same as the attacker being offline for others' aggregations.
        mutated = build_epidemic_graph(seed=46, people=12, degree=3)
        from repro.engine.semantics import local_exponents

        saved = dict(mutated.vertex_attrs[1])
        expected = [0] * plan.layout.total_coefficients
        for origin in range(mutated.num_vertices):
            if origin == 1:
                mutated.vertex_attrs[1].update(saved)
            else:
                mutated.vertex_attrs[1].update({"inf": 0, "tInf": 0, "tInfec": 0})
            for exponent in local_exponents(plan, mutated, origin):
                expected[exponent] += 1
        assert coeffs == expected

    def test_offline_origin_missing(self, setup):
        graph = setup[4]
        _, _, result, _ = run_encrypted(
            setup,
            "SELECT HISTO(COUNT(*)) FROM neigh(1)",
            offline={3, 4},
        )
        assert result.num_accepted == graph.num_vertices - 2

    def test_multihop_byzantine_leaf_filtered(self, setup):
        _, coeffs, result, stats = run_encrypted(
            setup,
            "SELECT HISTO(COUNT(*)) FROM neigh(2) WHERE dest.inf",
            behaviors={5: Behavior.FORGED_PROOF},
        )
        assert stats.origin_filtered_leaves > 0
        assert sum(coeffs) > 0


class TestLeafRandomness:
    """Each leaf's encryption randomness is entry ``index`` of its
    origin's ``(master_seed, "origin", origin, "leaf-enc", index)``
    chain, whatever the worker count."""

    MASTER = 0xFEED

    def test_stateless_rederivation(self):
        a = leaf_randomness(TEST, self.MASTER, 3, 5)
        b = leaf_randomness(TEST, self.MASTER, 3, 5)
        assert (a.u.coeffs, a.e0.coeffs, a.e1.coeffs) == (
            b.u.coeffs, b.e0.coeffs, b.e1.coeffs,
        )

    def test_distinct_indices_differ(self):
        a = leaf_randomness(TEST, self.MASTER, 3, 0)
        b = leaf_randomness(TEST, self.MASTER, 3, 1)
        assert a.u.coeffs != b.u.coeffs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_leaf_ciphertexts_follow_the_derivation_chain(self, setup, workers):
        secret, public, relin, zk, graph = setup
        plan = compile_query(
            parse("SELECT HISTO(COUNT(*)) FROM neigh(1)"), PARAMS, SCHEMA
        )
        with TaskFabric(workers=workers, chunk_size=2) as fabric:
            submissions = EncryptedExecutor(
                plan, public, zk, random.Random(7), fabric=fabric
            ).run(graph, master_seed=self.MASTER)
        checked = 0
        for submission in submissions:
            origin = submission.origin
            selected = semantics.origin_decisions(
                plan, graph, origin
            ).selected_neighbors
            for leaf in submission.leaves:
                index = selected.index(leaf.sender)
                randomness = bgv.EncryptionRandomness.generate(
                    TEST,
                    derive_rng(self.MASTER, "origin", origin, "leaf-enc", index),
                )
                exponent = semantics.neighbor_contribution(
                    plan, graph, origin, leaf.sender
                ).exponent
                expected = bgv.encrypt_monomial(
                    public, exponent, None, randomness=randomness
                )
                assert leaf.ciphertext.serialize() == expected.serialize()
                checked += 1
        assert checked > graph.num_vertices
