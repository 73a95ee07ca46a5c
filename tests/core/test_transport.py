"""Full-stack integration: queries over the real mix network."""

import random

import pytest

from repro.core.aggregator import QueryAggregator
from repro.core.transport import MixnetTransport, decode_response, encode_response
from repro.crypto import bgv
from repro.crypto.zksnark import Groth16System
from repro.engine.encrypted import dest_compute
from repro.engine.malicious import Behavior
from repro.engine.plaintext import aggregate_coefficients
from repro.engine.zkcircuits import build_circuits
from repro.errors import UnsupportedQueryError
from repro.mixnet.network import MixnetWorld
from repro.params import SystemParameters, TEST
from repro.query.compiler import compile_query
from repro.query.parser import parse
from repro.query.schema import scaled_schema
from repro.workloads.epidemic import run_epidemic
from repro.workloads.graphgen import generate_household_graph

QUERY = "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf AND self.inf"


@pytest.fixture(scope="module")
def stack():
    rng = random.Random(91)
    graph = generate_household_graph(
        10, degree_bound=2, rng=rng, external_contacts=1
    )
    run_epidemic(graph, rng)
    params = SystemParameters(
        num_devices=10, hops=2, replicas=1, forwarder_fraction=0.45,
        degree_bound=2, pseudonyms_per_device=2,
    )
    world = MixnetWorld(
        params, num_devices=10, rng=rng, rsa_bits=512, pseudonyms_per_device=2
    )
    secret, public = bgv.keygen(TEST, rng)
    relin = bgv.make_relin_keys(secret, 6, rng)
    zk = Groth16System.setup(build_circuits(), rng)
    plan = compile_query(
        parse(QUERY), SystemParameters(degree_bound=2), scaled_schema()
    )
    transport = MixnetTransport(
        world=world, graph=graph, plan=plan, public_key=public, zk=zk, rng=rng
    )
    submissions = transport.run()
    return graph, plan, secret, relin, zk, transport, submissions


class TestMixnetTransport:
    def test_result_matches_plaintext(self, stack):
        graph, plan, secret, relin, zk, transport, submissions = stack
        aggregator = QueryAggregator(zk=zk, relin_keys=relin)
        result = aggregator.aggregate(submissions)
        assert not result.rejected
        plain = bgv.decrypt(secret, result.ciphertext)
        coeffs = list(plain.coeffs[: plan.layout.total_coefficients])
        expected, _ = aggregate_coefficients(plan, graph)
        assert coeffs == expected

    def test_every_origin_submitted(self, stack):
        graph, _, _, _, _, _, submissions = stack
        assert len(submissions) == graph.num_vertices

    def test_cround_accounting(self, stack):
        _, _, _, _, _, transport, _ = stack
        k = transport.world.params.hops
        assert transport.crounds_used["telescoping"] >= k * k + 2 * k
        # Each communication wave costs k+1 C-rounds (k+2 boundaries).
        assert transport.crounds_used["query_flood"] == k + 2
        assert transport.crounds_used["responses"] == k + 2

    def test_degree_hiding(self, stack):
        """Every vertex sends on exactly d slots regardless of its true
        degree (self-loop padding, §3.2)."""
        graph, plan, _, _, _, transport, _ = stack
        for vertex, slots in transport._slots.items():
            assert len(slots) == plan.degree_bound
            true_neighbors = graph.neighbors(vertex)
            for i, target in enumerate(slots):
                if i < len(true_neighbors):
                    assert target == true_neighbors[i]
                else:
                    assert target == vertex

    def test_multihop_plans_rejected(self, stack):
        graph, _, _, _, zk, transport, _ = stack
        plan2 = compile_query(
            parse("SELECT HISTO(COUNT(*)) FROM neigh(2) WHERE dest.inf"),
            SystemParameters(degree_bound=2),
            scaled_schema(),
        )
        with pytest.raises(UnsupportedQueryError):
            MixnetTransport(
                world=transport.world,
                graph=graph,
                plan=plan2,
                public_key=transport.public_key,
                zk=zk,
                rng=random.Random(0),
            )


class TestResponseCodec:
    def test_roundtrip(self, stack):
        graph, plan, _, _, zk, transport, _ = stack
        rng = random.Random(5)
        origin = 0
        neighbor = graph.neighbors(0)[0]
        response = dest_compute(
            plan, transport.public_key, zk, graph, origin, neighbor, rng
        )
        handle = transport._primary(neighbor)
        payload = encode_response(list(response.messages), handle)
        decoded = decode_response(
            payload, plan, transport.public_key, TEST
        )
        assert decoded is not None
        sender, messages = decoded
        assert sender == handle
        assert len(messages) == len(response.messages)
        for original, parsed in zip(response.messages, messages):
            assert parsed.ciphertext.components == original.ciphertext.components
            assert zk.verify(parsed.statement, parsed.proof)

    def test_garbage_rejected(self, stack):
        _, plan, _, _, _, transport, _ = stack
        assert decode_response(b"\x00" * 40, plan, transport.public_key, TEST) is None
        assert decode_response(b"X", plan, transport.public_key, TEST) is None

    def test_tampered_ciphertext_fails_verification(self, stack):
        graph, plan, _, _, zk, transport, _ = stack
        rng = random.Random(6)
        neighbor = graph.neighbors(0)[0]
        response = dest_compute(
            plan, transport.public_key, zk, graph, 0, neighbor, rng
        )
        handle = transport._primary(neighbor)
        payload = bytearray(encode_response(list(response.messages), handle))
        payload[60] ^= 1  # flip a ciphertext bit
        decoded = decode_response(
            bytes(payload), plan, transport.public_key, TEST
        )
        assert decoded is not None
        _, messages = decoded
        assert not all(zk.verify(m.statement, m.proof) for m in messages)


class TestPathReuse:
    def test_collect_on_a_fresh_transport_reads_from_round_zero(self, stack):
        """``collect_submissions`` before any ``send_responses`` is
        defined: every payload the world has delivered is in scope, so a
        new transport over the used world decodes the same responses."""
        graph, plan, secret, relin, zk, used, _ = stack
        fresh = MixnetTransport(
            world=used.world, graph=graph, plan=plan,
            public_key=used.public_key, zk=zk, rng=random.Random(9),
        )
        assert fresh._response_round == 0
        submissions = fresh.collect_submissions()
        assert len(submissions) == graph.num_vertices
        assert not fresh.recovery.defaulted_by_origin
        result = QueryAggregator(zk=zk, relin_keys=relin).aggregate(submissions)
        plain = bgv.decrypt(secret, result.ciphertext)
        expected, _ = aggregate_coefficients(plan, graph)
        assert list(plain.coeffs[: plan.layout.total_coefficients]) == expected

    def test_second_query_skips_telescoping(self, stack):
        """§3.4 steady state: consecutive queries reuse circuits — the
        phase methods run again over the established slots."""
        graph, plan, secret, relin, zk, transport, _ = stack
        before = transport.world.current_round
        transport.flood_query()
        transport.send_responses()
        submissions = transport.collect_submissions()
        crounds = transport.world.current_round - before
        # Only the two communication waves ran: no k^2+2k setup.
        k = transport.world.params.hops
        assert crounds == 2 * (k + 2)
        aggregator = QueryAggregator(zk=zk, relin_keys=relin)
        result = aggregator.aggregate(submissions)
        plain = bgv.decrypt(secret, result.ciphertext)
        coeffs = list(plain.coeffs[: plan.layout.total_coefficients])
        expected, _ = aggregate_coefficients(plan, graph)
        assert coeffs == expected
