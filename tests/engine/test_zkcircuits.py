"""The §4.6 circuits as relations: each proof evaluates its circuit once,
and a witness that breaks a constraint gets no proof.

An honest leaf's ciphertext is the output of its well-formedness proof
and an origin's or intermediate's the output of its aggregation proof,
so no ring product is computed twice.  The products and proofs of one
TEST one-hop and one two-hop query are pinned on every backend.
"""

import random

import pytest

from repro import telemetry
from repro.crypto import bgv, zksnark
from repro.engine import zkcircuits
from repro.engine.encrypted import EncryptedExecutor, leaf_max_exponent
from repro.engine.semantics import OriginDecisions
from repro.errors import ProofError, ProtocolError
from repro.params import SystemParameters, TEST
from repro.query.compiler import compile_query
from repro.query.parser import parse
from repro.query.schema import scaled_schema
from repro.runtime import available_backends
from repro.runtime.backends import use_backend
from tests.conftest import build_epidemic_graph

ONE_HOP = "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf"

#: query -> (ring products, proofs) for the executor run below: each
#: circuit body's products, once.
PINS = {
    ONE_HOP: (138, 40),
    "SELECT HISTO(COUNT(*)) FROM neigh(2) WHERE dest.inf": (410, 82),
}


def _plan(query: str):
    return compile_query(
        parse(query), SystemParameters(degree_bound=3), scaled_schema()
    )


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(99)
    _, public = bgv.keygen(TEST, rng)
    zk = zksnark.Groth16System.setup(zkcircuits.build_circuits(), rng)
    graph = build_epidemic_graph(seed=46, people=12, degree=3)
    return public, zk, graph


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("query", sorted(PINS), ids=["one-hop", "two-hop"])
def test_each_circuit_runs_once(setup, backend, query, monkeypatch):
    public, zk, graph = setup
    products, proofs = PINS[query]
    plan = _plan(query)
    proved = []
    prove = zksnark.Groth16System.prove

    def counting_prove(self, circuit_name, witnesses):
        proved.extend(circuit_name for _ in witnesses)  # one per witness
        return prove(self, circuit_name, witnesses)

    monkeypatch.setattr(zksnark.Groth16System, "prove", counting_prove)
    with use_backend(backend), telemetry.session() as session:
        submissions = EncryptedExecutor(plan, public, zk, random.Random(7)).run(
            graph
        )
        counters = session.snapshot()["counters"]
    assert counters["runtime.backend.multiplies"] == products
    # One proof per leaf and one per origin or multi-hop intermediate.
    assert len(proved) == proofs == sum(
        len(s.leaves) + 1 + len(s.intermediates) for s in submissions
    )


class TestRelationRefusals:
    def _leaf(self, public, exponent, max_exponent):
        randomness = bgv.EncryptionRandomness.generate(TEST, random.Random(5))
        return zkcircuits.LeafWitness(exponent, randomness, public, max_exponent)

    def test_leaf_range_is_inclusive(self, setup):
        public, zk, _ = setup
        bound = leaf_max_exponent(_plan(ONE_HOP))
        for exponent in (0, bound):
            ((statement, proof, ciphertext),) = zk.prove(
                zkcircuits.LEAF_CIRCUIT, [self._leaf(public, exponent, bound)]
            )
            assert zk.verify(statement, proof)
            assert statement == zkcircuits.leaf_statement(ciphertext, public, bound)

    def test_leaf_refuses_out_of_range_exponent(self, setup):
        public, zk, _ = setup
        bound = leaf_max_exponent(_plan(ONE_HOP))
        for exponent in (-1, bound + 1):
            with pytest.raises(ProofError):
                zk.prove(
                    zkcircuits.LEAF_CIRCUIT,
                    [self._leaf(public, 0, bound), self._leaf(public, exponent, bound)],
                )

    @pytest.mark.parametrize(
        "selected, message",
        [((1, 1), "duplicate members"), ((1, 2, 3, 4), "degree bound")],
        ids=["duplicate-member", "over-degree-bound"],
    )
    def test_aggregate_refuses_bad_selection(self, setup, selected, message):
        public, zk, _ = setup
        ciphertext = bgv.encrypt_monomial(public, 1, random.Random(6))
        witness = zkcircuits.AggregateWitness(
            plan=_plan(ONE_HOP),
            decisions=OriginDecisions(True, selected, 0, {}, {}),
            seed=0,
            inputs={member: (ciphertext,) for member in selected},
            public_key=public,
        )
        with pytest.raises(ProtocolError, match=message):
            zk.prove(zkcircuits.AGGREGATE_CIRCUIT, [witness])
