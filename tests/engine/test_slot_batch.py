"""A destination proves a neighbour slot's leaves in one batch.

Catalog Q3 answers every slot with one leaf per bucket, fourteen at the
scaled schema.  The slot's encryptions are one ``ring_multiply`` call,
and every ciphertext byte and proof token equals what fourteen single
encryptions and proofs, drawing the same randomness in the same order,
produce.  Forging behaviours keep their leaf-at-a-time path.
"""

import itertools
import random

import pytest

from repro.crypto import bgv, zksnark
from repro.engine import semantics, zkcircuits
from repro.engine.encrypted import (
    _leaf_stream,
    dest_compute,
    leaf_max_exponent,
    leaf_randomness,
)
from repro.engine.malicious import Behavior
from repro.errors import ProofError
from repro.params import SystemParameters, TEST
from repro.query.catalog import CATALOG
from repro.query.schema import scaled_schema
from repro.runtime import available_backends, backends
from repro.runtime.backends import use_backend
from tests.conftest import build_epidemic_graph

SEED = 17


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(99)
    _, public = bgv.keygen(TEST, rng)
    zk = zksnark.Groth16System.setup(zkcircuits.build_circuits(), rng)
    graph = build_epidemic_graph(seed=46, people=12, degree=3)
    plan = CATALOG["Q3"].plan(SystemParameters(degree_bound=3), scaled_schema())
    origin = next(v for v in range(graph.num_vertices) if graph.neighbors(v))
    return public, zk, graph, plan, origin, graph.neighbors(origin)[0]


def _exponents(plan, graph, origin, neighbor):
    contribution = semantics.neighbor_contribution(plan, graph, origin, neighbor)
    return [
        contribution.exponent if bucket == contribution.bucket else 0
        for bucket in range(plan.cross.num_buckets)
    ]


def _counting_ring_multiply(monkeypatch):
    calls = []
    real = backends.ring_multiply

    def counting(sums, n, q):
        calls.append(len(sums))
        return real(sums, n, q)

    monkeypatch.setattr(backends, "ring_multiply", counting)
    return calls


def _wire(messages):
    return [
        (m.ciphertext.serialize(), m.statement, m.proof.token) for m in messages
    ]


@pytest.mark.parametrize("backend", available_backends())
def test_a_slot_is_one_product_call_and_fourteen_single_leaves(
    setup, backend, monkeypatch
):
    public, zk, graph, plan, origin, neighbor = setup
    assert plan.cross.num_buckets == 14
    exponents = _exponents(plan, graph, origin, neighbor)
    bound = leaf_max_exponent(plan)
    with use_backend(backend):
        calls = _counting_ring_multiply(monkeypatch)
        response = dest_compute(
            plan, public, zk, graph, origin, neighbor, random.Random(0),
            leaf_source=_leaf_stream(TEST, SEED, origin),
        )
        assert calls == [28]  # one call: two products per leaf
        monkeypatch.undo()
        singles = [
            zk.prove(
                zkcircuits.LEAF_CIRCUIT,
                [zkcircuits.LeafWitness(exponent, randomness, public, bound)],
            )[0]
            for exponent, randomness in zip(
                exponents, (leaf_randomness(TEST, SEED, origin, i) for i in range(14))
            )
        ]
    assert _wire(response.messages) == [
        (ciphertext.serialize(), statement, proof.token)
        for statement, proof, ciphertext in singles
    ]
    assert all(zk.verify(m.statement, m.proof) for m in response.messages)


def test_rng_drawn_randomness_keeps_the_leaf_order(setup):
    """Without a leaf source the slot draws each leaf's randomness from
    ``rng`` in bucket order, as leaf-by-leaf encryption did."""
    public, zk, graph, plan, origin, neighbor = setup
    response = dest_compute(
        plan, public, zk, graph, origin, neighbor, random.Random(5)
    )
    rng = random.Random(5)
    expected = [
        bgv.encrypt_monomial(
            public, exponent, None,
            randomness=bgv.EncryptionRandomness.generate(TEST, rng),
        )
        for exponent in _exponents(plan, graph, origin, neighbor)
    ]
    assert [m.ciphertext for m in response.messages] == expected


@pytest.mark.parametrize(
    "behavior, calls",
    [(Behavior.LIE_IN_RANGE, [28]), (Behavior.FORGED_PROOF, [2] * 14)],
    ids=["lie-in-range", "forged-proof"],
)
def test_proving_behaviours_batch_and_forging_ones_do_not(
    setup, behavior, calls, monkeypatch
):
    public, zk, graph, plan, origin, neighbor = setup
    counted = _counting_ring_multiply(monkeypatch)
    response = dest_compute(
        plan, public, zk, graph, origin, neighbor, random.Random(0), behavior,
        leaf_source=_leaf_stream(TEST, SEED, origin),
    )
    assert counted == calls
    verified = [zk.verify(m.statement, m.proof) for m in response.messages]
    assert verified == [behavior is Behavior.LIE_IN_RANGE] * 14


def test_a_leaf_batch_under_two_keys_is_refused(setup):
    public, zk, _, _, _, _ = setup
    _, other = bgv.keygen(TEST, random.Random(3))
    stream = _leaf_stream(TEST, SEED, 0)
    witnesses = [
        zkcircuits.LeafWitness(0, randomness, key, 3)
        for key, randomness in zip((public, other), itertools.islice(stream, 2))
    ]
    with pytest.raises(ProofError, match="one public key"):
        zk.prove(zkcircuits.LEAF_CIRCUIT, witnesses)
