"""Simulated Groth16 behaviour: soundness, forgery resistance, costs."""

import random

import pytest

from repro.crypto import zksnark
from repro.errors import ProofError


def _even_circuit() -> zksnark.Circuit:
    """The relation ``w -> (2w,)``, for integer witnesses."""

    def relation(witnesses):
        if not all(isinstance(witness, int) for witness in witnesses):
            raise ProofError("is-double takes integer witnesses")
        return [((2 * witness,), None) for witness in witnesses]

    return zksnark.Circuit(name="is-double", relation=relation, num_constraints=100)


def _prove(system, witness) -> tuple[zksnark.Statement, zksnark.Proof]:
    ((statement, proof, _),) = system.prove("is-double", [witness])
    return statement, proof


@pytest.fixture
def system(rng) -> zksnark.Groth16System:
    return zksnark.Groth16System.setup([_even_circuit()], rng)


class TestProveVerify:
    def test_honest_proof_verifies(self, system):
        statement, proof = _prove(system, 5)
        assert statement == zksnark.Statement("is-double", (10,))
        assert system.verify(statement, proof)

    def test_false_statement_unprovable(self, system):
        """Only the witness whose evaluation is the statement yields a
        proof of it; a witness outside the relation yields none."""
        target = zksnark.Statement("is-double", (10,))
        provers = [
            witness
            for witness in range(-20, 21)
            if system.verify(target, _prove(system, witness)[1])
        ]
        assert provers == [5]
        with pytest.raises(ProofError):
            _prove(system, "5")

    def test_proof_bound_to_statement(self, system):
        _, proof = _prove(system, 5)
        assert not system.verify(zksnark.Statement("is-double", (12,)), proof)

    def test_forgery_rejected(self, system, rng):
        statement = zksnark.Statement("is-double", (10,))
        forged = zksnark.forge_proof(statement, rng)
        assert not system.verify(statement, forged)

    def test_unknown_circuit(self, system):
        with pytest.raises(ProofError):
            system.prove("nope", [1])

    def test_one_proof_per_witness_in_order(self, system):
        """A batch proves each witness as a call of its own would."""
        batch = system.prove("is-double", [5, 0, 5, -3])
        assert [statement for statement, _, _ in batch] == [
            zksnark.Statement("is-double", (2 * w,)) for w in (5, 0, 5, -3)
        ]
        assert [proof for _, proof, _ in batch] == [
            _prove(system, w)[1] for w in (5, 0, 5, -3)
        ]
        assert system.prove("is-double", []) == []
        with pytest.raises(ProofError):
            system.prove("is-double", [5, "5"])

    def test_proofs_deterministic_per_statement(self, system):
        """Zero-knowledge in the simulation: the token depends only on
        the statement, never on the witness."""
        assert _prove(system, 5)[1].token == _prove(system, 5)[1].token

    def test_cross_setup_proofs_fail(self, rng):
        sys1 = zksnark.Groth16System.setup([_even_circuit()], random.Random(1))
        sys2 = zksnark.Groth16System.setup([_even_circuit()], random.Random(2))
        statement, proof = _prove(sys1, 5)
        assert not sys2.verify(statement, proof)


class TestCostModel:
    def test_proof_size_is_groth16_constant(self, system):
        assert _prove(system, 5)[1].size_bytes == 192

    def test_verification_linear_in_public_io(self):
        small = zksnark.Statement("is-double", (1,))
        big = zksnark.Statement("is-double", (b"\x00" * 4_300_000,))
        t_small = zksnark.Groth16System.verification_seconds(small)
        t_big = zksnark.Groth16System.verification_seconds(big)
        assert t_big > 100 * t_small

    def test_proving_time_positive(self, system):
        assert system.proving_seconds("is-double") > 0


class TestCanonicalEncoding:
    def test_injective_across_types(self):
        pairs = [
            (b"ab", "ab"),
            (1, True),
            ((1, 2), (1, (2,))),
            ((b"a", b"b"), (b"ab",)),
            (0, -0),
        ]
        for a, b in pairs:
            if a == b:  # 0 == -0; skip genuinely equal values
                continue
            assert zksnark.canonical_encode(a) != zksnark.canonical_encode(b)

    def test_deterministic(self):
        obj = (1, b"x", "y", (None, 2))
        assert zksnark.canonical_encode(obj) == zksnark.canonical_encode(obj)

    def test_unencodable_rejected(self):
        with pytest.raises(ProofError):
            zksnark.canonical_encode({"a": 1})
