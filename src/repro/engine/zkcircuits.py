"""The two zkSNARK circuits of §4.6.

* ``wf-encryption`` — a submitted ciphertext is *well-formed*: it
  encrypts a monomial x^b with coefficient 1 and b inside the allowed
  range.  This is what stops a Byzantine device from reporting a vector
  with several non-zero coefficients or a coefficient larger than 1.

* ``wf-aggregation`` — an origin's submitted ciphertext really is the
  prescribed homomorphic combination (bucket selection, products,
  group shifts) of the declared input ciphertexts.  The witness contains
  the origin's private decisions and the seed for its fresh
  encryptions.

Each circuit is a relation from its witness to the public statement and
the circuit's output, and the prover evaluates it once: an honest
device's ciphertext *is* the output of its proof.

Statements carry ciphertext digests and the public-key fingerprint; the
Groth16 cost model therefore scales verification time with ciphertext
size, reproducing the aggregator-cost behaviour of Figure 9(b).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import bgv, zksnark
from repro.crypto.hashes import protocol_hash
from repro.errors import ProofError
from repro.query.plans import ExecutionPlan

LEAF_CIRCUIT = "wf-encryption"
AGGREGATE_CIRCUIT = "wf-aggregation"

#: Constraint-count estimates for the cost model: the encryption circuit
#: is dominated by the ring multiplications of one BGV encryption; the
#: aggregation circuit by d ciphertext products.
LEAF_CONSTRAINTS = 500_000
AGGREGATE_CONSTRAINTS = 100_000


@dataclass(frozen=True)
class LeafWitness:
    """Inputs of a well-formedness proof: the private exponent and
    encryption randomness, the public key and the public range bound."""

    exponent: int
    randomness: bgv.EncryptionRandomness
    public_key: bgv.PublicKey
    max_exponent: int


@dataclass(frozen=True)
class AggregateWitness:
    """Private inputs of an aggregation proof."""

    plan: ExecutionPlan
    decisions: object  # semantics.OriginDecisions
    seed: int
    inputs: dict  # neighbor -> tuple[Ciphertext, ...]
    public_key: bgv.PublicKey


def plan_digest(plan: ExecutionPlan) -> bytes:
    """A public identifier binding proofs to one query plan."""
    return protocol_hash(b"plan", str(plan.query).encode())


def leaf_statement(
    ciphertext: bgv.Ciphertext, pk: bgv.PublicKey, max_exponent: int
) -> zksnark.Statement:
    return zksnark.Statement(
        circuit=LEAF_CIRCUIT,
        public_inputs=(
            ciphertext.serialize(),
            pk.fingerprint(),
            max_exponent,
        ),
    )


def aggregate_statement(
    output: bgv.Ciphertext,
    inputs: dict[int, tuple[bgv.Ciphertext, ...]],
    pk: bgv.PublicKey,
    plan: ExecutionPlan,
) -> zksnark.Statement:
    return zksnark.Statement(
        circuit=AGGREGATE_CIRCUIT,
        public_inputs=(
            output.serialize(),
            tuple(ct.digest() for m in sorted(inputs) for ct in inputs[m]),
            pk.fingerprint(),
            plan_digest(plan),
        ),
    )


def _leaf_relation(witness: LeafWitness) -> tuple[tuple, bgv.Ciphertext]:
    """Encrypt x^exponent under the witness randomness, for an exponent
    in ``[0, max_exponent]``."""
    if not 0 <= witness.exponent <= witness.max_exponent:
        raise ProofError(
            f"exponent {witness.exponent} outside [0, {witness.max_exponent}]"
        )
    ciphertext = bgv.encrypt_monomial(
        witness.public_key, witness.exponent, None, randomness=witness.randomness
    )
    statement = leaf_statement(ciphertext, witness.public_key, witness.max_exponent)
    return statement.public_inputs, ciphertext


def _aggregate_relation(
    witness: AggregateWitness,
) -> tuple[tuple, tuple[bgv.Ciphertext, int]]:
    """The origin combination of the witness inputs; its output is the
    combined ciphertext and the ciphertext products it took."""
    # Imported here: engine.encrypted depends on this module for the
    # statement builders.
    from repro.engine.encrypted import origin_combine

    output, products = origin_combine(witness)
    statement = aggregate_statement(
        output, witness.inputs, witness.public_key, witness.plan
    )
    return statement.public_inputs, (output, products)


def build_circuits() -> list[zksnark.Circuit]:
    """The circuit set the genesis committee performs trusted setup for."""
    return [
        zksnark.Circuit(LEAF_CIRCUIT, _leaf_relation, LEAF_CONSTRAINTS),
        zksnark.Circuit(AGGREGATE_CIRCUIT, _aggregate_relation, AGGREGATE_CONSTRAINTS),
    ]
