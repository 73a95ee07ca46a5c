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
the circuit's output, and the prover evaluates it once per witness: an
honest device's ciphertext *is* the output of its proof.  A relation
maps a sequence of witnesses, the ones a device proves together; the
leaf relation encrypts a whole neighbour slot in one
:func:`~repro.crypto.bgv.encrypt` call.

Statements carry ciphertext digests and the public-key fingerprint; the
Groth16 cost model therefore scales verification time with ciphertext
size, reproducing the aggregator-cost behaviour of Figure 9(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def _leaf_relation(
    witnesses: Sequence[LeafWitness],
) -> list[tuple[tuple, bgv.Ciphertext]]:
    """Encrypt each x^exponent under its witness randomness, for
    exponents in ``[0, max_exponent]``: one encryption call under the
    batch's one public key."""
    if not witnesses:
        return []
    public_key = witnesses[0].public_key
    for witness in witnesses:
        if witness.public_key is not public_key and witness.public_key != public_key:
            raise ProofError("a leaf batch is encrypted under one public key")
        if not 0 <= witness.exponent <= witness.max_exponent:
            raise ProofError(
                f"exponent {witness.exponent} outside [0, {witness.max_exponent}]"
            )
    ciphertexts = bgv.encrypt(
        public_key,
        [bgv.monomial(public_key.profile, witness.exponent) for witness in witnesses],
        None,
        randomness=[witness.randomness for witness in witnesses],
    )
    return [
        (
            leaf_statement(ciphertext, public_key, witness.max_exponent).public_inputs,
            ciphertext,
        )
        for witness, ciphertext in zip(witnesses, ciphertexts)
    ]


def _aggregate_relation(
    witnesses: Sequence[AggregateWitness],
) -> list[tuple[tuple, tuple[bgv.Ciphertext, int]]]:
    """The origin combination of each witness' inputs; its output is the
    combined ciphertext and the ciphertext products it took."""
    # Imported here: engine.encrypted depends on this module for the
    # statement builders.
    from repro.engine.encrypted import origin_combine

    proved = []
    for witness in witnesses:
        output, products = origin_combine(witness)
        statement = aggregate_statement(
            output, witness.inputs, witness.public_key, witness.plan
        )
        proved.append((statement.public_inputs, (output, products)))
    return proved


def build_circuits() -> list[zksnark.Circuit]:
    """The circuit set the genesis committee performs trusted setup for."""
    return [
        zksnark.Circuit(LEAF_CIRCUIT, _leaf_relation, LEAF_CONSTRAINTS),
        zksnark.Circuit(AGGREGATE_CIRCUIT, _aggregate_relation, AGGREGATE_CONSTRAINTS),
    ]
