"""Simulated Groth16 zero-knowledge proofs.

The paper proves ciphertext well-formedness with ZoKrates-compiled
Groth16 circuits (§4.6, §5).  Reimplementing pairing-based SNARKs is out
of scope for this reproduction, so this module provides a *simulation*
with the same interface, security behaviour, and cost model:

* **Trusted setup** — performed once by the genesis committee
  (:meth:`Groth16System.setup`), exactly as the paper requires for
  Groth16.  The setup holds a secret MAC key per circuit.

* **Soundness** — a circuit is a relation from a witness to the public
  statement it proves and the output it computes (as ZoKrates'
  ``compute-witness`` is).  :meth:`Groth16System.prove` evaluates the
  *real* relation once per witness — encrypting under the witness
  randomness, multiplying the inputs — and certifies each evaluation's
  statement; a witness that breaks a constraint raises, so no proof
  exists for it.  One call proves the witnesses one device proves
  together (a destination's whole neighbour slot), and a relation may
  evaluate them as one batch: the leaf circuit's encryptions are one
  :func:`repro.crypto.bgv.encrypt` call.
  Because proof tokens are MACs under the setup secret, a Byzantine
  device cannot mint a token for a statement it cannot prove; the test
  suite exercises forgery attempts via :func:`forge_proof`.

* **Zero knowledge** — tokens depend only on the statement digest, never
  on the witness.

* **Costs** — proof size is the Groth16 constant 192 bytes (3 compressed
  BLS12-381 group elements); proving time scales with circuit size and
  verification time scales linearly with the public input length, which
  for Mycelium includes the (large) ciphertexts — the effect that
  dominates aggregator cost in Figure 9(b).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.crypto.hashes import constant_time_equal, prf, protocol_hash
from repro.errors import ProofError

PROOF_BYTES = 192  # 2 G1 + 1 G2 compressed points on BLS12-381.

#: Groth16 cost-model constants, calibrated to the paper's reports:
#: ~1 minute of proving per device (§6.4 — d * C_q leaf proofs plus one
#: aggregation proof) and ciphertext-dominated verification (§6.6 /
#: Figure 9b).
PROVING_SECONDS_PER_CONSTRAINT = 1.0e-5
VERIFY_SECONDS_BASE = 2.0e-3
VERIFY_SECONDS_PER_PUBLIC_BYTE = 1.7e-7


def canonical_encode(obj: object) -> bytes:
    """Deterministic, injective encoding for statement payloads."""
    if isinstance(obj, bytes):
        return b"B" + len(obj).to_bytes(8, "big") + obj
    if isinstance(obj, bool):
        return b"b" + (b"\x01" if obj else b"\x00")
    if isinstance(obj, int):
        raw = obj.to_bytes((obj.bit_length() + 8) // 8 + 1, "big", signed=True)
        return b"I" + len(raw).to_bytes(8, "big") + raw
    if isinstance(obj, str):
        return canonical_encode(obj.encode("utf-8")).replace(b"B", b"S", 1)
    if isinstance(obj, (tuple, list)):
        inner = b"".join(canonical_encode(x) for x in obj)
        return b"T" + len(obj).to_bytes(8, "big") + inner
    if obj is None:
        return b"N"
    raise ProofError(f"cannot canonically encode {type(obj).__name__}")


@dataclass(frozen=True)
class Statement:
    """A public statement: which circuit, and its public inputs."""

    circuit: str
    public_inputs: tuple

    def digest(self) -> bytes:
        """Hashed once per value, like the encoded size: both are kept
        beside the fields, not compared, not in ``repr``, not pickled."""
        return self._measured[0]

    @property
    def public_input_bytes(self) -> int:
        return self._measured[1]

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_measured", None)
        return state

    @functools.cached_property
    def _measured(self) -> tuple[bytes, int]:
        encoded = canonical_encode(self.public_inputs)
        return protocol_hash(b"statement", self.circuit.encode(), encoded), len(encoded)


@dataclass(frozen=True)
class Proof:
    """A (simulated) Groth16 proof."""

    circuit: str
    statement_digest: bytes
    token: bytes

    @property
    def size_bytes(self) -> int:
        return PROOF_BYTES


@dataclass(frozen=True)
class Circuit:
    """A relation ``witness -> (public_inputs, output)``, mapped over a
    sequence of witnesses (one pair per witness, in order), plus a
    constraint count for the cost model.  The relation raises when any
    witness breaks a constraint."""

    name: str
    relation: Callable[[Sequence[object]], list[tuple[tuple, object]]]
    num_constraints: int


class Groth16System:
    """The proving/verification system for a fixed set of circuits."""

    def __init__(self, circuits: dict[str, Circuit], setup_secret: bytes):
        self._circuits = dict(circuits)
        self._setup_secret = setup_secret

    @classmethod
    def setup(
        cls, circuits: list[Circuit], rng: random.Random
    ) -> Groth16System:
        """The trusted-setup ceremony (run by the genesis committee)."""
        secret = bytes(rng.randrange(256) for _ in range(32))
        return cls({c.name: c for c in circuits}, secret)

    def circuit(self, name: str) -> Circuit:
        try:
            return self._circuits[name]
        except KeyError as exc:
            raise ProofError(f"no circuit named '{name}' in this setup") from exc

    def prove(
        self, circuit_name: str, witnesses: Sequence[object]
    ) -> list[tuple[Statement, Proof, object]]:
        """Evaluate the circuit's relation once on each of ``witnesses``
        and return, per witness, the statement it establishes, a proof
        of it, and the relation's output.  A witness that breaks a
        constraint raises from the relation, so a sound prover cannot
        prove falsehoods."""
        proved = []
        for public_inputs, output in self.circuit(circuit_name).relation(witnesses):
            statement = Statement(circuit_name, public_inputs)
            digest = statement.digest()
            proof = Proof(
                circuit=circuit_name,
                statement_digest=digest,
                token=self._token(digest),
            )
            proved.append((statement, proof, output))
        return proved

    def _token(self, digest: bytes) -> bytes:
        """The proof token: a PRF of the statement digest alone."""
        token = prf(self._setup_secret, b"groth16", digest)[:PROOF_BYTES]
        token = token + prf(self._setup_secret, b"groth16-pad", digest)[
            : PROOF_BYTES - len(token)
        ]
        return token[:PROOF_BYTES]

    def verify(self, statement: Statement, proof: Proof) -> bool:
        """Check a proof against a statement."""
        if proof.circuit != statement.circuit:
            return False
        digest = statement.digest()
        if proof.statement_digest != digest:
            return False
        return constant_time_equal(proof.token, self._token(digest))

    # -- cost model ---------------------------------------------------------

    def proving_seconds(self, circuit_name: str) -> float:
        return self.circuit(circuit_name).num_constraints * (
            PROVING_SECONDS_PER_CONSTRAINT
        )

    @staticmethod
    def verification_seconds(statement: Statement) -> float:
        """Groth16 verification is linear in the public I/O size — with
        4.3 MB ciphertexts in the statement, this dominates (§6.6)."""
        return VERIFY_SECONDS_BASE + (
            statement.public_input_bytes * VERIFY_SECONDS_PER_PUBLIC_BYTE
        )


def forge_proof(statement: Statement, rng: random.Random) -> Proof:
    """An adversary's best effort without the setup secret: a random
    token.  Verification rejects it (except with negligible probability),
    which is what the Byzantine-device tests assert."""
    token = bytes(rng.randrange(256) for _ in range(PROOF_BYTES))
    return Proof(
        circuit=statement.circuit, statement_digest=statement.digest(), token=token
    )
