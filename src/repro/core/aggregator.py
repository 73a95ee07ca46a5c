"""The aggregator's query-processing duties (§4.4, §4.6, §5).

The aggregator never holds a decryption key.  Per query it:

1. verifies every submitted zero-knowledge proof and discards
   contributions from origins whose proof stack does not check out;
2. relinearizes the (deferred-relinearization) device outputs back to
   degree-1 ciphertexts — the "one-time operation to reduce ciphertext
   size before the decryption step" of §5;
3. sums the accepted ciphertexts homomorphically;
4. builds an Orchard-style summation tree over the accepted
   contributions so every device can verify its data was included
   exactly once (§4.2).

ZKP verification dominates the aggregator's compute (Figure 9b); the
cost model tallies the simulated Groth16 verification seconds.

One shape at every scale (docs/SHARDING.md): the submission order is
cut into ``num_shards`` contiguous ranges, each verified, relinearized
and folded into :data:`SUM_CHUNK` chunk sums, and the root
:class:`ReductionTree` re-checks each shard's claimed partial against
its chunk evidence before reducing the partials into the one ciphertext
the committee decrypts.  The flat aggregator is ``num_shards=1``.
Addition is exact and contiguous shards preserve the submission order,
so everything but the analytic noise tag is bit-identical at any K.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro import telemetry
from repro.crypto import bgv, zksnark
from repro.crypto.merkle import InclusionProof, MerkleTree, verify_inclusion
from repro.engine.encrypted import OriginSubmission
from repro.errors import ProtocolError, ShardIntegrityError
from repro.runtime import TaskFabric

#: Fixed fan-in of the first summation-tree level.  A module constant —
#: never derived from the worker count — so the tree shape (and with it
#: every ciphertext's noise-bit metadata) is identical no matter how the
#: chunks are scheduled.
SUM_CHUNK = 8


@dataclass
class AggregationResult:
    """Outcome of verification + global aggregation."""

    ciphertext: bgv.Ciphertext | None
    accepted: list[int]
    rejected: list[int]
    summation_root: bytes
    verification_seconds: float
    proofs_verified: int

    @property
    def num_accepted(self) -> int:
        return len(self.accepted)


def _pairwise_sum(cts: list[bgv.Ciphertext]) -> bgv.Ciphertext:
    """Reduce ciphertexts pairwise in order: a fixed, balanced shape."""
    layer = list(cts)
    while len(layer) > 1:
        layer = [
            bgv.add(layer[i], layer[i + 1]) if i + 1 < len(layer) else layer[i]
            for i in range(0, len(layer), 2)
        ]
    return layer[0]


def _sum_chunk_task(context: None, chunk: list[bgv.Ciphertext]) -> bgv.Ciphertext:
    """Fabric task: pairwise-sum one fixed-size chunk of ciphertexts."""
    return _pairwise_sum(chunk)


def chunked_partials(
    cts: list[bgv.Ciphertext],
    fabric: TaskFabric | None = None,
) -> list[bgv.Ciphertext]:
    """First tree level: SUM_CHUNK-sized chunks, each reduced pairwise.

    Chunk boundaries depend only on item order — never on the fabric —
    so the partial list is identical at any worker count.
    """
    chunks = [cts[i : i + SUM_CHUNK] for i in range(0, len(cts), SUM_CHUNK)]
    if fabric is not None and len(chunks) > 1:
        return fabric.map(_sum_chunk_task, chunks, label="aggregator.sum")
    return [_pairwise_sum(chunk) for chunk in chunks]


def tree_reduce(
    cts: list[bgv.Ciphertext],
    fabric: TaskFabric | None = None,
) -> bgv.Ciphertext | None:
    """The fixed-shape SUM_CHUNK summation tree: chunks reduced pairwise,
    then the chunk sums reduced pairwise in order.

    Homomorphic addition is exact, and the fixed shape keeps even the
    noise-bit *metadata* identical at any worker count (a balanced tree
    also grows the noise estimate logarithmically where a left fold
    grows it linearly).
    """
    if not cts:
        return None
    return _pairwise_sum(chunked_partials(cts, fabric))


def shard_bounds(total: int, num_shards: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of the K balanced contiguous ranges over
    ``total`` ordered items: the first ``total % K`` take one extra, and
    ranges past the item count are empty.  The seeded
    :func:`repro.sharding.planner.plan_shards` lays out on the same
    bounds."""
    base, extra = divmod(total, num_shards)
    bounds = []
    start = 0
    for index in range(num_shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


@dataclass(frozen=True)
class ShardPartial:
    """One shard's contribution to the root reduction.

    Bookkeeping lists are in the shard's *submission* order; because
    shards are contiguous ranges of the global order, concatenating them
    in shard order replays the single-shard bookkeeping exactly
    (accepted/rejected lists, Merkle leaves, verification-seconds fold).

    ``chunk_partials`` is the integrity evidence: the SUM_CHUNK chunk
    sums the shard claims ``partial`` was reduced from.  The root
    recomputes the reduction before trusting the claim.
    """

    shard_index: int
    accepted: tuple[int, ...]
    rejected: tuple[int, ...]
    accepted_digests: tuple[bytes, ...]
    #: Per-submission simulated Groth16 seconds, shard submission order.
    seconds: tuple[float, ...]
    #: Per-submission proofs-verified counts, same order.
    proofs: tuple[int, ...]
    chunk_partials: tuple[bgv.Ciphertext, ...]
    partial: bgv.Ciphertext | None

    @property
    def num_submissions(self) -> int:
        return len(self.seconds)


def shard_claimed_partial(
    chunk_partials: Sequence[bgv.Ciphertext],
) -> bgv.Ciphertext | None:
    """The partial sum a shard aggregator *claims* for its chunk
    evidence.  A module-level seam on purpose: the audit self-test's
    colluding-shard mutant patches this to tamper, and the root's
    independent recomputation must catch it."""
    if not chunk_partials:
        return None
    return _pairwise_sum(list(chunk_partials))


@dataclass
class ReductionTree:
    """Root combiner: verify each shard's claim, then tree-reduce.

    The root recomputes every claimed partial from its chunk evidence
    and refuses (:class:`~repro.errors.ShardIntegrityError`) a mismatch,
    so a colluding shard aggregator cannot smuggle a tampered partial
    into the committee's single decryption.  Verified evidence is
    dropped at once: the root holds O(K) ciphertexts, never O(n).
    """

    fabric: TaskFabric | None = None
    _partials: list[bgv.Ciphertext] = field(default_factory=list, init=False)
    _shards_seen: int = field(default=0, init=False)

    def add(self, partial: ShardPartial) -> None:
        """Admit one shard's partial after recomputing its reduction."""
        self._shards_seen += 1
        if partial.partial is None:
            if partial.chunk_partials or partial.accepted:
                raise ShardIntegrityError(
                    f"shard {partial.shard_index} claims no partial sum "
                    "but presented accepted contributions"
                )
            return
        recomputed = _pairwise_sum(list(partial.chunk_partials))
        if recomputed.serialize() != partial.partial.serialize():
            telemetry.count("sharding.integrity.failures")
            raise ShardIntegrityError(
                f"shard {partial.shard_index} claimed a partial sum that "
                "does not reduce from its own chunk evidence"
            )
        telemetry.count("sharding.partials.verified")
        self._partials.append(partial.partial)

    def reduce(self) -> bgv.Ciphertext | None:
        """Combine the verified shard partials through the summation
        tree into the one ciphertext handed to the committee."""
        if not self._shards_seen:
            raise ProtocolError("no shard partials were added")
        with telemetry.span(
            "sharding.reduce",
            shards=self._shards_seen,
            partials=len(self._partials),
        ):
            started = time.perf_counter()
            root = tree_reduce(self._partials, self.fabric)
            telemetry.observe(
                "sharding.reduce.seconds", time.perf_counter() - started
            )
            telemetry.count(
                "sharding.partials.reduced", len(self._partials)
            )
        return root


def _verify_relin_task(
    context: tuple[zksnark.Groth16System, bgv.RelinKeySet],
    submission: OriginSubmission,
) -> tuple[bool, float, int, bgv.Ciphertext | None]:
    """Fabric task: full proof-stack check plus relinearization.

    Only dispatched under full verification (``spot_check_fraction`` of
    1.0), where the check is a pure function of the submission — no
    sampling RNG, so any worker may run it.
    """
    zk, relin_keys = context
    return QueryAggregator(zk=zk, relin_keys=relin_keys)._verify_relin(
        submission
    )


@dataclass
class QueryAggregator:
    """Aggregator state for one query.

    ``spot_check_fraction`` implements the §6.6 cost mitigation: verify
    only a random sample of each submission's *leaf* proofs (a cheating
    device is still caught with probability ~fraction per bad leaf, and
    the aggregation proof is always checked).  ``spot_check_rng`` makes
    the sampling reproducible in tests.
    """

    zk: zksnark.Groth16System
    relin_keys: bgv.RelinKeySet
    spot_check_fraction: float = 1.0
    spot_check_rng: object | None = None
    #: Optional parallel fabric.  Submissions verify + relinearize
    #: independently, so they shard cleanly — but only under full
    #: verification: spot-checking draws from a shared RNG whose
    #: consumption order must stay sequential, so it pins the serial
    #: in-order path (contiguous shards keep that order at any K).
    fabric: TaskFabric | None = None
    #: K contiguous shards of the submission order, each verified and
    #: folded independently, then combined by the claim-checked root.
    #: A runtime knob like the worker count: never part of a result.
    num_shards: int = 1
    _tree: MerkleTree | None = field(default=None, init=False)
    _accepted_digests: list[bytes] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not 0 < self.spot_check_fraction <= 1:
            raise ProtocolError("spot-check fraction must be in (0, 1]")
        if self.num_shards < 1:
            raise ProtocolError("QueryAggregator.num_shards must be >= 1")

    def _should_check(self) -> bool:
        if self.spot_check_fraction >= 1.0:
            return True
        rng = self.spot_check_rng
        if rng is None:
            import random

            rng = self.spot_check_rng = random.Random(0x5B07)
        return rng.random() < self.spot_check_fraction

    def verify_submission(self, submission: OriginSubmission) -> tuple[bool, float, int]:
        """Check the full proof stack of one origin's submission.

        Returns (accepted, verification seconds, proofs verified).
        """
        seconds = 0.0
        proofs = 0
        verified_digests: set[bytes] = set()
        for leaf in submission.leaves:
            if not self._should_check():
                # Trusted-on-sample: the digest still participates in
                # coverage so the aggregation statement remains bound.
                verified_digests.add(leaf.ciphertext.digest())
                continue
            seconds += self.zk.verification_seconds(leaf.statement)
            proofs += 1
            if not self.zk.verify(leaf.statement, leaf.proof):
                return False, seconds, proofs
            verified_digests.add(leaf.ciphertext.digest())
        # Intermediate aggregations (multi-hop) are appended in
        # post-order, so children are verified before their parents.
        for ciphertext, statement, proof in submission.intermediates:
            seconds += self.zk.verification_seconds(statement)
            proofs += 1
            if not self.zk.verify(statement, proof):
                return False, seconds, proofs
            if not self._inputs_covered(statement, verified_digests):
                return False, seconds, proofs
            verified_digests.add(ciphertext.digest())
        seconds += self.zk.verification_seconds(submission.aggregate_statement)
        proofs += 1
        if not self.zk.verify(
            submission.aggregate_statement, submission.aggregate_proof
        ):
            return False, seconds, proofs
        if not self._inputs_covered(
            submission.aggregate_statement, verified_digests
        ):
            return False, seconds, proofs
        output_bytes = submission.aggregate_statement.public_inputs[0]
        if output_bytes != submission.ciphertext.serialize():
            return False, seconds, proofs
        return True, seconds, proofs

    @staticmethod
    def _inputs_covered(
        statement: zksnark.Statement, verified: set[bytes]
    ) -> bool:
        """Every input digest the statement claims must belong to a
        ciphertext whose own proof already verified."""
        input_digests = statement.public_inputs[1]
        return all(digest in verified for digest in input_digests)

    def _verify_relin(
        self, submission: OriginSubmission
    ) -> tuple[bool, float, int, bgv.Ciphertext | None]:
        """Check one submission and relinearize it if it is accepted."""
        ok, seconds, proofs = self.verify_submission(submission)
        relin = (
            bgv.relinearize(submission.ciphertext, self.relin_keys)
            if ok
            else None
        )
        return ok, seconds, proofs, relin

    def aggregate_shard(
        self, shard_index: int, submissions: list[OriginSubmission]
    ) -> ShardPartial:
        """One shard aggregator: verify, relinearize, fold, claim.

        Verification + relinearization of distinct submissions is
        independent work, sharded across :attr:`fabric` when one is set
        and every proof is being checked; the shard's accepted
        ciphertexts then fold into SUM_CHUNK chunk sums.
        """
        telemetry.count("sharding.shard.submissions", len(submissions))
        fabric = self.fabric if self.spot_check_fraction >= 1.0 else None
        if fabric is not None:
            results = fabric.map(
                _verify_relin_task,
                submissions,
                context=(self.zk, self.relin_keys),
                label="aggregator.verify",
            )
        else:
            results = [self._verify_relin(s) for s in submissions]
        accepted: list[int] = []
        rejected: list[int] = []
        relinearized: list[bgv.Ciphertext] = []
        for submission, (ok, seconds, proofs, relin) in zip(submissions, results):
            telemetry.count("aggregator.proofs.verified", proofs)
            telemetry.observe("aggregator.verify.seconds", seconds)
            if ok:
                accepted.append(submission.origin)
                relinearized.append(relin)
            else:
                rejected.append(submission.origin)
        chunk_partials = tuple(chunked_partials(relinearized, fabric))
        return ShardPartial(
            shard_index=shard_index,
            accepted=tuple(accepted),
            rejected=tuple(rejected),
            accepted_digests=tuple(ct.digest() for ct in relinearized),
            seconds=tuple(r[1] for r in results),
            proofs=tuple(r[2] for r in results),
            chunk_partials=chunk_partials,
            partial=shard_claimed_partial(chunk_partials),
        )

    def aggregate(
        self, submissions: list[OriginSubmission]
    ) -> AggregationResult:
        """Verify, relinearize, and sum all submissions.

        Shards are consumed one at a time, so peak residency is one
        shard's relinearized ciphertexts plus O(K) partials.
        """
        root = ReductionTree(fabric=self.fabric)
        accepted: list[int] = []
        rejected: list[int] = []
        self._accepted_digests = []
        total_seconds = 0.0
        total_proofs = 0
        bounds = shard_bounds(len(submissions), self.num_shards)
        telemetry.count("sharding.shards.planned", len(bounds))
        for index, (start, stop) in enumerate(bounds):
            partial = self.aggregate_shard(index, submissions[start:stop])
            root.add(partial)
            accepted.extend(partial.accepted)
            rejected.extend(partial.rejected)
            self._accepted_digests.extend(partial.accepted_digests)
            # One left fold in global submission order, whatever K is:
            # the float total is bit-identical across layouts.
            for seconds in partial.seconds:
                total_seconds += seconds
            total_proofs += sum(partial.proofs)
        global_ct = root.reduce()
        telemetry.count("aggregator.submissions.accepted", len(accepted))
        telemetry.count("aggregator.submissions.rejected", len(rejected))
        self._tree = MerkleTree(self._accepted_digests or [b"empty"])
        return AggregationResult(
            ciphertext=global_ct,
            accepted=accepted,
            rejected=rejected,
            summation_root=self._tree.root,
            verification_seconds=total_seconds,
            proofs_verified=total_proofs,
        )

    def inclusion_proof(self, position: int) -> InclusionProof:
        """Summation-tree inclusion proof for an accepted contribution
        (Orchard's include-exactly-once check, §4.2)."""
        if self._tree is None:
            raise ProtocolError("no aggregation has run")
        return self._tree.prove(position)

    def verify_inclusion(
        self, position: int, digest: bytes, proof: InclusionProof
    ) -> bool:
        if self._tree is None:
            raise ProtocolError("no aggregation has run")
        return verify_inclusion(self._tree.root, digest, proof)
