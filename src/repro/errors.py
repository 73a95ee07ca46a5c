"""Exception hierarchy for the Mycelium reproduction.

Every subsystem raises a subclass of :class:`MyceliumError` so callers can
catch library failures without swallowing unrelated bugs.
"""

from __future__ import annotations


class MyceliumError(Exception):
    """Base class for all errors raised by this library."""


class ParameterError(MyceliumError):
    """A configuration or cryptographic parameter is invalid."""


class TelemetryError(MyceliumError):
    """Misuse of the telemetry layer (undeclared metric, kind mismatch)."""


class CryptoError(MyceliumError):
    """A cryptographic operation failed (bad key, tag mismatch, ...)."""


class AuthenticationError(CryptoError):
    """An authenticated-encryption tag or signature did not verify."""


class NoiseBudgetExceeded(CryptoError):
    """A homomorphic operation would push the ciphertext noise past the
    point where decryption is still correct."""


class ProofError(CryptoError):
    """A zero-knowledge proof failed to verify, or a prover submitted a
    witness that does not satisfy the statement."""


class SecretSharingError(CryptoError):
    """Secret-sharing reconstruction or verification failed."""


class RobustDecodingError(SecretSharingError):
    """Reed-Solomon robust decoding could not recover the secret: more
    than ``(n - t) // 2`` shares are wrong, so no polynomial of degree
    < t agrees with enough of the received word.  Raised instead of
    ever returning a wrong secret."""


class MerkleError(CryptoError):
    """A Merkle inclusion proof is malformed or inconsistent."""


class ProtocolError(MyceliumError):
    """A participant observed a violation of the Mycelium protocol."""


class LivenessQuorumError(ProtocolError):
    """Too few committee members were online to reach the decryption
    threshold (§6.5).  Distinct from a decode failure under corruption:
    a liveness miss is safely retried once members return, while a
    :class:`RobustDecodingError` means the *present* members are lying
    and a retry with the same set cannot help."""


class EquivocationError(ProtocolError):
    """The aggregator presented inconsistent views to different devices."""


class ShardIntegrityError(ProtocolError):
    """A shard aggregator's claimed partial sum does not equal the
    reduction of its own chunk evidence.  Raised by the root
    :class:`repro.core.aggregator.ReductionTree` before the bad partial
    can contaminate the committee's single decryption
    (docs/SHARDING.md)."""


class MessageDroppedError(ProtocolError):
    """The aggregator (or a forwarder) dropped a message it had accepted."""


class QueryError(MyceliumError):
    """A query could not be parsed, compiled, or executed."""


class QuerySyntaxError(QueryError):
    """The query text is not valid Mycelium SQL."""


class UnsupportedQueryError(QueryError):
    """The query is syntactically valid but outside the supported subset
    (e.g. it exceeds the HE multiplication budget, as Q1 does under the
    paper's parameters)."""


class PrivacyBudgetExceeded(MyceliumError):
    """Running the query would exceed the remaining differential-privacy
    budget."""


class DurabilityError(MyceliumError):
    """The write-ahead journal or campaign recovery layer failed."""


class JournalError(DurabilityError):
    """The on-disk journal is unusable in its current form."""


class JournalEmptyError(JournalError):
    """The journal file is missing or contains no records."""


class JournalTruncatedError(JournalError):
    """The final journal record is incomplete (torn write at crash)."""


class JournalCorruptError(JournalError):
    """A non-final record is unparseable or fails its checksum."""


class JournalSequenceError(JournalError):
    """Record sequence numbers are not the expected 0,1,2,... chain
    (duplicate or gap), so the journal cannot be replayed."""


class CampaignResumeError(DurabilityError):
    """Replaying the journal produced state inconsistent with the
    recorded digests — the journal and the code disagree."""


class ServiceError(MyceliumError):
    """The long-lived query service failed or refused a request."""


class AdmissionRejected(ServiceError):
    """A submission was refused at the service's admission gate.

    Subclasses say why; every rejection is returned to the client as a
    typed error frame (``docs/SERVICE.md``) instead of entering the
    scheduler.  The privacy-budget ledger is never charged for a
    rejected submission.
    """


class BudgetRejected(AdmissionRejected):
    """Admitting the submission would push the epsilon ledger past the
    service's total budget (checked and charged atomically by the
    :class:`repro.service.admission.AdmissionController`)."""


class QueueFullRejected(AdmissionRejected):
    """The bounded admission queue is full — backpressure: retry later."""


class ServiceShutdown(ServiceError):
    """The service is draining or stopped and accepts no new work."""


class FrameError(ServiceError):
    """A wire frame violated the length-prefixed JSON protocol
    (oversized, truncated, or not a JSON object)."""


class DeadlineExceeded(ServiceError):
    """A per-query deadline expired somewhere along the
    admission → campaign → decode path.  The submission is dropped; if
    it never executed, its epsilon charge is refunded, and if it did
    execute the charge stands (the query ran, only the answer was too
    late to deliver)."""


class ClientTimeout(ServiceError):
    """A :class:`repro.service.client.ServiceClient` connect or read
    exceeded its configured timeout.  Raised client-side instead of
    hanging forever on a dead server socket."""


class CoordinatorCrash(MyceliumError):
    """A simulated coordinator process kill (fault injection / --kill-at).

    Raised *after* any in-flight journal record is durable, so a resumed
    campaign continues from exactly this boundary.
    """

    def __init__(self, phase: str, query_index: int | None = None):
        self.phase = phase
        self.query_index = query_index
        where = phase if query_index is None else f"{phase} (query {query_index})"
        super().__init__(f"coordinator killed at {where}")
