"""Actively-secure threshold decryption: wrong partials are corrected
and their authors flagged in one Reed-Solomon decoding pass (§5's
error-detection property)."""

import random

import pytest

from repro.core import committee as committee_mod
from repro.crypto import bgv
from repro.errors import (
    LivenessQuorumError,
    ProtocolError,
    RobustDecodingError,
)
from repro.params import TEST


@pytest.fixture(scope="module")
def shared():
    rng = random.Random(171)
    secret, public = bgv.keygen(TEST, rng)
    committee = committee_mod.genesis_share_key(
        secret, member_ids=[1, 4, 7, 9], threshold=2, rng=rng
    )
    ct = bgv.encrypt_monomial(public, 11, rng)
    return rng, secret, public, committee, ct


def lie(*liars):
    """A corruption hook: each listed member's partial is off by its
    device id plus one."""

    def corrupt(device_id, value):
        if device_id in liars:
            return value + type(value).constant(value.params, device_id + 1)
        return value

    return corrupt


class TestRobustDecryption:
    def test_all_honest(self, shared):
        rng, secret, _, committee, ct = shared
        plaintext, flagged = committee_mod.threshold_decrypt(
            committee, ct, rng
        )
        assert plaintext.coeffs == bgv.decrypt(secret, ct).coeffs
        assert flagged == set()

    def test_one_corrupt_member_detected(self, shared):
        rng, secret, _, committee, ct = shared
        plaintext, flagged = committee_mod.threshold_decrypt(
            committee, ct, rng, corrupt=lie(4)
        )
        assert plaintext.coeffs == bgv.decrypt(secret, ct).coeffs
        assert flagged == {4}

    def test_corrupt_minority_outvoted(self, shared):
        """With 4 members at threshold 2 the unique-decoding radius is
        (4 - 2) // 2 = 1: one lying member is corrected through — and
        the answer is always the true plaintext."""
        rng, secret, _, committee, ct = shared
        plaintext, flagged = committee_mod.threshold_decrypt(
            committee, ct, rng, corrupt=lie(9)
        )
        assert plaintext.coeffs == bgv.decrypt(secret, ct).coeffs
        assert 9 in flagged

    def test_too_small_committee_rejected(self, shared):
        """A corruption hook needs threshold + 1 members to detect."""
        rng, secret, _, _, ct = shared
        tiny = committee_mod.genesis_share_key(
            secret, member_ids=[1, 2], threshold=2, rng=random.Random(5)
        )
        with pytest.raises(ProtocolError):
            committee_mod.decrypt_with_liveness_retry(
                tiny, ct, rng, [[1, 2]], corrupt=lie()
            )


class TestLivenessRetry:
    """The single liveness wrapper without a corruption hook: the first
    threshold present members decode, quorum = threshold."""

    def test_retries_until_quorum(self, shared):
        """§6.5: wait for members to return, then retry."""
        rng, secret, _, committee, ct = shared
        schedule = [[1], [4], [1, 7]]  # two failed attempts, then quorum
        plaintext, attempts, flagged = (
            committee_mod.decrypt_with_liveness_retry(
                committee, ct, rng, schedule
            )
        )
        assert attempts == 3
        assert flagged == set()
        assert plaintext.coeffs == bgv.decrypt(secret, ct).coeffs

    def test_first_attempt_succeeds(self, shared):
        rng, secret, _, committee, ct = shared
        plaintext, attempts, _ = committee_mod.decrypt_with_liveness_retry(
            committee, ct, rng, [[1, 4, 7, 9]]
        )
        assert attempts == 1

    def test_never_enough_members(self, shared):
        rng, _, _, committee, ct = shared
        with pytest.raises(ProtocolError):
            committee_mod.decrypt_with_liveness_retry(
                committee, ct, rng, [[1], [9], []]
            )

    def test_exhausted_schedule_raises_quorum_error(self, shared):
        """The exhausted-schedule failure is the *liveness* error, so
        callers can distinguish churn from corruption."""
        rng, _, _, committee, ct = shared
        with pytest.raises(LivenessQuorumError):
            committee_mod.decrypt_with_liveness_retry(
                committee, ct, rng, [[1], [9], []]
            )

    def test_non_liveness_error_propagates(self, shared, monkeypatch):
        """Regression: the retry loop used to swallow *every*
        ProtocolError, so a corruption-induced decode failure looked
        identical to a liveness miss and was silently retried.  A
        ProtocolError that is not a quorum miss must escape on the
        first attempt — this test fails against the old
        ``except ProtocolError: continue`` behaviour."""
        rng, _, _, committee, ct = shared

        def poisoned(
            committee, ciphertext, rng, participating=None, corrupt=None
        ):
            raise ProtocolError("decode failed under corruption")

        monkeypatch.setattr(
            committee_mod, "threshold_decrypt", poisoned
        )
        with pytest.raises(ProtocolError, match="corruption") as info:
            committee_mod.decrypt_with_liveness_retry(
                committee, ct, rng, [[1, 4], [1, 4, 7, 9]]
            )
        assert not isinstance(info.value, LivenessQuorumError)


def honest(device_id, value):
    """A corruption hook that corrupts nobody: raises the quorum to the
    redundant one without injecting a lie."""
    return value


class TestRobustLivenessRetry:
    """The same wrapper with a corruption hook: every present member
    decodes, quorum = threshold + 1."""

    def test_waits_for_redundant_quorum_then_flags(self, shared):
        """Robust retry needs threshold + 1 present (redundancy for
        error detection); once a quorum shows up the liar is corrected
        and flagged in the same pass."""
        rng, secret, _, committee, ct = shared
        schedule = [[1, 4], [1, 4, 7, 9]]  # t members is not enough
        plaintext, attempts, flagged = (
            committee_mod.decrypt_with_liveness_retry(
                committee, ct, rng, schedule,
                corrupt=lambda d, v: v + type(v).constant(v.params, 3)
                if d == 7 else v,
            )
        )
        assert attempts == 2
        assert flagged == {7}
        assert plaintext.coeffs == bgv.decrypt(secret, ct).coeffs

    def test_corruption_failure_is_not_retried(self, shared):
        """Two liars among four members exceed the radius: the decode
        failure must propagate instead of being retried as churn."""
        rng, _, _, committee, ct = shared
        calls = []

        def corrupt(device_id, value):
            if device_id in (4, 9):
                calls.append(device_id)
                return value + type(value).constant(value.params, 5)
            return value

        with pytest.raises(RobustDecodingError):
            committee_mod.decrypt_with_liveness_retry(
                committee, ct, rng,
                [[1, 4, 7, 9], [1, 4, 7, 9]],
                corrupt=corrupt,
            )
        assert len(calls) == 2  # each liar poisoned once: no second attempt

    def test_exhausted_schedule_raises_quorum_error(self, shared):
        rng, _, _, committee, ct = shared
        with pytest.raises(LivenessQuorumError):
            committee_mod.decrypt_with_liveness_retry(
                committee, ct, rng, [[1], [4, 7]], corrupt=honest
            )

    def test_quorum_follows_the_corruption_hook(self, shared):
        """The same schedule that starves a hooked decode (t members
        online, t + 1 needed) is a quorum without the hook: the hook
        alone moves the bar."""
        rng, secret, _, committee, ct = shared
        plaintext, attempts, flagged = (
            committee_mod.decrypt_with_liveness_retry(
                committee, ct, rng, [[1], [4, 7]]
            )
        )
        assert (attempts, flagged) == (2, set())
        assert plaintext.coeffs == bgv.decrypt(secret, ct).coeffs

    def test_honest_hook_flags_nobody(self, shared):
        rng, secret, _, committee, ct = shared
        plaintext, attempts, flagged = (
            committee_mod.decrypt_with_liveness_retry(
                committee, ct, rng, [[1, 4, 7]], corrupt=honest
            )
        )
        assert (attempts, flagged) == (1, set())
        assert plaintext.coeffs == bgv.decrypt(secret, ct).coeffs
