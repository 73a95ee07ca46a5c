"""Actively-secure threshold decryption: wrong partials are corrected
and their authors flagged in one Reed-Solomon decoding pass (§5's
error-detection property), on a quorum the §6.5 wait found live."""

import dataclasses
import random

import pytest

from repro.core import committee as committee_mod
from repro.crypto import bgv
from repro.errors import (
    LivenessQuorumError,
    ProtocolError,
    RobustDecodingError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import NEVER_RECOVERS
from repro.params import TEST
from tests.conftest import build_system


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


@pytest.fixture(scope="module")
def deployment():
    """``deployment(committee)``: a system whose committee is the given
    one, for its quorum wait and its open step.  The open checks its
    quorum before it reads the plan or the metadata."""
    system = build_system()
    plan = system.compile(
        "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf"
    )
    return lambda committee: (
        dataclasses.replace(system, committee=committee), plan
    )


def away(windows):
    """An injector for ``{device: (start, end)}`` absence windows."""
    plan = FaultPlan(seed=0)
    for device, (start, end) in windows.items():
        plan = plan.with_absence([device], start, end)
    return FaultInjector(plan)


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

    def test_too_small_committee_rejected(self, shared, deployment):
        """A corruption hook needs threshold + 1 members to detect."""
        rng, secret, _, _, ct = shared
        tiny = committee_mod.genesis_share_key(
            secret, member_ids=[1, 2], threshold=2, rng=random.Random(5)
        )
        system, plan = deployment(tiny)
        with pytest.raises(ProtocolError):
            system.open_phase(plan, ct, rng, None, corrupt=lie())


class TestLivenessRetry:
    """The open quorum without a corruption hook: quorum = threshold,
    and the first ``threshold`` live members decrypt."""

    def test_never_enough_members(self, shared, deployment):
        rng, _, _, committee, ct = shared
        system, plan = deployment(committee)
        with pytest.raises(ProtocolError):
            system.open_phase(plan, ct, rng, None, live=[9])

    def test_exhausted_schedule_raises_quorum_error(self, shared, deployment):
        """Below quorum is the *liveness* error, so callers can tell
        churn from corruption — whether the open is handed too few live
        members or the wait runs out with members crashed for good."""
        rng, _, _, committee, ct = shared
        system, plan = deployment(committee)
        with pytest.raises(LivenessQuorumError):
            system.open_phase(plan, ct, rng, None, live=[1])
        crashed = away({d: (0, NEVER_RECOVERS) for d in (4, 7, 9)})
        with pytest.raises(LivenessQuorumError):
            system.await_open(crashed, 0)

    def test_wait_ends_when_a_quorum_is_back(self, shared, deployment):
        """§6.5: wait for members to return, then decrypt once."""
        rng, secret, _, committee, ct = shared
        system, _ = deployment(committee)
        injector = away({4: (0, 3), 7: (0, 5), 9: (0, NEVER_RECOVERS)})
        round_number, live = system.await_open(injector, 0)
        assert (round_number, live) == (3, [1, 4])
        quorum = committee_mod.open_quorum(committee, live, False)
        plaintext, flagged = committee_mod.threshold_decrypt(
            committee, ct, rng, participating=quorum
        )
        assert flagged == set()
        assert plaintext.coeffs == bgv.decrypt(secret, ct).coeffs

    def test_first_threshold_live_members_decrypt(self, shared):
        _, _, _, committee, _ = shared
        assert committee_mod.open_quorum(committee, [9, 7, 4], False) == [
            4, 7,
        ]
        assert committee_mod.open_quorum(committee, [9], False) is None


def honest(device_id, value):
    """A corruption hook that corrupts nobody: raises the quorum to the
    redundant one without injecting a lie."""
    return value


class TestRobustLivenessRetry:
    """The same quorum with a corruption hook: every live member
    decodes, quorum = threshold + 1."""

    def test_waits_for_redundant_quorum_then_flags(self, shared, deployment):
        """The hooked open waits for threshold + 1 live members
        (redundancy for error detection); once a quorum is back the liar
        is corrected and flagged in the same pass."""
        rng, secret, _, committee, ct = shared
        system, _ = deployment(committee)
        corrupt = lie(7)
        round_number, live = system.await_open(
            away({7: (0, 1), 9: (0, 1)}), 0, corrupt
        )
        assert (round_number, live) == (1, [1, 4, 7, 9])
        quorum = committee_mod.open_quorum(committee, live, True)
        plaintext, flagged = committee_mod.threshold_decrypt(
            committee, ct, rng, participating=quorum, corrupt=corrupt
        )
        assert flagged == {7}
        assert plaintext.coeffs == bgv.decrypt(secret, ct).coeffs

    def test_corruption_failure_is_not_retried(self, shared):
        """Two liars among four members exceed the radius: the decode
        failure propagates from the one decryption."""
        rng, _, _, committee, ct = shared
        calls = []

        def corrupt(device_id, value):
            if device_id in (4, 9):
                calls.append(device_id)
                return value + type(value).constant(value.params, 5)
            return value

        quorum = committee_mod.open_quorum(committee, [1, 4, 7, 9], True)
        with pytest.raises(RobustDecodingError):
            committee_mod.threshold_decrypt(
                committee, ct, rng, participating=quorum, corrupt=corrupt
            )
        assert len(calls) == 2  # each liar poisoned once

    def test_exhausted_schedule_raises_quorum_error(self, shared, deployment):
        rng, _, _, committee, ct = shared
        system, plan = deployment(committee)
        with pytest.raises(LivenessQuorumError):
            system.await_open(
                away({1: (0, NEVER_RECOVERS), 9: (0, NEVER_RECOVERS)}),
                0,
                honest,
            )
        with pytest.raises(LivenessQuorumError):
            system.open_phase(
                plan, ct, rng, None, live=[4, 7], corrupt=honest
            )

    def test_quorum_follows_the_corruption_hook(self, shared, deployment):
        """The absences that starve a hooked open (t members live, t + 1
        needed) leave a quorum without the hook: the hook alone moves
        the bar."""
        rng, secret, _, committee, ct = shared
        system, _ = deployment(committee)
        injector = away({1: (0, NEVER_RECOVERS), 9: (0, NEVER_RECOVERS)})
        round_number, live = system.await_open(injector, 0)
        assert (round_number, live) == (0, [4, 7])
        quorum = committee_mod.open_quorum(committee, live, False)
        plaintext, flagged = committee_mod.threshold_decrypt(
            committee, ct, rng, participating=quorum
        )
        assert flagged == set()
        assert plaintext.coeffs == bgv.decrypt(secret, ct).coeffs

    def test_honest_hook_flags_nobody(self, shared):
        rng, secret, _, committee, ct = shared
        quorum = committee_mod.open_quorum(committee, [1, 4, 7], True)
        assert quorum == [1, 4, 7]
        plaintext, flagged = committee_mod.threshold_decrypt(
            committee, ct, rng, participating=quorum, corrupt=honest
        )
        assert flagged == set()
        assert plaintext.coeffs == bgv.decrypt(secret, ct).coeffs
