"""Mid-handoff rotation failure: no torn key state, ever.

Regression suite for a real bug: ``vsr.redistribute`` used to decide
package validity *per new member*, so a dealer that crashed after
sending subshares to only part of the new committee was used by the
members it reached and skipped by the rest — leaving the new shares on
two different combined polynomials.  Decryption with a subset spanning
the split then silently produced garbage (a torn key).  The fix is
bulletin-board agreement: a dealer counts only if every new member
verifies its package, and the handoff commits atomically only when a
full ``threshold`` of dealers survive agreement.
"""

import random

import pytest

from repro.core import committee as committee_mod
from repro.crypto import bgv, vsr
from repro.errors import SecretSharingError
from repro.params import TEST


@pytest.fixture(scope="module")
def shared():
    rng = random.Random(1234)
    secret, public = bgv.keygen(TEST, rng)
    committee = committee_mod.genesis_share_key(
        secret, member_ids=[2, 5, 9], threshold=2, rng=rng
    )
    return secret, public, committee


def _decrypts_correctly(secret, public, committee, rng) -> None:
    """Every threshold subset of the committee must agree with the true key."""
    ct = bgv.encrypt_monomial(public, 4, rng)
    expected = bgv.decrypt(secret, ct).coeffs
    ids = [m.device_id for m in committee.members]
    for drop in range(len(ids)):
        participating = ids[:drop] + ids[drop + 1 :]
        plain, _ = committee_mod.threshold_decrypt(
            committee, ct, rng, participating=participating
        )
        assert plain.coeffs == expected, (
            f"torn key: subset {participating} decrypted wrong"
        )


class TestCrashedDealer:
    def test_partial_delivery_excluded_for_everyone(self, shared):
        """Dealer 2 (lowest share index) dies after reaching only new
        member 1 of 3.

        Pre-fix this committed a torn sharing: member 1 saw dealers
        {1,2,3} and combined {1,2}, while members 2-3 saw {2,3} and
        combined those — two different polynomials.  Post-fix the
        crashed dealer is excluded by agreement for everyone and the two
        surviving dealers (== threshold) carry the handoff.
        """
        secret, public, committee = shared
        rng = random.Random(7)
        rotated = committee_mod.rotate_committee(
            committee,
            new_member_ids=[1, 4, 6],
            new_threshold=2,
            rng=rng,
            crashed_dealers={2: 1},
        )
        assert rotated.epoch == committee.epoch + 1
        for member in rotated.members:
            assert rotated.verify_member_shares(member)
        _decrypts_correctly(secret, public, rotated, rng)

    def test_too_many_crashed_dealers_abort_atomically(self, shared):
        """Two of three dealers die mid-send: below threshold, so the
        handoff must refuse to commit and the *old* committee must still
        decrypt (it was never touched)."""
        secret, public, committee = shared
        rng = random.Random(8)
        with pytest.raises(SecretSharingError):
            committee_mod.rotate_committee(
                committee,
                new_member_ids=[1, 4, 6],
                new_threshold=2,
                rng=rng,
                crashed_dealers={2: 2, 5: 1},
            )
        # Old committee unaffected — still authoritative.
        _decrypts_correctly(secret, public, committee, rng)

    def test_agreement_excludes_partial_dealer_for_every_coefficient(
        self, shared
    ):
        """Direct check of the agreement step: the crashed dealer must be
        absent from the agreed set of *every* coefficient (no per-member
        divergence), and a truncated package must fail verification for
        the members it never reached."""
        _, _, committee = shared
        rng = random.Random(9)
        proposal = committee_mod.deal_rotation(
            committee,
            new_member_ids=[1, 4, 6],
            new_threshold=2,
            rng=rng,
            crashed_dealers={2: 1},
        )
        crashed_index = next(
            m.share_index
            for m in committee.members
            if m.device_id == 2
        )
        partial = proposal.packages[0][0]
        assert partial.dealer_index == crashed_index
        assert vsr.verify_package(partial, committee.commitments[0], 1)
        assert not vsr.verify_package(partial, committee.commitments[0], 2)
        agreed = committee_mod.agreed_dealer_sets(committee, proposal)
        for coeff_sets in agreed:
            dealers = {p.dealer_index for p in coeff_sets}
            assert crashed_index not in dealers
            assert len(dealers) == committee.threshold


class TestDealerSubsets:
    def test_emergency_reshare_with_live_dealers_only(self, shared):
        """A threshold-sized *subset* of the old committee can hand off
        alone — the mechanism behind emergency resharing when members
        churn out."""
        secret, public, committee = shared
        rng = random.Random(10)
        rotated = committee_mod.rotate_committee(
            committee,
            new_member_ids=[0, 3, 7],
            new_threshold=2,
            rng=rng,
            dealer_ids=[2, 5],  # member 9 is offline
        )
        assert rotated.epoch == committee.epoch + 1
        _decrypts_correctly(secret, public, rotated, rng)

    def test_below_threshold_dealers_cannot_hand_off(self, shared):
        _, _, committee = shared
        rng = random.Random(11)
        with pytest.raises(SecretSharingError):
            committee_mod.rotate_committee(
                committee,
                new_member_ids=[0, 3, 7],
                new_threshold=2,
                rng=rng,
                dealer_ids=[5],  # one dealer < threshold of 2
            )
