"""Committee tests: threshold decryption, in-MPC noise, VSR rotation."""

import dataclasses
import random

import pytest

from repro.core import committee as committee_mod
from repro.crypto import bgv
from repro.errors import ProtocolError, RobustDecodingError
from repro.params import TEST


@pytest.fixture(scope="module")
def shared():
    rng = random.Random(77)
    secret, public = bgv.keygen(TEST, rng)
    committee = committee_mod.genesis_share_key(
        secret, member_ids=[3, 8, 11], threshold=2, rng=rng
    )
    return secret, public, committee


class TestGenesisSharing:
    def test_shares_verify_against_commitments(self, shared):
        _, _, committee = shared
        for member in committee.members:
            assert committee.verify_member_shares(member)

    def test_tampered_share_detected(self, shared):
        _, _, committee = shared
        from repro.crypto.shamir import VectorShare

        member = committee.members[0]
        values = list(member.key_share.values)
        values[0] = (values[0] + 1) % TEST.q
        tampered = committee_mod.CommitteeMember(
            device_id=member.device_id,
            share_index=member.share_index,
            key_share=VectorShare(member.share_index, tuple(values)),
        )
        assert not committee.verify_member_shares(tampered)

    def test_population_too_small(self):
        with pytest.raises(ProtocolError):
            committee_mod.elect_committee([1, 2], 5, random.Random(0))


class TestThresholdDecryption:
    def test_matches_direct_decryption(self, shared, rng):
        secret, public, committee = shared
        ct = bgv.encrypt_monomial(public, 9, rng)
        via_committee, flagged = committee_mod.threshold_decrypt(
            committee, ct, rng
        )
        direct = bgv.decrypt(secret, ct)
        assert via_committee.coeffs == direct.coeffs
        assert flagged == set()

    def test_any_threshold_subset_works(self, shared, rng):
        secret, public, committee = shared
        ct = bgv.encrypt_monomial(public, 5, rng)
        for participating in ([3, 8], [8, 11], [3, 11]):
            plain, _ = committee_mod.threshold_decrypt(
                committee, ct, rng, participating=participating
            )
            assert plain.coeffs == bgv.decrypt(secret, ct).coeffs

    def test_liveness_failure_raises(self, shared, rng):
        _, public, committee = shared
        ct = bgv.encrypt_monomial(public, 1, rng)
        with pytest.raises(ProtocolError):
            committee_mod.threshold_decrypt(
                committee, ct, rng, participating=[3]
            )

    def test_decrypts_aggregated_ciphertexts(self, shared, rng):
        secret, public, committee = shared
        total = bgv.encrypt_monomial(public, 2, rng)
        for _ in range(4):
            total = bgv.add(total, bgv.encrypt_monomial(public, 2, rng))
        plain, _ = committee_mod.threshold_decrypt(committee, total, rng)
        assert plain.coeffs[2] == 5

    def test_requires_degree_one(self, shared, rng):
        _, public, committee = shared
        prod = bgv.multiply(
            bgv.encrypt_monomial(public, 1, rng),
            bgv.encrypt_monomial(public, 1, rng),
        )
        with pytest.raises(ProtocolError):
            committee_mod.threshold_decrypt(committee, prod, rng)


def noise(committee, seeds=None, query_index=0, group=0, count=5, scale=2.0):
    return committee_mod.committee_noise(
        committee, count, scale, seeds, query_index=query_index, group=group
    )


class TestCommitteeNoise:
    def test_deterministic_for_same_seeds(self, shared):
        _, _, committee = shared
        seeds = {3: 111, 8: 222, 11: 333}
        assert noise(committee, seeds) == noise(committee, seeds)

    def test_deterministic_for_same_draw(self, shared):
        _, _, committee = shared
        assert noise(committee, query_index=4, group=2) == noise(
            committee, query_index=4, group=2
        )

    def test_single_member_cannot_control(self, shared):
        """Changing any one member's seed changes the noise — no member
        can steer it alone."""
        _, _, committee = shared
        base = {3: 1, 8: 2, 11: 3}
        reference = noise(committee, base, count=3)
        for member in base:
            changed = dict(base)
            changed[member] = 999
            assert noise(committee, changed, count=3) != reference

    def test_count_and_zero_scale(self, shared):
        _, _, committee = shared
        assert noise(committee, count=7, scale=0.0) == [0.0] * 7

    def test_every_draw_coordinate_changes_the_noise(self, shared):
        _, _, committee = shared
        reference = noise(committee)
        assert noise(committee, query_index=1) != reference
        assert noise(committee, group=1) != reference
        rotated = dataclasses.replace(committee, epoch=1)
        assert noise(rotated) != reference

    def test_geneses_with_the_same_member_ids_draw_different_noise(
        self, shared
    ):
        """The seed shares come from the secret key shares, not from the
        public member ids."""
        secret, _, committee = shared
        other = committee_mod.genesis_share_key(
            secret, member_ids=[3, 8, 11], threshold=2, rng=random.Random(78)
        )
        assert noise(other) != noise(committee)


class TestRotation:
    def test_decryption_survives_rotation(self, shared, rng):
        secret, public, committee = shared
        ct = bgv.encrypt_monomial(public, 7, rng)
        new = committee_mod.rotate_committee(
            committee, new_member_ids=[1, 5, 9], new_threshold=2, rng=rng
        )
        plain, _ = committee_mod.threshold_decrypt(new, ct, rng)
        assert plain.coeffs == bgv.decrypt(secret, ct).coeffs
        assert new.epoch == committee.epoch + 1

    def _mixed_epochs(self, shared, rng, old_members):
        """A committee pooling ``old_members`` of epoch 0 with the
        next-index member of epoch 1."""
        secret, public, committee = shared
        new = committee_mod.rotate_committee(
            committee, new_member_ids=[1, 5, 9], new_threshold=2, rng=rng
        )
        mixed = dataclasses.replace(
            committee,
            members=[
                *committee.members[:old_members],
                new.members[old_members],
            ],
        )
        return secret, bgv.encrypt_monomial(public, 7, rng), mixed

    def test_cross_epoch_shares_decode_wrong_at_threshold(
        self, shared, rng
    ):
        """Members of different committees cannot pool shares (§4.2):
        with no redundancy every word decodes, to the wrong plaintext."""
        secret, ct, mixed = self._mixed_epochs(shared, rng, 1)
        plain, flagged = committee_mod.threshold_decrypt(mixed, ct, rng)
        assert plain.coeffs != bgv.decrypt(secret, ct).coeffs
        assert flagged == set()

    def test_cross_epoch_shares_refused_above_threshold(self, shared, rng):
        """One member past the threshold detects the pooled shares: no
        degree-1 polynomial explains the word, so decoding refuses."""
        _, ct, mixed = self._mixed_epochs(shared, rng, 2)
        with pytest.raises(RobustDecodingError):
            committee_mod.threshold_decrypt(mixed, ct, rng)

    def test_corrupt_dealer_tolerated(self, shared, rng):
        secret, public, committee = shared
        new = committee_mod.rotate_committee(
            committee,
            new_member_ids=[2, 6, 10],
            new_threshold=2,
            rng=rng,
            corrupt_dealers={committee.members[0].device_id},
        )
        ct = bgv.encrypt_monomial(public, 4, rng)
        plain, _ = committee_mod.threshold_decrypt(new, ct, rng)
        assert plain.coeffs == bgv.decrypt(secret, ct).coeffs

    def test_new_shares_verify(self, shared, rng):
        _, _, committee = shared
        new = committee_mod.rotate_committee(
            committee, new_member_ids=[4, 7, 12], new_threshold=2, rng=rng
        )
        for member in new.members:
            assert new.verify_member_shares(member)
