"""Extended verifiable secret redistribution tests (§4.2)."""

import random

import pytest

from repro.crypto import feldman, shamir, vsr
from repro.errors import SecretSharingError

FIELD = 2**89 - 1
SECRET = 31337


@pytest.fixture(scope="module")
def group() -> feldman.CommitmentGroup:
    return feldman.group_for_field(FIELD)


@pytest.fixture
def epoch0(group) -> vsr.DealtSecret:
    return vsr.deal_initial(SECRET, 3, 5, group, random.Random(31))


class TestInitialDeal:
    def test_shares_reconstruct(self, epoch0):
        assert shamir.reconstruct_secret(epoch0.shares[:3], FIELD) == SECRET

    def test_shares_verify_against_commitment(self, epoch0):
        for share in epoch0.shares:
            assert epoch0.commitment.verify_share(share)


class TestRedistribution:
    def test_preserves_secret(self, group, epoch0):
        rng = random.Random(32)
        new_shares, _ = vsr.redistribute(
            epoch0.shares,
            epoch0.commitment,
            old_threshold=3,
            new_threshold=4,
            new_size=7,
            group=group,
            rng=rng,
        )
        assert shamir.reconstruct_secret(new_shares[:4], FIELD) == SECRET
        assert shamir.reconstruct_secret(new_shares[3:7], FIELD) == SECRET

    def test_new_commitment_verifies_new_shares(self, group, epoch0):
        rng = random.Random(33)
        new_shares, new_commitment = vsr.redistribute(
            epoch0.shares, epoch0.commitment, 3, 3, 5, group, rng
        )
        for share in new_shares:
            assert new_commitment.verify_share(share)

    def test_chained_epochs(self, group, epoch0):
        """Key handoff across three committee generations (the steady
        state of Mycelium's operation)."""
        rng = random.Random(34)
        shares, commitment = epoch0.shares, epoch0.commitment
        threshold = 3
        for new_threshold, new_size in ((2, 4), (3, 5), (2, 3)):
            shares, commitment = vsr.redistribute(
                shares, commitment, threshold, new_threshold, new_size, group, rng
            )
            threshold = new_threshold
        assert shamir.reconstruct_secret(shares[:threshold], FIELD) == SECRET

    def test_cross_epoch_shares_do_not_combine(self, group, epoch0):
        """Members of different committees cannot pool shares: mixing
        epochs yields garbage, not the secret."""
        rng = random.Random(35)
        new_shares, _ = vsr.redistribute(
            epoch0.shares, epoch0.commitment, 3, 3, 5, group, rng
        )
        mixed = [epoch0.shares[0], epoch0.shares[1], new_shares[2]]
        assert shamir.reconstruct_secret(mixed, FIELD) != SECRET

    def test_corrupt_dealer_detected_and_excluded(self, group, epoch0):
        rng = random.Random(36)
        new_shares, _ = vsr.redistribute(
            epoch0.shares,
            epoch0.commitment,
            3,
            3,
            5,
            group,
            rng,
            corrupt_dealers={2, 4},
        )
        assert shamir.reconstruct_secret(new_shares[:3], FIELD) == SECRET

    def test_too_many_corrupt_dealers_fails(self, group, epoch0):
        rng = random.Random(37)
        with pytest.raises(SecretSharingError):
            vsr.redistribute(
                epoch0.shares,
                epoch0.commitment,
                3,
                3,
                5,
                group,
                rng,
                corrupt_dealers={1, 2, 3},
            )


class TestPackageVerification:
    def test_honest_package_verifies(self, group, epoch0):
        rng = random.Random(38)
        package = vsr.redistribute_share(epoch0.shares[0], 3, 5, group, rng)
        for j in range(1, 6):
            assert vsr.verify_package(package, epoch0.commitment, j)

    def test_wrong_secret_package_rejected(self, group, epoch0):
        rng = random.Random(39)
        fake = shamir.Share(1, (epoch0.shares[0].value + 5) % FIELD)
        package = vsr.redistribute_share(fake, 3, 5, group, rng)
        assert not vsr.verify_package(package, epoch0.commitment, 1)

    def test_missing_subshare_rejected(self, group, epoch0):
        rng = random.Random(40)
        package = vsr.redistribute_share(epoch0.shares[0], 3, 5, group, rng)
        assert not vsr.verify_package(package, epoch0.commitment, 99)

    def test_combine_requires_threshold(self, group, epoch0):
        rng = random.Random(41)
        package = vsr.redistribute_share(epoch0.shares[0], 3, 5, group, rng)
        with pytest.raises(SecretSharingError):
            vsr.combine_packages([package], [1], old_threshold=3, group=group)
