"""Feldman VSS commitment tests."""

import dataclasses
import pickle
import random

import pytest

from repro.crypto import feldman, shamir
from repro.crypto.modmath import is_prime
from repro.errors import SecretSharingError
from repro.params import SMALL, TEST

FIELD = 2**89 - 1  # Mersenne prime, keeps the group search fast


@pytest.fixture(scope="module")
def group() -> feldman.CommitmentGroup:
    return feldman.group_for_field(FIELD)


class TestGroup:
    def test_group_structure(self, group):
        assert is_prime(group.modulus)
        assert (group.modulus - 1) % group.order == 0
        assert pow(group.generator, group.order, group.modulus) == 1
        assert group.generator != 1

    def test_group_cached(self):
        assert feldman.group_for_field(FIELD) is feldman.group_for_field(FIELD)

    def test_composite_field_rejected(self):
        with pytest.raises(SecretSharingError):
            feldman.group_for_field(2**16)

    def test_equality_and_hash_are_the_three_fields(self, group):
        group.commit(12345)  # the fixed-base table exists now
        assert [f.name for f in dataclasses.fields(group)] == [
            "modulus", "order", "generator",
        ]
        assert vars(group) == {
            "modulus": group.modulus,
            "order": group.order,
            "generator": group.generator,
        }
        twin = feldman.CommitmentGroup(group.modulus, group.order, group.generator)
        assert twin == group and hash(twin) == hash(group)


def _edge_exponents(q: int) -> list[int]:
    edges = [0, 1, q - 1, q, q + 1, -1, -q, 2 * q - 1]
    for k in range(1, (q.bit_length() + 7) // 8 + 1):
        edges += [(1 << (8 * k)) - 1, 1 << (8 * k), (1 << (8 * k)) + 1]
    rng = random.Random(q.bit_length())
    return edges + [rng.randrange(-4 * q, 4 * q) for _ in range(64)]


class TestFixedBaseCommit:
    """``commit`` reads a table of ``g^(j·256^i)`` instead of running
    ``pow``; every value must be the one ``pow`` gives."""

    @pytest.mark.parametrize(
        "field", [FIELD, TEST.q, SMALL.q], ids=["field89", "test", "small"]
    )
    def test_commit_equals_pow(self, field):
        group = feldman.group_for_field(field)
        for e in _edge_exponents(field):
            assert group.commit(e) == pow(
                group.generator, e % group.order, group.modulus
            ), e

    def test_table_is_never_pickled_or_serialized(self):
        from repro.core import committee as committee_mod
        from repro.crypto import bgv
        from repro.durability import serialize

        rng = random.Random(8)
        secret, _ = bgv.keygen(TEST, rng)
        committee = committee_mod.genesis_share_key(secret, [0, 1, 2], 2, rng)
        group = committee.group
        entry = feldman._window_table(group)[1][2]  # g^512, not a commitment
        blob = pickle.dumps(committee)
        assert entry.to_bytes((entry.bit_length() + 8) // 8, "little") not in blob
        assert len(pickle.dumps(group)) < 3 * (group.modulus.bit_length() // 8 + 64)
        assert pickle.loads(blob).commitments == committee.commitments
        assert serialize.committee_digest(committee) == serialize.digest_json(
            {
                "epoch": committee.epoch,
                "threshold": committee.threshold,
                "members": [m.device_id for m in committee.members],
                "commitments": [list(c.commitments) for c in committee.commitments],
            }
        )


class TestCommitments:
    def test_valid_shares_verify(self, group):
        rng = random.Random(21)
        shares, poly = shamir.share_secret(
            777, 3, 5, FIELD, rng, return_polynomial=True
        )
        commitment = feldman.PolynomialCommitment.commit_polynomial(group, poly)
        for share in shares:
            assert commitment.verify_share(share)

    def test_tampered_share_rejected(self, group):
        rng = random.Random(22)
        shares, poly = shamir.share_secret(
            777, 3, 5, FIELD, rng, return_polynomial=True
        )
        commitment = feldman.PolynomialCommitment.commit_polynomial(group, poly)
        bad = shamir.Share(shares[0].index, (shares[0].value + 1) % FIELD)
        assert not commitment.verify_share(bad)

    def test_share_at_wrong_index_rejected(self, group):
        rng = random.Random(23)
        shares, poly = shamir.share_secret(
            777, 3, 5, FIELD, rng, return_polynomial=True
        )
        commitment = feldman.PolynomialCommitment.commit_polynomial(group, poly)
        swapped = shamir.Share(2, shares[0].value)  # share 1's value at index 2
        assert not commitment.verify_share(swapped)

    def test_secret_commitment_is_constant_term(self, group):
        rng = random.Random(24)
        _, poly = shamir.share_secret(55, 2, 3, FIELD, rng, return_polynomial=True)
        commitment = feldman.PolynomialCommitment.commit_polynomial(group, poly)
        assert commitment.secret_commitment == group.commit(55)

    def test_verify_or_raise(self, group):
        rng = random.Random(25)
        shares, poly = shamir.share_secret(
            9, 2, 3, FIELD, rng, return_polynomial=True
        )
        commitment = feldman.PolynomialCommitment.commit_polynomial(group, poly)
        feldman.verify_or_raise(commitment, shares[0])
        with pytest.raises(SecretSharingError):
            feldman.verify_or_raise(
                commitment, shamir.Share(1, (shares[0].value + 1) % FIELD)
            )
