"""Bit-identity pin for genesis, encryption and VSR rotation.

Hashes one seeded genesis — the public-key fingerprint, every
relinearization-key piece, every Feldman commitment, every member's key
share — and the bytes of five seeded ``encrypt_monomial`` ciphertexts;
and, separately, the commitments and shares of a committee after two
rotations.  The expected digests were computed before the ternary
product basis, the fixed-base commitment table, the cache-bypassing
genesis products and the once-per-coefficient epoch commitment existed;
any change that moves a single key, share, commitment or ciphertext
byte fails here.
"""

import hashlib
import random

import pytest

from repro.core import committee as committee_mod
from repro.crypto import bgv
from repro.params import SMALL, TEST
from repro.runtime import available_backends, use_backend

#: Profile name -> digest of :func:`genesis_digest`.
PINNED = {
    "test": "3cb3fe497aad5c85d8097313639abdccadef003dccbc1e1de8614bc05fdd7b14",
    "small": "f53e8be959c629c86e795ee3e410c60944cda5204ea559079b03b02d91d5de17",
    "rotation": "eaa9648755e13a44c99fca620b1201ef4a162f1d5e57833f22620c1e8f2b78e1",
}
RELIN_POWER = {"test": 3, "small": 5}
SEED = 0x6E5E


def _int_bytes(value: int, width: int) -> bytes:
    return value.to_bytes(width, "big")


def _committee_bytes(committee) -> bytes:
    """Every Feldman commitment, then every member's key share."""
    q_width = (committee.profile.q.bit_length() + 7) // 8
    p_width = (committee.group.modulus.bit_length() + 7) // 8
    chunks = [
        _int_bytes(c, p_width)
        for commitment in committee.commitments
        for c in commitment.commitments
    ]
    for member in committee.members:
        chunks.append(_int_bytes(member.share_index, 4))
        chunks.extend(_int_bytes(v, q_width) for v in member.key_share.values)
    return b"".join(chunks)


def genesis_digest(profile) -> str:
    rng = random.Random(SEED)
    secret, public = bgv.keygen(profile, rng)
    relin = bgv.make_relin_keys(secret, RELIN_POWER[profile.name], rng)
    committee = committee_mod.genesis_share_key(secret, [0, 1, 2], 2, rng)
    q_width = (profile.q.bit_length() + 7) // 8
    digest = hashlib.sha256(public.fingerprint())
    for power in sorted(relin.keys):
        for piece in relin.keys[power].pieces:
            for element in piece:
                for c in element.coeffs:
                    digest.update(_int_bytes(c, q_width))
    digest.update(_committee_bytes(committee))
    encrypt_rng = random.Random(SEED + 1)
    for exponent in range(5):
        digest.update(
            bgv.encrypt_monomial(public, 7 * exponent, encrypt_rng).serialize()
        )
    return digest.hexdigest()


def rotation_digest() -> str:
    """A TEST-ring committee handed on by VSR twice: 2-of-3 to 3-of-4
    (with one corrupt dealer excluded), then 3-of-4 to 2-of-3."""
    rng = random.Random(SEED + 2)
    secret, _ = bgv.keygen(TEST, rng)
    committee = committee_mod.genesis_share_key(secret, [0, 1, 2], 2, rng)
    committee = committee_mod.rotate_committee(
        committee, [3, 4, 5, 6], 3, rng, corrupt_dealers={1}
    )
    committee = committee_mod.rotate_committee(committee, [7, 8, 9], 2, rng)
    return hashlib.sha256(_committee_bytes(committee)).hexdigest()


@pytest.mark.parametrize("backend", available_backends())
def test_test_ring_genesis_is_pinned(backend):
    with use_backend(backend):
        assert genesis_digest(TEST) == PINNED["test"]


def test_rotation_is_pinned():
    assert rotation_digest() == PINNED["rotation"]


@pytest.mark.slow
def test_small_ring_genesis_is_pinned():
    with use_backend("auto"):
        assert genesis_digest(SMALL) == PINNED["small"]
