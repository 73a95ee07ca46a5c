"""RSA-PKCS1 (PEnc) tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def keypair():
    return rsa.generate_keypair(512, random.Random(51))


class TestKeygen:
    def test_modulus_size(self, keypair):
        private, public = keypair
        assert 500 <= public.n.bit_length() <= 513

    def test_distinct_keys(self):
        rng = random.Random(52)
        _, pub1 = rsa.generate_keypair(256, rng)
        _, pub2 = rsa.generate_keypair(256, rng)
        assert pub1.n != pub2.n

    def test_too_small_rejected(self):
        with pytest.raises(CryptoError):
            rsa.generate_keypair(64, random.Random(0))


class TestEncryptDecrypt:
    def test_roundtrip(self, keypair, rng):
        private, public = keypair
        ct = rsa.encrypt(public, b"sk_s_h1 key material", rng)
        assert rsa.decrypt(private, ct) == b"sk_s_h1 key material"

    @given(st.binary(min_size=0, max_size=32))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, keypair, message):
        private, public = keypair
        rng = random.Random(len(message))
        assert rsa.decrypt(private, rsa.encrypt(public, message, rng)) == message

    def test_randomized_padding(self, keypair, rng):
        _, public = keypair
        a = rsa.encrypt(public, b"same", rng)
        b = rsa.encrypt(public, b"same", rng)
        assert a != b

    def test_message_too_long(self, keypair, rng):
        private, public = keypair
        with pytest.raises(CryptoError):
            rsa.encrypt(public, b"x" * (public.max_message_bytes + 1), rng)

    def test_max_length_message(self, keypair, rng):
        private, public = keypair
        message = b"m" * public.max_message_bytes
        assert rsa.decrypt(private, rsa.encrypt(public, message, rng)) == message

    def test_wrong_key_fails(self, keypair, rng):
        _, public = keypair
        other_private, _ = rsa.generate_keypair(512, random.Random(53))
        ct = rsa.encrypt(public, b"secret", rng)
        with pytest.raises(CryptoError):
            rsa.decrypt(other_private, ct)

    def test_bad_ciphertext_length(self, keypair):
        private, _ = keypair
        with pytest.raises(CryptoError):
            rsa.decrypt(private, b"\x01\x02")

    def test_out_of_range_ciphertext(self, keypair):
        private, public = keypair
        too_big = (private.n + 1).to_bytes(public.modulus_bytes, "big")
        with pytest.raises(CryptoError):
            rsa.decrypt(private, too_big)


class TestSerialization:
    def test_public_key_roundtrip(self, keypair):
        _, public = keypair
        assert rsa.RsaPublicKey.deserialize(public.serialize()) == public


class TestCrtDecryption:
    """``decrypt`` exponentiates mod p and mod q; the recombined value
    must be the textbook ``c^d mod n`` for every key and ciphertext."""

    @pytest.mark.parametrize("bits", [128, 257, 512])
    def test_equals_the_full_size_exponentiation(self, bits):
        rng = random.Random(bits)
        for _ in range(3):
            private, _ = rsa.generate_keypair(bits, rng)
            assert private.p * private.q == private.n
            values = [0, 1, private.p, private.q, private.n - 1]
            values += [rng.randrange(private.n) for _ in range(20)]
            for value in values:
                assert rsa._private_power(private, value) == pow(
                    value, private.d, private.n
                )

    def test_decrypt_agrees_with_the_textbook_path(self, keypair, rng):
        private, public = keypair
        for size in (0, 1, 32, public.max_message_bytes):
            message = bytes(rng.randrange(256) for _ in range(size))
            ciphertext = rsa.encrypt(public, message, rng)
            plain = pow(int.from_bytes(ciphertext, "big"), private.d, private.n)
            block = plain.to_bytes(public.modulus_bytes, "big")
            assert rsa.decrypt(private, ciphertext) == rsa._unpad_pkcs1(block) == message
