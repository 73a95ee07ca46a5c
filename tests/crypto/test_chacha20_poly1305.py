"""RFC 8439 test vectors for ChaCha20 and Poly1305, plus AE behaviour."""

import pytest

from repro.crypto import aead, chacha20, poly1305
from repro.errors import AuthenticationError, CryptoError

RFC_KEY = bytes(range(32))
SUNSCREEN = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)


class TestChaCha20Vectors:
    def test_block_function_vector(self):
        """RFC 8439 §2.3.2."""
        nonce = bytes.fromhex("000000090000004a00000000")
        block = chacha20.chacha20_block(RFC_KEY, 1, nonce)
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e"
        )
        assert block == expected

    def test_encryption_vector(self):
        """RFC 8439 §2.4.2."""
        nonce = bytes.fromhex("000000000000004a00000000")
        ciphertext = chacha20.chacha20_xor(RFC_KEY, nonce, SUNSCREEN, 1)
        expected_start = bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b"
        )
        assert ciphertext[:32] == expected_start
        assert len(ciphertext) == len(SUNSCREEN)

    def test_xor_is_involution(self):
        nonce = b"\x00" * 12
        ct = chacha20.chacha20_xor(RFC_KEY, nonce, b"hello mycelium")
        assert chacha20.chacha20_xor(RFC_KEY, nonce, ct) == b"hello mycelium"

    def test_key_length_enforced(self):
        with pytest.raises(CryptoError):
            chacha20.chacha20_block(b"short", 0, b"\x00" * 12)

    def test_nonce_length_enforced(self):
        with pytest.raises(CryptoError):
            chacha20.chacha20_block(RFC_KEY, 0, b"\x00" * 8)


class TestPoly1305Vector:
    def test_rfc_vector(self):
        """RFC 8439 §2.5.2."""
        key = bytes.fromhex(
            "85d6be7857556d337f4452fe42d506a8"
            "0103808afb0db2fd4abff6af4149f51b"
        )
        tag = poly1305.poly1305_mac(key, b"Cryptographic Forum Research Group")
        assert tag == bytes.fromhex("a8061dc1305136c6c22b8baf0c0127a9")

    def test_key_length_enforced(self):
        with pytest.raises(CryptoError):
            poly1305.poly1305_mac(b"short", b"msg")


class TestAeadVector:
    def test_rfc_aead_tag(self):
        """RFC 8439 §2.8.2, through ``ae_seal``: the vector's nonce read
        as the 96-bit round number it encodes."""
        key = bytes(range(0x80, 0xA0))
        nonce = bytes.fromhex("070000004041424344454647")
        aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
        sealed = aead.ae_seal(key, int.from_bytes(nonce, "big"), SUNSCREEN, aad)
        assert sealed[:-16] == chacha20.chacha20_xor(key, nonce, SUNSCREEN, 1)
        assert sealed[-16:] == bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")


class TestAeInterface:
    KEY = bytes(range(32))

    def test_seal_open_roundtrip(self):
        sealed = aead.ae_seal(self.KEY, 7, b"are you ill?")
        assert aead.ae_open(self.KEY, 7, sealed) == b"are you ill?"

    def test_roundtrip_with_aad(self):
        sealed = aead.ae_seal(self.KEY, 3, b"payload", aad=b"path-id-42")
        assert aead.ae_open(self.KEY, 3, sealed, aad=b"path-id-42") == b"payload"

    def test_wrong_round_rejected(self):
        """The nonce is the round number and is never transmitted; a
        replay in a different C-round fails authentication."""
        sealed = aead.ae_seal(self.KEY, 7, b"msg")
        with pytest.raises(AuthenticationError):
            aead.ae_open(self.KEY, 8, sealed)

    def test_wrong_key_rejected(self):
        sealed = aead.ae_seal(self.KEY, 1, b"msg")
        with pytest.raises(AuthenticationError):
            aead.ae_open(bytes(32), 1, sealed)

    def test_tampered_ciphertext_rejected(self):
        sealed = bytearray(aead.ae_seal(self.KEY, 1, b"msg"))
        sealed[0] ^= 1
        with pytest.raises(AuthenticationError):
            aead.ae_open(self.KEY, 1, bytes(sealed))

    def test_wrong_aad_rejected(self):
        sealed = aead.ae_seal(self.KEY, 1, b"msg", aad=b"a")
        with pytest.raises(AuthenticationError):
            aead.ae_open(self.KEY, 1, sealed, aad=b"b")

    def test_truncated_message_rejected(self):
        with pytest.raises(AuthenticationError):
            aead.ae_open(self.KEY, 1, b"short")

    def test_random_dummy_fails_ae(self):
        """§3.5: dummies are undetectable at the SEnc layer but *cannot*
        forge the inner AE layer."""
        dummy = aead.random_dummy(64)
        with pytest.raises(AuthenticationError):
            aead.ae_open(self.KEY, 1, dummy)


class TestSEnc:
    KEY = bytes(range(32, 64))

    def test_involution(self):
        ct = aead.senc(self.KEY, 5, b"onion layer")
        assert aead.senc(self.KEY, 5, ct) == b"onion layer"

    def test_round_binding(self):
        ct = aead.senc(self.KEY, 5, b"onion layer")
        assert aead.senc(self.KEY, 6, ct) != b"onion layer"

    def test_dummy_indistinguishable_in_length(self):
        """A dummy must have exactly the shape of a real SEnc output —
        length is the only a-priori distinguisher available."""
        real = aead.senc(self.KEY, 1, b"x" * 100)
        dummy = aead.random_dummy(100)
        assert len(real) == len(dummy)

    def test_negative_round_rejected(self):
        with pytest.raises(CryptoError):
            aead.nonce_from_round(-1)


class TestRfcAppendixVectors:
    """Additional RFC 8439 Appendix A vectors."""

    def test_a1_keystream_zero_key(self):
        """A.1 test vector #1: all-zero key and nonce, counter 0."""
        block = chacha20.chacha20_block(bytes(32), 0, bytes(12))
        assert block[:16] == bytes.fromhex("76b8e0ada0f13d90405d6ae55386bd28")
        assert block[-16:] == bytes.fromhex("6a43b8f41518a11cc387b669b2ee6586")

    def test_a1_counter_one(self):
        """A.1 test vector #2: all-zero key/nonce, counter 1."""
        block = chacha20.chacha20_block(bytes(32), 1, bytes(12))
        assert block[:16] == bytes.fromhex("9f07e7be5551387a98ba977c732d080d")

    def test_a1_key_ending_one(self):
        """A.1 test vector #3: key = 0..0,1 and counter 1."""
        key = bytes(31) + b"\x01"
        block = chacha20.chacha20_block(key, 1, bytes(12))
        assert block[:16] == bytes.fromhex("3aeb5224ecf849929b9d828db1ced4dd")

    def test_a3_poly1305_zero_key(self):
        """A.3 test vector #1: all-zero key MACs anything to zero."""
        tag = poly1305.poly1305_mac(bytes(32), bytes(64))
        assert tag == bytes(16)
