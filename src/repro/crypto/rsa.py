"""RSA with PKCS#1 v1.5 encryption padding.

The paper instantiates PEnc (the public-key layer of path setup, §3.4)
with RSA-PKCS1.  Keys here default to 1024 bits; tests use smaller keys
for speed.  This is an encryption-only implementation — the protocol
never needs RSA signatures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.modmath import invmod, random_prime
from repro.errors import CryptoError

PUBLIC_EXPONENT = 65537


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int = PUBLIC_EXPONENT

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    @property
    def max_message_bytes(self) -> int:
        """PKCS#1 v1.5 needs 11 bytes of padding overhead."""
        return self.modulus_bytes - 11

    def serialize(self) -> bytes:
        width = self.modulus_bytes
        return width.to_bytes(4, "big") + self.n.to_bytes(width, "big") + self.e.to_bytes(
            4, "big"
        )

    @classmethod
    def deserialize(cls, data: bytes) -> RsaPublicKey:
        width = int.from_bytes(data[:4], "big")
        n = int.from_bytes(data[4 : 4 + width], "big")
        e = int.from_bytes(data[4 + width : 8 + width], "big")
        return cls(n=n, e=e)


@dataclass(frozen=True)
class RsaPrivateKey:
    """``n = p·q`` and the private exponent; the factors, with
    ``d mod (p-1)``, ``d mod (q-1)`` and ``q^-1 mod p``, are kept so
    decryption can run as two half-size exponentiations."""

    n: int
    d: int
    p: int
    q: int
    d_p: int
    d_q: int
    q_inv: int

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n)


def generate_keypair(bits: int, rng: random.Random) -> tuple[RsaPrivateKey, RsaPublicKey]:
    """Generate an RSA key pair with an n of roughly ``bits`` bits."""
    if bits < 128:
        raise CryptoError("RSA modulus must be at least 128 bits")
    half = bits // 2
    while True:
        p = random_prime(half, rng)
        q = random_prime(bits - half, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % PUBLIC_EXPONENT == 0:
            continue
        n = p * q
        d = invmod(PUBLIC_EXPONENT, phi)
        private = RsaPrivateKey(
            n=n, d=d, p=p, q=q, d_p=d % (p - 1), d_q=d % (q - 1), q_inv=invmod(q, p)
        )
        return private, private.public


def _pad_pkcs1(message: bytes, modulus_bytes: int, rng: random.Random) -> bytes:
    if len(message) > modulus_bytes - 11:
        raise CryptoError(
            f"message of {len(message)} bytes too long for "
            f"{modulus_bytes}-byte modulus"
        )
    pad_len = modulus_bytes - 3 - len(message)
    padding = bytes(rng.randrange(1, 256) for _ in range(pad_len))
    return b"\x00\x02" + padding + b"\x00" + message


def _unpad_pkcs1(block: bytes) -> bytes:
    if len(block) < 11 or block[0] != 0 or block[1] != 2:
        raise CryptoError("invalid PKCS#1 padding")
    try:
        separator = block.index(0, 2)
    except ValueError as exc:
        raise CryptoError("invalid PKCS#1 padding") from exc
    if separator < 10:
        raise CryptoError("invalid PKCS#1 padding")
    return block[separator + 1 :]


def encrypt(public: RsaPublicKey, message: bytes, rng: random.Random) -> bytes:
    """PEnc: RSA-PKCS1 v1.5 encryption."""
    padded = _pad_pkcs1(message, public.modulus_bytes, rng)
    value = int.from_bytes(padded, "big")
    cipher = pow(value, public.e, public.n)
    return cipher.to_bytes(public.modulus_bytes, "big")


def _private_power(private: RsaPrivateKey, value: int) -> int:
    """``value^d mod n`` by the CRT: two half-size exponentiations,
    recombined by Garner's formula."""
    p, q = private.p, private.q
    m_p = pow(value % p, private.d_p, p)
    m_q = pow(value % q, private.d_q, q)
    return m_q + q * ((m_p - m_q) * private.q_inv % p)


def decrypt(private: RsaPrivateKey, ciphertext: bytes) -> bytes:
    """Invert PEnc with the private key."""
    modulus_bytes = (private.n.bit_length() + 7) // 8
    if len(ciphertext) != modulus_bytes:
        raise CryptoError("ciphertext length does not match modulus")
    value = int.from_bytes(ciphertext, "big")
    if value >= private.n:
        raise CryptoError("ciphertext out of range")
    plain = _private_power(private, value)
    return _unpad_pkcs1(plain.to_bytes(modulus_bytes, "big"))
