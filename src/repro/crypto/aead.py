"""Authenticated and unauthenticated symmetric encryption.

Section 3.5 of the paper distinguishes two symmetric modes:

* **AE** (authenticated encryption) — ChaCha20-Poly1305, used between a
  source and each hop during path setup and for the *innermost* onion
  layer.  The nonce is the (monotonically increasing) C-round number and
  is *not* transmitted with the ciphertext, avoiding the nonce-privacy
  pitfalls of Bellare-Ng-Tackmann.

* **SEnc** (stream encryption, no MAC) — bare ChaCha20, used for all
  *outer* onion layers.  Because SEnc ciphertexts are indistinguishable
  from random strings, a forwarder that is missing an input can substitute
  a random dummy that downstream colluders cannot detect as invalid.

Every operation is one ChaCha20 call: AE runs the cipher from block
counter 0, whose first 32 keystream bytes key Poly1305 and whose later
blocks carry the message (RFC 8439 §2.8).  The ``_many`` forms put a
whole wave of messages on one keystream request.  :func:`senc_stream`
and :func:`ae_stream` name the keystream an operation will run on, so
a caller can compute a wave's keystreams ahead in one request
(:func:`repro.crypto.chacha20.prefetch`) and then make its
single-message calls as usual.
"""

from __future__ import annotations

import os
import struct
from typing import Sequence

from repro.crypto.chacha20 import (
    BLOCK_BYTES,
    KEY_BYTES,
    NONCE_BYTES,
    blocks_for,
    chacha20_xor,
    chacha20_xor_many,
    xor_bytes,
)
from repro.crypto.hashes import constant_time_equal
from repro.crypto.poly1305 import TAG_BYTES, poly1305_mac
from repro.errors import AuthenticationError, CryptoError

_POLY1305_KEY_BYTES = 32

#: Encrypted from counter 0 ahead of a message, it comes back as
#: keystream block 0: the head of that block is the Poly1305 key.
_ZERO_BLOCK = bytes(BLOCK_BYTES)


def nonce_from_round(round_number: int) -> bytes:
    """Derive the 12-byte nonce from a C-round number (§3.5)."""
    if not 0 <= round_number < 1 << (8 * NONCE_BYTES):
        raise CryptoError("round numbers are non-negative and fit 96 bits")
    return round_number.to_bytes(NONCE_BYTES, "big")


def _auth_input(aad: bytes, ciphertext: bytes) -> bytes:
    def pad16(data: bytes) -> bytes:
        remainder = len(data) % 16
        return data + b"\x00" * ((16 - remainder) % 16)

    return (
        pad16(aad)
        + pad16(ciphertext)
        + struct.pack("<QQ", len(aad), len(ciphertext))
    )


def _ae_request(
    key: bytes, round_number: int, message: bytes
) -> tuple[bytes, bytes, bytes]:
    """The ``(key, nonce, data)`` to run from counter 0 for one AE
    operation: keystream block 0 comes back ahead of the message."""
    if len(key) != KEY_BYTES:
        raise CryptoError("AE keys are 32 bytes")
    return key, nonce_from_round(round_number), _ZERO_BLOCK + message


def _sealed(output: bytes, aad: bytes) -> bytes:
    """``ciphertext || tag`` from the cipher output of a seal's request."""
    ciphertext = output[BLOCK_BYTES:]
    tag = poly1305_mac(
        output[:_POLY1305_KEY_BYTES], _auth_input(aad, ciphertext)
    )
    return ciphertext + tag


def ae_seal(key: bytes, round_number: int, plaintext: bytes, aad: bytes = b"") -> bytes:
    """ChaCha20-Poly1305 encrypt; returns ciphertext || 16-byte tag."""
    request = _ae_request(key, round_number, plaintext)
    return _sealed(chacha20_xor(*request, initial_counter=0), aad)


def ae_seal_many(items: Sequence[tuple[bytes, int, bytes]]) -> list[bytes]:
    """:func:`ae_seal` (no associated data) of every ``(key,
    round_number, plaintext)`` in ``items``, on one cipher call."""
    outputs = chacha20_xor_many(
        [_ae_request(*item) for item in items], initial_counter=0
    )
    return [_sealed(output, b"") for output in outputs]


def ae_open(key: bytes, round_number: int, sealed: bytes, aad: bytes = b"") -> bytes:
    """ChaCha20-Poly1305 decrypt; raises on tag mismatch.

    The existential unforgeability this provides is exactly why dummies
    *cannot* be injected at the AE layer — see §3.5.
    """
    if len(sealed) < TAG_BYTES:
        raise AuthenticationError("sealed message shorter than a tag")
    # Encrypting zeros yields the bare keystream, so no plaintext exists
    # until the tag has verified.
    keystream = chacha20_xor(
        *_ae_request(key, round_number, bytes(len(sealed) - TAG_BYTES)),
        initial_counter=0,
    )
    plaintext = _opened(keystream, sealed, aad)
    if plaintext is None:
        raise AuthenticationError("AE tag verification failed")
    return plaintext


def _opened(keystream: bytes, sealed: bytes, aad: bytes) -> bytes | None:
    """The plaintext of ``sealed`` under the keystream of its open
    request, or None when the tag does not verify."""
    ciphertext, tag = sealed[:-TAG_BYTES], sealed[-TAG_BYTES:]
    expected = poly1305_mac(
        keystream[:_POLY1305_KEY_BYTES], _auth_input(aad, ciphertext)
    )
    if not constant_time_equal(tag, expected):
        return None
    return xor_bytes(ciphertext, keystream[BLOCK_BYTES:])


def ae_open_many(items: Sequence[tuple[bytes, int, bytes]]) -> list[bytes | None]:
    """:func:`ae_open` (no associated data) of every ``(key,
    round_number, sealed)`` in ``items``, on one cipher call: the
    plaintext, or None for an item that is shorter than a tag or whose
    tag does not verify (a forgery, or the wrong key or round).

    As in :func:`ae_open`, no item's plaintext exists before its tag
    has verified.  A bad key or round number is a ``CryptoError`` for
    the whole wave, raised before any keystream is computed.
    """
    requests = [
        _ae_request(key, round_number, bytes(max(len(sealed) - TAG_BYTES, 0)))
        for key, round_number, sealed in items
    ]
    sized = [i for i, (_, _, sealed) in enumerate(items) if len(sealed) >= TAG_BYTES]
    keystreams = chacha20_xor_many(
        [requests[i] for i in sized], initial_counter=0
    )
    opened: list[bytes | None] = [None] * len(items)
    for index, keystream in zip(sized, keystreams):
        opened[index] = _opened(keystream, items[index][2], b"")
    return opened


def ae_stream(
    key: bytes, round_number: int, length: int
) -> tuple[bytes, bytes, int, int]:
    """The keystream ``(key, nonce, first_counter, blocks)`` that
    :func:`ae_seal` of a ``length``-byte plaintext, or :func:`ae_open`
    of a ``length``-byte ciphertext (tag excluded), runs on."""
    nonce = nonce_from_round(round_number)
    return key, nonce, 0, blocks_for(BLOCK_BYTES + length)


def senc_stream(
    key: bytes, round_number: int, length: int
) -> tuple[bytes, bytes, int, int]:
    """The keystream that :func:`senc` of ``length`` bytes runs on."""
    return key, nonce_from_round(round_number), 1, blocks_for(length)


def _senc_request(
    key: bytes, round_number: int, data: bytes
) -> tuple[bytes, bytes, bytes]:
    if len(key) != KEY_BYTES:
        raise CryptoError("SEnc keys are 32 bytes")
    return key, nonce_from_round(round_number), data


def senc(key: bytes, round_number: int, data: bytes) -> bytes:
    """MAC-less stream encryption for outer onion layers; its own inverse."""
    return chacha20_xor(*_senc_request(key, round_number, data))


def senc_many(items: Sequence[tuple[bytes, int, bytes]]) -> list[bytes]:
    """:func:`senc` of every ``(key, round_number, data)`` in ``items``,
    on one cipher call."""
    return chacha20_xor_many([_senc_request(*item) for item in items])


def random_dummy(length: int, rng=None) -> bytes:
    """A random string of the right length, indistinguishable from an
    SEnc ciphertext (§3.5 dummy generation).  A seeded ``rng`` keeps
    simulations replayable (chaos runs hash wire bytes into fault
    verdicts); without one, use OS randomness."""
    if rng is None:
        return os.urandom(length)
    return bytes(rng.randrange(256) for _ in range(length))
