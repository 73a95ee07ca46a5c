"""ChaCha20 stream cipher (RFC 8439).

The prototype in the paper instantiates SEnc with ChaCha20 (§5).  The
outer onion layers use the bare stream cipher *without* a MAC so that
forwarders can substitute random dummies that downstream adversaries
cannot distinguish from real traffic (§3.5, "Generating dummies").

:func:`chacha20_block` is the RFC 8439 block function, kept as the
reference oracle.  Encryption asks the active compute backend
(:mod:`repro.runtime.backends`) for its keystream — every block of
every message of a batch in one request — and XORs each message with
one big-integer operation.

Validated against the RFC 8439 test vectors in the test suite.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.errors import CryptoError
from repro.runtime import backends

KEY_BYTES = 32
NONCE_BYTES = 12
BLOCK_BYTES = 64

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_MASK = 0xFFFFFFFF


def _rotl(value: int, count: int) -> int:
    return ((value << count) | (value >> (32 - count))) & _MASK


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Produce one 64-byte keystream block."""
    if len(key) != KEY_BYTES:
        raise CryptoError("ChaCha20 keys are 32 bytes")
    if len(nonce) != NONCE_BYTES:
        raise CryptoError("ChaCha20 nonces are 12 bytes")
    state = list(_CONSTANTS)
    state += list(struct.unpack("<8L", key))
    state.append(counter & _MASK)
    state += list(struct.unpack("<3L", nonce))
    working = list(state)
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    out = [(w + s) & _MASK for w, s in zip(working, state)]
    return struct.pack("<16L", *out)


def xor_bytes(data: bytes, keystream: bytes) -> bytes:
    """``data`` XOR the leading ``len(data)`` bytes of ``keystream``."""
    size = len(data)
    return (
        int.from_bytes(data, "little")
        ^ int.from_bytes(keystream[:size], "little")
    ).to_bytes(size, "little")


def chacha20_xor_many(
    items: Sequence[tuple[bytes, bytes, bytes]], initial_counter: int = 1
) -> list[bytes]:
    """:func:`chacha20_xor` of every ``(key, nonce, data)`` in ``items``,
    on one keystream request to the active backend."""
    for key, nonce, _ in items:
        if len(key) != KEY_BYTES:
            raise CryptoError("ChaCha20 keys are 32 bytes")
        if len(nonce) != NONCE_BYTES:
            raise CryptoError("ChaCha20 nonces are 12 bytes")
    keystreams = backends.chacha20_keystreams(
        [
            (key, nonce, initial_counter, -(-len(data) // BLOCK_BYTES))
            for key, nonce, data in items
        ]
    )
    return [
        xor_bytes(data, keystream)
        for (_, _, data), keystream in zip(items, keystreams)
    ]


def chacha20_xor(
    key: bytes, nonce: bytes, data: bytes, initial_counter: int = 1
) -> bytes:
    """Encrypt/decrypt ``data`` (XOR with the keystream).

    Symmetric: applying it twice with the same key/nonce/counter returns
    the original data.
    """
    return chacha20_xor_many([(key, nonce, data)], initial_counter)[0]
