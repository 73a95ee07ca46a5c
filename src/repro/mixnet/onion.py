"""Onion encryption helpers (§3.2, §3.5).

A source s holding symmetric keys sk_1..sk_k (one per hop, established by
telescoping) wraps a payload as

    SEnc(sk_1, rho,   SEnc(sk_2, rho+1, ... SEnc(sk_k, rho+k-1, payload)))

where rho is the C-round in which hop 1 processes the message.  Each hop
strips one layer (ChaCha20 is its own inverse) and forwards under the
next link's path id.  Outer layers are deliberately MAC-less so a hop
that is missing an expected input can substitute a random dummy that
colluding downstream hops cannot distinguish from real traffic; only the
innermost payload (source to destination) carries authentication.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from repro.crypto import aead
from repro.errors import ProtocolError

PATH_ID_BYTES = 16


def new_path_id(rng=None) -> bytes:
    """A fresh random path id."""
    if rng is None:
        return os.urandom(PATH_ID_BYTES)
    return bytes(rng.randrange(256) for _ in range(PATH_ID_BYTES))


@dataclass(frozen=True)
class WireMessage:
    """What actually sits in a mailbox: path id plus opaque body."""

    path_id: bytes
    body: bytes

    def encode(self) -> bytes:
        if len(self.path_id) != PATH_ID_BYTES:
            raise ProtocolError("path ids are 16 bytes")
        return self.path_id + self.body

    @classmethod
    def decode(cls, data: bytes) -> WireMessage:
        if len(data) < PATH_ID_BYTES:
            raise ProtocolError("wire message shorter than a path id")
        return cls(path_id=data[:PATH_ID_BYTES], body=data[PATH_ID_BYTES:])


def wrap_many(
    payloads: Sequence[bytes],
    hop_keys: Sequence[Sequence[bytes]],
    base_round: int,
    tag: bytes = b"",
) -> list[bytes]:
    """Build the onion bodies handed to hop 1, one per payload.

    ``hop_keys[m][i]`` is the key message ``m`` shares with its hop
    i+1, and every message of a wave has the same number of hops;
    layer i is encrypted under the round number at which that hop will
    peel it.  ``tag`` is prepended to every layer's plaintext, so each
    hop reads it first after its peel (the forwarding phase's one-byte
    dispatch tag).  Layer i of every message goes on in one batched
    SEnc call, so a wave costs as many calls as it has hops.
    """
    bodies = list(payloads)
    if len({len(keys) for keys in hop_keys}) > 1:
        raise ProtocolError("the paths of one wave differ in depth")
    for offset in reversed(range(len(hop_keys[0]) if hop_keys else 0)):
        bodies = aead.senc_many(
            [
                (keys[offset], base_round + offset, tag + body)
                for keys, body in zip(hop_keys, bodies)
            ]
        )
    return bodies


def wrap(
    payload: bytes,
    hop_keys: Sequence[bytes],
    base_round: int,
    tag: bytes = b"",
) -> bytes:
    """:func:`wrap_many` for one message."""
    return wrap_many([payload], [hop_keys], base_round, tag)[0]


def peel(hop_key: bytes, round_number: int, body: bytes) -> bytes:
    """Strip one onion layer (what a forwarder does each C-round)."""
    return aead.senc(hop_key, round_number, body)


def unwrap_reverse(payload: bytes, hop_keys: list[bytes], base_round: int) -> bytes:
    """Peel a *reverse-path* onion at the source.

    On the way back, hop i (closest to the source last) adds a layer
    under its shared key and the round it forwarded in; the source knows
    every key and removes them all.  ``hop_keys`` is ordered from the hop
    nearest the source outward, and ``base_round`` is the round in which
    the nearest hop deposited to the source.
    """
    body = payload
    for offset, key in enumerate(hop_keys):
        body = aead.senc(key, base_round - offset, body)
    return body


def dummy_body(length: int, rng=None) -> bytes:
    """A random body indistinguishable from an SEnc ciphertext (§3.5)."""
    return aead.random_dummy(length, rng)
