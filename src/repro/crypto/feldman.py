"""Feldman verifiable secret sharing commitments.

Feldman VSS augments Shamir sharing with discrete-log commitments to the
sharing polynomial: the dealer publishes C_j = g^{a_j} for each polynomial
coefficient, and a shareholder with share (i, v) checks

    g^v  ==  prod_j C_j^(i^j).

A cheating dealer (or, during VSR, a cheating old-committee member) is
caught immediately.  The group is the order-``q`` subgroup of Z_P^* where
P = 2kq + 1; ``q`` is the sharing field, so exponent arithmetic lines up
with share arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.modmath import is_prime
from repro.crypto.shamir import Share
from repro.errors import SecretSharingError


@dataclass(frozen=True)
class CommitmentGroup:
    """A prime-order subgroup for Feldman commitments.

    Attributes:
        modulus: the big prime P.
        order: the subgroup order q (equal to the Shamir field).
        generator: an element of order q.
    """

    modulus: int
    order: int
    generator: int

    def commit(self, exponent: int) -> int:
        """``g^exponent mod P``.  The base never changes, so the group's
        fixed-base table (:func:`_window_table`) turns the exponentiation
        into one modular product per nonzero byte of the exponent."""
        rows = _window_table(self)
        digits = (exponent % self.order).to_bytes(len(rows), "little")
        acc = 1
        for row, digit in zip(rows, digits):
            if digit:
                acc = acc * row[digit] % self.modulus
        return acc


@lru_cache(maxsize=8)
def _window_table(group: CommitmentGroup) -> tuple[tuple[int, ...], ...]:
    """``rows[i][j] = g^(j · 256^i) mod P`` for every byte position ``i``
    of an exponent below the order and every byte value ``j``: 256
    entries a row (0.08 s and ~4 MB at the SMALL ring's 900-bit field).

    Built once per group on first use and kept here, beside the group
    rather than on it, so it is never pickled, serialized or compared.
    """
    p = group.modulus
    rows = []
    base = group.generator
    for _ in range((group.order.bit_length() + 7) // 8):
        row = [1] * 256
        for j in range(1, 256):
            row[j] = row[j - 1] * base % p
        rows.append(tuple(row))
        base = row[-1] * base % p  # g^(256^(i+1))
    return tuple(rows)


@lru_cache(maxsize=16)
def group_for_field(q: int, seed: int = 0xFE1D) -> CommitmentGroup:
    """Find a commitment group whose order is the prime field ``q``.

    Searches P = 2kq + 1 for increasing k; such primes are dense enough
    that this terminates quickly even for 500+-bit q.
    """
    if not is_prime(q):
        raise SecretSharingError("Feldman commitments need a prime field")
    k = 1
    while True:
        p = 2 * k * q + 1
        if is_prime(p):
            break
        k += 1
    cofactor = (p - 1) // q
    rng = random.Random(seed ^ q)
    while True:
        h = rng.randrange(2, p - 1)
        g = pow(h, cofactor, p)
        if g != 1:
            return CommitmentGroup(modulus=p, order=q, generator=g)


@dataclass(frozen=True)
class PolynomialCommitment:
    """Commitments to every coefficient of a sharing polynomial."""

    group: CommitmentGroup
    commitments: tuple[int, ...]

    @classmethod
    def commit_polynomial(
        cls, group: CommitmentGroup, polynomial: list[int]
    ) -> PolynomialCommitment:
        return cls(group, tuple(group.commit(c) for c in polynomial))

    @property
    def degree(self) -> int:
        return len(self.commitments) - 1

    @property
    def secret_commitment(self) -> int:
        """g^secret — the commitment to the constant term."""
        return self.commitments[0]

    def expected_share_commitment(self, index: int) -> int:
        """prod_j C_j^(index^j) — what g^share must equal."""
        p, q = self.group.modulus, self.group.order
        acc = 1
        power = 1
        for c in self.commitments:
            acc = (acc * pow(c, power, p)) % p
            power = (power * index) % q
        return acc

    def verify_share(self, share: Share) -> bool:
        """Check a Shamir share against the committed polynomial."""
        return self.group.commit(share.value) == self.expected_share_commitment(
            share.index
        )


def verify_or_raise(commitment: PolynomialCommitment, share: Share) -> None:
    if not commitment.verify_share(share):
        raise SecretSharingError(
            f"share for index {share.index} fails Feldman verification"
        )
