"""BGV leveled homomorphic encryption (Brakerski-Gentry-Vaikuntanathan).

This is an exact, single-modulus implementation of the scheme the paper
uses (§4.1, §5): plaintexts are polynomials in R_t = Z_t[x]/(x^N + 1),
ciphertexts are vectors of elements of R_q with decryption
``m = (sum_i c_i * s^i mod q, centered) mod t``.

Design points that mirror the paper:

* **Deferred relinearization.**  Devices multiply ciphertexts without
  relinearizing, so ciphertext degree grows with each multiplication; the
  aggregator performs a one-time :func:`relinearize` back to degree 1
  before the committee decrypts (§5, "we defer the relinearization for
  each multiplication to the global aggregation phase").

* **Monomial encoding.**  A value ``a`` is encrypted as ``x^a``:
  homomorphic multiplication adds exponents (local neighborhood sums) and
  homomorphic addition accumulates per-exponent counts (the global
  histogram) — see :mod:`repro.engine.histogram`.

* **Noise accounting.**  Every ciphertext carries a conservative analytic
  noise estimate (bits) plus the count of fresh factors multiplied into
  it.  Exact noise can be measured with the secret key for validation;
  the analytic budget is what gates query feasibility (§6.2).
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import struct
from dataclasses import dataclass, field
from typing import Sequence

from repro.crypto.polyring import RingElement, RingParams, sample_bounded
from repro.errors import CryptoError, NoiseBudgetExceeded, ParameterError
from repro.params import BGVProfile
from repro.runtime import backends
from repro.telemetry.runtime import count as _count


def _operands(*elements: RingElement) -> tuple[backends.Resident, ...]:
    return tuple(backends.Resident(element.coeffs) for element in elements)


@dataclass(frozen=True)
class SecretKey:
    """The BGV secret s (ternary ring element)."""

    profile: BGVProfile
    s: RingElement


@dataclass(frozen=True)
class PublicKey:
    """The BGV public key (pk0, pk1) with pk0 + pk1*s = t*e."""

    profile: BGVProfile
    pk0: RingElement
    pk1: RingElement

    @functools.cached_property
    def resident(self) -> tuple[backends.Resident, ...]:
        """(pk0, pk1) as backend operands: every encryption multiplies
        by both, so their evaluation forms are built once and stay with
        the key (never pickled — see :class:`backends.Resident`)."""
        return _operands(self.pk0, self.pk1)

    def fingerprint(self) -> bytes:
        """SHA-256 of both halves' encodings, computed once and kept
        beside the key the way :meth:`Ciphertext.digest` is: not
        compared, not pickled."""
        return self._fingerprint

    @functools.cached_property
    def _fingerprint(self) -> bytes:
        digest = hashlib.sha256()
        digest.update(_ring_bytes(self.pk0))
        digest.update(_ring_bytes(self.pk1))
        return digest.digest()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_fingerprint", None)
        return state


@dataclass(frozen=True)
class RelinKey:
    """Key-switching key for one secret power: maps c*s^power into a
    degree-1 contribution.  ``pieces[i] = (b_i, a_i)`` with
    ``b_i + a_i*s = t*e_i + T^i * s^power``."""

    power: int
    base_bits: int
    pieces: tuple[tuple[RingElement, RingElement], ...]

    @functools.cached_property
    def resident(self) -> tuple[tuple[backends.Resident, ...], ...]:
        """``pieces`` as backend operands.  The pieces never change, so
        the first fold of this power builds their evaluation forms on the
        active backend and every later fold reuses them; a power no
        ciphertext reaches is never transformed."""
        return tuple(_operands(b_i, a_i) for b_i, a_i in self.pieces)


@dataclass(frozen=True)
class RelinKeySet:
    """Relinearization keys for powers 2..max_power."""

    profile: BGVProfile
    keys: dict[int, RelinKey]

    @property
    def max_power(self) -> int:
        return max(self.keys) if self.keys else 1


@dataclass(frozen=True)
class Ciphertext:
    """A BGV ciphertext of arbitrary degree.

    ``components[i]`` multiplies ``s^i`` at decryption time.  Fresh
    ciphertexts have degree 1 (two components); un-relinearized products
    have higher degree.

    ``noise_bits`` is a conservative analytic bound on log2 of the noise
    infinity-norm; ``fresh_factors`` counts how many fresh encryptions have
    been multiplied together (so ``fresh_factors - 1`` is the number of
    homomorphic multiplications performed).
    """

    profile: BGVProfile
    components: tuple[RingElement, ...]
    noise_bits: float
    fresh_factors: int = 1

    def __post_init__(self) -> None:
        if len(self.components) < 2:
            raise ParameterError("a ciphertext needs at least two components")

    @property
    def degree(self) -> int:
        return len(self.components) - 1

    @property
    def size_bytes(self) -> int:
        """Serialized size; the unit of all bandwidth accounting."""
        per_element = self.profile.n * ((self.profile.q_bits + 7) // 8)
        return len(self.components) * per_element

    def serialize(self) -> bytes:
        """Deterministic byte encoding (used for hashing and mailboxes).

        Encoded once per value — the components never change — and kept
        beside the fields: not compared, not in ``repr``, not pickled,
        and not carried over by :func:`dataclasses.replace`."""
        return self._encoded

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_encoded", None)
        state.pop("_digest", None)
        return state

    @functools.cached_property
    def _encoded(self) -> bytes:
        width = (self.profile.q_bits + 7) // 8
        header = struct.pack(
            ">4sHIH", b"BGV1", len(self.components), self.profile.n, width
        )
        chunks = [header]
        for element in self.components:
            for coeff in element.coeffs:
                chunks.append(coeff.to_bytes(width, "big"))
        return b"".join(chunks)

    @classmethod
    def deserialize(cls, data: bytes, profile: BGVProfile) -> Ciphertext:
        magic, num_components, n, width = struct.unpack(">4sHIH", data[:12])
        if magic != b"BGV1":
            raise CryptoError("bad ciphertext magic")
        if n != profile.n:
            raise CryptoError("ciphertext ring degree does not match profile")
        ring = profile.ring
        offset = 12
        components = []
        for _ in range(num_components):
            coeffs = []
            for _ in range(n):
                coeffs.append(int.from_bytes(data[offset : offset + width], "big"))
                offset += width
            components.append(RingElement.from_coeffs(ring, coeffs))
        # Deserialized ciphertexts get a pessimistic noise tag: the wire
        # format does not carry provenance, so receivers budget for the
        # worst case the sender could legally have produced.
        fresh = _fresh_noise_bits(profile)
        return cls(profile, tuple(components), noise_bits=fresh, fresh_factors=1)

    def digest(self) -> bytes:
        """SHA-256 of :meth:`serialize`, kept beside it the same way."""
        return self._digest

    @functools.cached_property
    def _digest(self) -> bytes:
        return hashlib.sha256(self._encoded).digest()


# ---------------------------------------------------------------------------
# Key generation
# ---------------------------------------------------------------------------


def keygen(profile: BGVProfile, rng: random.Random) -> tuple[SecretKey, PublicKey]:
    """Generate a BGV key pair."""
    ring = profile.ring
    s = RingElement.random_ternary(ring, rng)
    a = RingElement.random_uniform(ring, rng)
    e = RingElement.random_bounded(ring, profile.error_bound, rng)
    pk0 = -_products(ring, [[(a.coeffs, s.coeffs)]])[0] + e.scale(profile.t)
    return SecretKey(profile, s), PublicKey(profile, pk0, a)


def make_relin_keys(
    secret: SecretKey, max_power: int, rng: random.Random
) -> RelinKeySet:
    """Generate key-switching keys for s^2 .. s^max_power.

    The genesis committee runs this once at system setup (§4.2); the
    aggregator uses the result to reduce high-degree device outputs back to
    degree 1 before threshold decryption.
    """
    if max_power < 2:
        return RelinKeySet(secret.profile, {})
    profile = secret.profile
    ring, q, t = profile.ring, profile.q, profile.t
    base = 1 << profile.relin_base_bits
    num_pieces = (profile.q.bit_length() + profile.relin_base_bits - 1) // (
        profile.relin_base_bits
    )
    s = backends.Resident(secret.s.coeffs)  # one transform, every product
    powers = [secret.s]
    for _ in range(2, max_power + 1):  # each power needs the one before
        powers += _products(ring, [[(powers[-1].coeffs, s)]])
    # Products draw nothing: every piece's (a_i, e_i) is drawn in the order
    # the pieces are built, and every a_i·s is one backend call.
    draws = [
        (
            RingElement.random_uniform(ring, rng),
            sample_bounded(profile.n, profile.error_bound, rng),
        )
        for _ in range(num_pieces * (max_power - 1))
    ]
    products = backends.ring_multiply([[(a.coeffs, s)] for a, _ in draws], ring.n, q)
    # Popped as each b_i is built: at SMALL the products weigh as much as
    # the keys (held to the end, they took ring_small's peak RSS from 134
    # to 152 MiB).
    products.reverse()
    drawn = iter(draws)
    keys: dict[int, RelinKey] = {}
    for power, s_power in enumerate(powers[1:], start=2):
        pieces = []
        scale = 1
        for _ in range(num_pieces):
            (a_i, e_i), x_i = next(drawn), products.pop()
            # b_i = t·e_i - a_i·s + base^i·s^power, in one pass.
            b_i = tuple(
                (t * e - x + scale * y) % q
                for e, x, y in zip(e_i, x_i, s_power.coeffs)
            )
            pieces.append((RingElement(ring, b_i), a_i))
            scale = (scale * base) % q
        keys[power] = RelinKey(power, profile.relin_base_bits, tuple(pieces))
    return RelinKeySet(profile, keys)


# ---------------------------------------------------------------------------
# Encryption / decryption
# ---------------------------------------------------------------------------


def _fresh_noise_bits(profile: BGVProfile) -> float:
    return profile.fresh_noise_bits


def encrypt(
    pk: PublicKey,
    plaintexts: Sequence[RingElement],
    rng: random.Random | None,
    randomness: Sequence[EncryptionRandomness] | None = None,
) -> list[Ciphertext]:
    """Encrypt plaintext ring elements (coefficients modulo t), one
    ciphertext each.

    ``randomness`` pins each encryption's ephemeral values; the
    zero-knowledge layer uses this to derive ciphertexts from witnesses.
    Without it they are drawn from ``rng``, plaintext by plaintext.

    Ciphertext ``i`` is ``(pk0*u_i + t*e0_i + m_i, pk1*u_i + t*e1_i)``.
    All ``2·len(plaintexts)`` products are one backend call, the batch
    one device encrypts together: one transform of each ternary ``u_i``
    serves both its products, and the key halves keep theirs.
    """
    profile = pk.profile
    if any(plaintext.params.n != profile.n for plaintext in plaintexts):
        raise ParameterError("plaintext degree does not match profile")
    if randomness is None:
        randomness = [EncryptionRandomness.generate(profile, rng) for _ in plaintexts]
    elif len(randomness) != len(plaintexts):
        raise ParameterError("encryption takes one randomness per plaintext")
    ring, q, t = profile.ring, profile.q, profile.t
    if any(rand.e0.params != ring or rand.e1.params != ring for rand in randomness):
        raise ParameterError("ring parameters do not match")
    _count("bgv.encrypt.count", len(plaintexts))
    pk0, pk1 = pk.resident
    sums = []
    for rand in randomness:
        sums += [[(pk0, rand.operand)], [(pk1, rand.operand)]]
    products = backends.ring_multiply(sums, ring.n, q)
    ciphertexts = []
    for plaintext, rand, x0, x1 in zip(
        plaintexts, randomness, products[0::2], products[1::2]
    ):
        # c0 = x0 + t·e0 + (m mod t), c1 = x1 + t·e1: one pass each.
        c0 = tuple(
            (x + t * e + m % t) % q
            for x, e, m in zip(x0, rand.e0.coeffs, plaintext.coeffs)
        )
        c1 = tuple((x + t * e) % q for x, e in zip(x1, rand.e1.coeffs))
        ciphertexts.append(
            Ciphertext(
                profile,
                (RingElement(ring, c0), RingElement(ring, c1)),
                noise_bits=_fresh_noise_bits(profile),
                fresh_factors=1,
            )
        )
    return ciphertexts


def _products(
    ring: RingParams, sums: list[list[backends.Pair]]
) -> list[RingElement]:
    """``sum_i a_i * b_i`` in R_q for each of ``sums``, in one backend
    call: a :class:`~repro.runtime.backends.Resident` is transformed
    once, by the first product it takes part in, however many follow."""
    return [
        RingElement(ring, tuple(coeffs))
        for coeffs in backends.ring_multiply(sums, ring.n, ring.q)
    ]


@dataclass(frozen=True)
class EncryptionRandomness:
    """The ephemeral values of one encryption; the witness of the
    well-formedness ZKP (§4.6)."""

    u: RingElement
    e0: RingElement
    e1: RingElement

    @functools.cached_property
    def operand(self) -> backends.Resident:
        """``u`` as a backend operand, one form for both products of its
        encryption; :meth:`generate` files the signs it drew, so the
        kernel never scans ``u`` for them."""
        return backends.Resident(self.u.coeffs)

    @classmethod
    def generate(cls, profile: BGVProfile, rng: random.Random) -> EncryptionRandomness:
        ring = profile.ring
        signs = sample_bounded(ring.n, 1, rng)  # RingElement.random_ternary's draws
        rand = cls(
            u=RingElement(ring, tuple(sign % ring.q for sign in signs)),
            e0=RingElement.random_bounded(ring, profile.error_bound, rng),
            e1=RingElement.random_bounded(ring, profile.error_bound, rng),
        )
        rand.operand.file_signs(ring.q, signs)
        return rand


def encrypt_monomial(
    pk: PublicKey,
    exponent: int,
    rng: random.Random,
    coeff: int = 1,
    randomness: EncryptionRandomness | None = None,
) -> Ciphertext:
    """Encrypt ``coeff * x^exponent`` — the paper's value encoding (§4.1)."""
    return encrypt(
        pk,
        [monomial(pk.profile, exponent, coeff)],
        rng,
        randomness=None if randomness is None else [randomness],
    )[0]


def monomial(profile: BGVProfile, exponent: int, coeff: int = 1) -> RingElement:
    """The plaintext ``coeff * x^exponent``, for an exponent inside the
    plaintext capacity ``[0, n)``."""
    if not 0 <= exponent < profile.n:
        raise ParameterError(
            f"exponent {exponent} outside plaintext capacity [0, {profile.n})"
        )
    return RingElement.monomial(profile.plaintext_ring, exponent, coeff)


def decrypt(secret: SecretKey, ct: Ciphertext) -> RingElement:
    """Decrypt to a plaintext ring element with coefficients in [0, t)."""
    _count("bgv.decrypt.count")
    phase = _decryption_phase(secret, ct)
    t = secret.profile.t
    plain = phase.lift_mod(t)
    return RingElement.from_coeffs(secret.profile.plaintext_ring, plain)


def _decryption_phase(secret: SecretKey, ct: Ciphertext) -> RingElement:
    """Compute sum_i c_i * s^i in R_q."""
    acc = ct.components[0]
    s_power = None
    for component in ct.components[1:]:
        s_power = secret.s if s_power is None else s_power * secret.s
        acc = acc + component * s_power
    return acc


def exact_noise_bits(secret: SecretKey, ct: Ciphertext) -> float:
    """Measure the actual noise of a ciphertext (log2 infinity norm).

    Used by tests to validate that the analytic estimate in
    ``ct.noise_bits`` is a sound upper bound.
    """
    profile = secret.profile
    phase = _decryption_phase(secret, ct).centered()
    t = profile.t
    worst = 0
    for c in phase:
        noise = (c - (c % t)) // t
        worst = max(worst, abs(noise))
    return math.log2(worst) if worst else 0.0


def noise_capacity_bits(profile: BGVProfile) -> float:
    """Noise bits beyond which decryption correctness is no longer
    guaranteed: the phase must stay within (-q/2, q/2]."""
    return profile.q_bits - 1 - math.log2(profile.t)


# ---------------------------------------------------------------------------
# Homomorphic operations
# ---------------------------------------------------------------------------


def _check_same_profile(a: Ciphertext, b: Ciphertext) -> None:
    if a.profile is not b.profile and a.profile != b.profile:
        raise ParameterError("ciphertexts use different BGV profiles")


def _guard_noise(profile: BGVProfile, noise_bits: float) -> None:
    if noise_bits >= noise_capacity_bits(profile):
        raise NoiseBudgetExceeded(
            f"estimated noise {noise_bits:.1f} bits exceeds capacity "
            f"{noise_capacity_bits(profile):.1f} bits for profile "
            f"'{profile.name}'"
        )


def add(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Homomorphic addition (histogram "bin" aggregation, §4.1)."""
    _count("bgv.add.count")
    _check_same_profile(a, b)
    long, short = (a, b) if a.degree >= b.degree else (b, a)
    components = list(long.components)
    for i, comp in enumerate(short.components):
        components[i] = components[i] + comp
    noise = max(a.noise_bits, b.noise_bits) + 1
    _guard_noise(a.profile, noise)
    return Ciphertext(
        a.profile,
        tuple(components),
        noise_bits=noise,
        fresh_factors=max(a.fresh_factors, b.fresh_factors),
    )


def subtract(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Homomorphic subtraction (used by the §4.5 sequence protocol)."""
    _count("bgv.sub.count")
    _check_same_profile(a, b)
    width = max(len(a.components), len(b.components))
    zero = RingElement.zero(a.profile.ring)
    components = []
    for i in range(width):
        ca = a.components[i] if i < len(a.components) else zero
        cb = b.components[i] if i < len(b.components) else zero
        components.append(ca - cb)
    noise = max(a.noise_bits, b.noise_bits) + 1
    _guard_noise(a.profile, noise)
    return Ciphertext(
        a.profile,
        tuple(components),
        noise_bits=noise,
        fresh_factors=max(a.fresh_factors, b.fresh_factors),
    )


def multiply(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Homomorphic multiplication without relinearization.

    Component vectors convolve, so degree(a*b) = degree(a) + degree(b).
    In the monomial encoding this *adds the encoded exponents* — the local
    neighborhood summation of §4.3.
    """
    _count("bgv.mul.count")
    _check_same_profile(a, b)
    profile = a.profile
    ring = profile.ring
    # Each component meets every component of the other side: transform
    # it once, not once per cross term.  The cross terms of one output
    # component sum in the evaluation domain, and every output component
    # leaves it in one backend call.
    terms: list[list[backends.Pair]] = [[] for _ in range(a.degree + b.degree + 1)]
    right = _operands(*b.components)
    for i, ca in enumerate(_operands(*a.components)):
        for j, cb in enumerate(right):
            terms[i + j].append((ca, cb))
    components = tuple(_products(ring, terms))
    noise = (
        a.noise_bits + b.noise_bits + math.log2(profile.t) + math.log2(profile.n) + 1
    )
    _guard_noise(profile, noise)
    return Ciphertext(
        profile,
        components,
        noise_bits=noise,
        fresh_factors=a.fresh_factors + b.fresh_factors,
    )


def multiply_plain(ct: Ciphertext, plain: RingElement) -> Ciphertext:
    """Multiply by a plaintext polynomial (coefficients mod t)."""
    _count("bgv.mul_plain.count")
    profile = ct.profile
    lifted = RingElement.from_coeffs(
        profile.ring, [c % profile.t for c in plain.coeffs]
    )
    norm = max(1, lifted.infinity_norm())
    nonzero = sum(1 for c in plain.coeffs if c % profile.t)
    noise = ct.noise_bits + math.log2(norm) + math.log2(max(1, nonzero))
    _guard_noise(profile, noise)
    components = tuple(comp * lifted for comp in ct.components)
    return Ciphertext(
        profile, components, noise_bits=noise, fresh_factors=ct.fresh_factors
    )


def shift(ct: Ciphertext, degree: int) -> Ciphertext:
    """Multiply by the plaintext monomial x^degree (negacyclic rotation).

    Noise-free: this is how origin vertices move contributions into GROUP
    BY coefficient blocks (§4.5) without burning multiplication budget.
    """
    components = tuple(comp.shift(degree) for comp in ct.components)
    return Ciphertext(
        ct.profile,
        components,
        noise_bits=ct.noise_bits,
        fresh_factors=ct.fresh_factors,
    )


def encrypt_zero_like(pk: PublicKey, rng: random.Random) -> Ciphertext:
    """Encrypt the additive identity Enc(0) (used when a WHERE self clause
    fails, §4.4 "Final processing")."""
    return encrypt(pk, [RingElement.zero(pk.profile.plaintext_ring)], rng)[0]


def _fold(key: RelinKey, top: RingElement) -> tuple[RingElement, RingElement]:
    """``(sum_i b_i*d_i, sum_i a_i*d_i)`` for the base-T digits ``d_i``
    of ``top``: what ``top * s^power`` contributes to components 0, 1."""
    ring = top.params
    d0, d1 = backends.fold_multiply_accumulate(
        key.resident, top.coeffs, key.base_bits, ring.n, ring.q
    )
    return RingElement(ring, tuple(d0)), RingElement(ring, tuple(d1))


def relinearize(ct: Ciphertext, rlk: RelinKeySet) -> Ciphertext:
    """Reduce an arbitrary-degree ciphertext to degree 1.

    Performed once by the aggregator during global aggregation (§5).
    Folds the highest component repeatedly using the key for that power.
    Each fold runs in the evaluation domain where the backend can
    transform the ring: one transform per digit polynomial of the folded
    component, pointwise multiply-accumulate against the key pieces'
    resident forms, one inverse per output component.
    """
    if ct.degree <= 1:
        return ct
    _count("bgv.relinearize.count")
    profile = ct.profile
    if rlk.max_power < ct.degree:
        raise CryptoError(
            f"relinearization keys cover powers up to {rlk.max_power}, "
            f"ciphertext has degree {ct.degree}"
        )
    components = list(ct.components)
    noise = ct.noise_bits
    while len(components) > 2:
        key = rlk.keys[len(components) - 1]
        d0, d1 = _fold(key, components.pop())
        components[0] = components[0] + d0
        components[1] = components[1] + d1
        # Each fold adds t * sum_i d_i * e_i: bounded by l * n * T * B.
        added = (
            math.log2(profile.t)
            + key.base_bits
            + math.log2(profile.n)
            + math.log2(profile.error_bound)
            + math.log2(len(key.pieces))
        )
        noise = max(noise, added) + 1
    _guard_noise(profile, noise)
    return Ciphertext(
        profile,
        tuple(components),
        noise_bits=noise,
        fresh_factors=ct.fresh_factors,
    )


def _ring_bytes(element: RingElement) -> bytes:
    width = (element.params.q.bit_length() + 7) // 8
    return b"".join(c.to_bytes(width, "big") for c in element.coeffs)
