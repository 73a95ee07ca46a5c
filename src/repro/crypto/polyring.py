"""Arithmetic in the quotient ring R_q = Z_q[x] / (x^N + 1).

:class:`RingElement` is an immutable value type; all operators return new
elements.  Multiplication dispatches through the active compute backend
(:mod:`repro.runtime.backends`): the pure-Python reference uses the
cached negacyclic NTT when the modulus supports it (every BGV modulus we
generate does) and falls back to schoolbook multiplication otherwise;
the optional NumPy backend computes the identical product vectorized.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field

from repro.crypto.modmath import centered_mod
from repro.errors import ParameterError
from repro.runtime import backends


def draws_below(n: int, count: int, rng: random.Random) -> list[int]:
    """``[rng.randrange(n) for _ in range(count)]`` for ``n < 2^32``, and
    the generator left in the same state.

    ``randrange`` takes one 32-bit word per try, keeps its top
    ``n.bit_length()`` bits and tries again when they reach ``n``.  Each
    round here takes as many words as values are missing — never more
    than the tries still to come — in one ``getrandbits`` call, and
    keeps the values below ``n`` in order.
    """
    if n >> 32:
        return [rng.randrange(n) for _ in range(count)]
    shift = 32 - n.bit_length()
    out: list[int] = []
    while len(out) < count:
        missing = count - len(out)
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        tops = [w >> shift for w in struct.unpack(f"<{missing}I", words)]
        out += [v for v in tops if v < n]
    return out


def sample_bounded(n: int, bound: int, rng: random.Random) -> list[int]:
    """``n`` signed values uniform over ``[-bound, bound]``:
    ``rng.randint(-bound, bound)`` ``n`` times."""
    return [v - bound for v in draws_below(2 * bound + 1, n, rng)]


@dataclass(frozen=True)
class RingParams:
    """Dimensions of a polynomial quotient ring.

    Attributes:
        n: polynomial degree (power of two); the ring is Z_q[x]/(x^n + 1).
        q: coefficient modulus.
    """

    n: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 2 or self.n & (self.n - 1):
            raise ParameterError("ring degree must be a power of two >= 2")
        if self.q < 2:
            raise ParameterError("modulus must be >= 2")

    @property
    def supports_ntt(self) -> bool:
        return (self.q - 1) % (2 * self.n) == 0


@dataclass(frozen=True)
class RingElement:
    """An element of R_q, stored as a coefficient list of length n."""

    params: RingParams
    coeffs: tuple[int, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.params.n:
            raise ParameterError(
                f"expected {self.params.n} coefficients, got {len(self.coeffs)}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, params: RingParams, coeffs: list[int]) -> RingElement:
        """Build an element from an arbitrary-length coefficient list,
        zero-padding or rejecting overly long input."""
        if len(coeffs) > params.n:
            raise ParameterError("too many coefficients for ring degree")
        padded = list(coeffs) + [0] * (params.n - len(coeffs))
        return cls(params, tuple(c % params.q for c in padded))

    @classmethod
    def zero(cls, params: RingParams) -> RingElement:
        return cls(params, (0,) * params.n)

    @classmethod
    def one(cls, params: RingParams) -> RingElement:
        return cls.monomial(params, 0)

    @classmethod
    def constant(cls, params: RingParams, value: int) -> RingElement:
        return cls.from_coeffs(params, [value])

    @classmethod
    def monomial(cls, params: RingParams, degree: int, coeff: int = 1) -> RingElement:
        """Return ``coeff * x^degree``, reducing modulo x^n + 1.

        Degrees >= n wrap with a sign flip, matching the quotient relation
        x^n = -1.
        """
        sign_flips, d = divmod(degree, params.n)
        value = coeff if sign_flips % 2 == 0 else -coeff
        coeffs = [0] * params.n
        coeffs[d] = value % params.q
        return cls(params, tuple(coeffs))

    @classmethod
    def random_uniform(cls, params: RingParams, rng: random.Random) -> RingElement:
        return cls(params, tuple(rng.randrange(params.q) for _ in range(params.n)))

    @classmethod
    def random_ternary(cls, params: RingParams, rng: random.Random) -> RingElement:
        """Uniform over {-1, 0, 1}^n — the BGV secret/ephemeral distribution."""
        q = params.q  # rng.choice((-1, 0, 1)) % q
        return cls(params, tuple(sign % q for sign in sample_bounded(params.n, 1, rng)))

    @classmethod
    def random_bounded(
        cls, params: RingParams, bound: int, rng: random.Random
    ) -> RingElement:
        """Uniform over [-bound, bound]^n — the BGV error distribution.

        A bounded-uniform distribution stands in for the discrete Gaussian;
        it has the same worst-case noise-growth behaviour, which is what the
        budget analysis relies on.
        """
        q = params.q
        return cls(params, tuple(c % q for c in sample_bounded(params.n, bound, rng)))

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: RingElement) -> None:
        if self.params != other.params:
            raise ParameterError("ring parameters do not match")

    def __add__(self, other: RingElement) -> RingElement:
        self._check_compatible(other)
        q = self.params.q
        return RingElement(
            self.params, tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: RingElement) -> RingElement:
        self._check_compatible(other)
        q = self.params.q
        return RingElement(
            self.params, tuple((a - b) % q for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> RingElement:
        q = self.params.q
        return RingElement(self.params, tuple((-a) % q for a in self.coeffs))

    def __mul__(self, other: RingElement | int) -> RingElement:
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other)
        n, q = self.params.n, self.params.q
        (product,) = backends.ring_multiply([[(self.coeffs, other.coeffs)]], n, q)
        return RingElement(self.params, tuple(product))

    __rmul__ = __mul__

    def scale(self, scalar: int) -> RingElement:
        q = self.params.q
        s = scalar % q
        return RingElement(self.params, tuple((a * s) % q for a in self.coeffs))

    def shift(self, degree: int) -> RingElement:
        """Multiply by the monomial x^degree (a negacyclic rotation).

        This is how the origin vertex moves its histogram contribution into
        a GROUP BY coefficient block without a ciphertext-ciphertext
        multiplication.
        """
        n, q = self.params.n, self.params.q
        sign_flips, d = divmod(degree, n)
        flip = sign_flips % 2 == 1
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            j = i + d
            sign = -1 if flip else 1
            if j >= n:
                j -= n
                sign = -sign
            out[j] = (sign * c) % q
        return RingElement(self.params, tuple(out))

    # -- views -------------------------------------------------------------

    def centered(self) -> list[int]:
        """Coefficients reduced into (-q/2, q/2]."""
        q = self.params.q
        return [centered_mod(c, q) for c in self.coeffs]

    def infinity_norm(self) -> int:
        return max(abs(c) for c in self.centered())

    def lift_mod(self, t: int) -> list[int]:
        """Centered coefficients reduced modulo ``t`` (plaintext recovery)."""
        return [c % t for c in self.centered()]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()
