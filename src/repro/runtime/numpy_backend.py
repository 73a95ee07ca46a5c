"""Exact vectorized NumPy kernels: the negacyclic polynomial ring and
the ChaCha20 keystream.

Bit-identical to the pure-Python reference backend, at NumPy speed.
The ring moduli are too large for ``int64`` (the paper's 550-bit
modulus, the test profiles' 512/900-bit ones) or not NTT-friendly at
all (the plaintext modulus ``t``), so every product, whatever its
``(n, q)``, is computed *exactly* over a residue number system, its
tables cached as a :class:`_Plan`: a basis of 28-bit NTT-friendly primes
``p_k ≡ 1 (mod 2n)`` whose product ``M`` exceeds ``2·n·q²`` (the
worst-case magnitude of a centered negacyclic product), one batched
negacyclic NTT per prime, then CRT reconstruction with centering and a
final reduction mod ``q``.  No approximation anywhere: the result
equals the schoolbook product for every modulus.

The RNS transforms use the Harvey/Shoup lazy-butterfly scheme to avoid
integer division entirely: twiddles carry a precomputed companion
``s' = floor(s·2^32 / p)`` so each modular product is two multiplies, a
shift, and a subtract, and coefficients ride in ``[0, 4p)`` between
stages.  That is why basis primes sit below 2^28 (``4p ≤ 2^30`` keeps
``x·s' < 2^62`` inside ``int64``).

The exact base conversions are expressed as matrix products so they hit
BLAS: operands are split into 14/16-bit digits whose dot products stay
below 2^53, making ``float64`` accumulation exact; results are lifted
back to ``int64`` and carry-propagated.

The ChaCha20 kernel (:meth:`NumpyBackend.chacha20_keystreams`) lays the
blocks of every requested stream out as the columns of one ``(16, B)``
``uint32`` state, so the twenty rounds cost the same few hundred array
operations for one block as for the thousands an onion wave asks for.

This module imports NumPy at the top level; the backend registry treats
the resulting ``ImportError`` as "backend unavailable".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.crypto import ntt
from repro.crypto.modmath import is_prime
from repro.errors import ParameterError
from repro.runtime.backends import (
    KeystreamRequest,
    Operand,
    Resident,
    fold_by_products,
)

#: Exclusive upper bound for RNS basis primes: the lazy butterflies keep
#: coefficients in [0, 4p) and Shoup products x·s' below 2^62.
MAX_RNS_PRIME = 1 << 28

_PLAN_CACHE_SIZE = 16

#: Elements per batched digit transform: enough rows to amortize NumPy's
#: per-call overhead on a small ring, few enough that a large ring's
#: batch (and its butterfly temporaries) stays a megabyte or two.
_FOLD_BATCH_ELEMENTS = 1 << 17


#: "expand 32-byte k", the first four words of every ChaCha20 state.
_CHACHA_CONSTANTS = np.frombuffer(b"expand 32-byte k", dtype="<u4").astype(
    np.uint32
)[:, None]

#: Left/right shift pairs of the quarter round's four rotations, as 0-d
#: ``uint32`` arrays: the shifts then stay ``uint32`` under the promotion
#: rules of NumPy 1 and of NumPy 2 alike.
_CHACHA_ROTATIONS = tuple(
    (np.array(n, dtype=np.uint32), np.array(32 - n, dtype=np.uint32))
    for n in (16, 12, 8, 7)
)

#: Row orders that turn a four-row slab by one, two and three rows: what
#: lines the diagonals of the state up as columns, and back.
_TURN_1, _TURN_2, _TURN_3 = (
    np.array([(row + turn) % 4 for row in range(4)]) for turn in (1, 2, 3)
)


def _chacha_state(streams: Sequence[KeystreamRequest], counts: list[int]) -> np.ndarray:
    """The ``(16, B)`` initial states: one column per block, streams in
    request order; only key, nonce and counter differ between columns."""
    total = sum(counts)
    state = np.empty((16, total), dtype=np.uint32)
    state[:4] = _CHACHA_CONSTANTS
    words = np.frombuffer(
        b"".join([key + nonce for key, nonce, _, _ in streams]), dtype="<u4"
    ).reshape(len(streams), 11)
    per_block = np.repeat(words, counts, axis=0).T
    state[4:12] = per_block[:8]
    state[13:] = per_block[8:]
    # Block j of a stream runs under (first + j) mod 2^32: summed in
    # uint64, truncated by the cast.
    first = np.array(
        [first & 0xFFFFFFFF for _, _, first, _ in streams], dtype=np.uint64
    )
    starts = np.cumsum(counts, dtype=np.uint64) - np.array(counts, dtype=np.uint64)
    state[12] = (
        np.repeat(first - starts, counts) + np.arange(total, dtype=np.uint64)
    ).astype(np.uint32)
    return state


def _chacha_blocks(state: np.ndarray) -> bytes:
    """The keystream blocks of the initial states in ``state``'s columns.

    Rows 0-3, 4-7, 8-11 and 12-15 are the ``a``, ``b``, ``c`` and ``d``
    of four quarter rounds at once: a column round is one quarter round
    on the four slabs, a diagonal round the same after turning ``b``,
    ``c`` and ``d`` by one, two and three rows.  Every arithmetic
    operation writes into an existing array."""
    work = state.copy()
    a, b, c, d = work[0:4], work[4:8], work[8:12], work[12:16]
    spare = np.empty_like(a)
    add, xor, bit_or = np.add, np.bitwise_xor, np.bitwise_or
    shl, shr = np.left_shift, np.right_shift
    (l16, r16), (l12, r12), (l8, r8), (l7, r7) = _CHACHA_ROTATIONS
    for half_round in range(20):
        add(a, b, a)
        xor(d, a, d)
        shl(d, l16, spare)
        shr(d, r16, d)
        bit_or(d, spare, d)  # d = (d ^ a) <<< 16
        add(c, d, c)
        xor(b, c, b)
        shl(b, l12, spare)
        shr(b, r12, b)
        bit_or(b, spare, b)  # b = (b ^ c) <<< 12
        add(a, b, a)
        xor(d, a, d)
        shl(d, l8, spare)
        shr(d, r8, d)
        bit_or(d, spare, d)  # d = (d ^ a) <<< 8
        add(c, d, c)
        xor(b, c, b)
        shl(b, l7, spare)
        shr(b, r7, b)
        bit_or(b, spare, b)  # b = (b ^ c) <<< 7
        if half_round % 2:  # after a diagonal round: back to columns
            b, c, d = b[_TURN_3], c[_TURN_2], d[_TURN_1]
        else:
            b, c, d = b[_TURN_1], c[_TURN_2], d[_TURN_3]
    work[4:8], work[8:12], work[12:16] = b, c, d
    work += state
    # Column-major bytes: block after block, sixteen words each.
    return work.astype("<u4", copy=False).tobytes("F")


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def _rns_primes(n: int, q: int, need_bits: int) -> list[int]:
    """28-bit primes ``p ≡ 1 (mod 2n)`` with product > ``2^need_bits``."""
    two_n = 2 * n
    primes: list[int] = []
    got_bits = 0
    c = (MAX_RNS_PRIME - 2) // two_n
    while got_bits < need_bits:
        if c <= 0:
            raise ParameterError(
                f"cannot assemble an RNS basis for n={n}, q~2^{q.bit_length()}"
            )
        p = c * two_n + 1
        if p != q and is_prime(p):
            primes.append(p)
            got_bits += p.bit_length() - 1  # product >= 2^got_bits
        c -= 1
    return primes


class _Plan:
    """Precomputed tables for one ``(n, q)`` pair.

    ``product_bits`` sizes the RNS basis: the product of basis primes
    must exceed ``2^product_bits``.  The default covers the worst-case
    centered negacyclic product of two full-size operands
    (``2·n·q²``); callers whose operands are provably smaller (the
    relinearization fold's digit polynomials) may pass a tighter bound
    and get a proportionally smaller — and faster — basis.
    """

    def __init__(self, n: int, q: int, product_bits: int | None = None):
        self.n = n
        self.q = q
        general_bits = 2 * q.bit_length() + n.bit_length() + 2
        need_bits = (
            general_bits
            if product_bits is None
            else min(product_bits, general_bits)
        )
        primes = _rns_primes(n, q, need_bits)
        self.primes = np.asarray(primes, dtype=np.int64)
        #: Names the basis: what a Resident files this plan's forms under.
        self.form_key = ("numpy", tuple(primes))
        k = len(primes)
        self.p_col = self.primes.reshape(k, 1, 1)
        self.p_flat = self.primes.reshape(k, 1)
        psi_rev = np.empty((k, n), dtype=np.int64)
        psi_inv_rev = np.empty((k, n), dtype=np.int64)
        n_inv = np.empty((k, 1), dtype=np.int64)
        for i, p in enumerate(primes):
            # Build tables directly (not via get_context) so RNS basis
            # primes never evict real ring moduli from the shared cache.
            ctx = ntt.NttContext(n, p)
            psi_rev[i] = ctx._psi_rev
            psi_inv_rev[i] = ctx._psi_inv_rev
            n_inv[i, 0] = ctx.n_inv
        self.psi_rev = psi_rev
        self.psi_inv_rev = psi_inv_rev
        self.n_inv = n_inv
        # Shoup companions: floor(s << 32 / p), exact in int64
        # because s < 2^28 keeps s << 32 below 2^60.
        self.psi_rev_shoup = (psi_rev << 32) // self.p_flat
        self.psi_inv_rev_shoup = (psi_inv_rev << 32) // self.p_flat
        self.n_inv_shoup = (n_inv << 32) // self.p_flat[:, :1]
        # Base-2^16 digits of the inputs convert to residues via one
        # matmul with 2^(16j) mod p_k.
        self.words = (q.bit_length() + 15) // 16
        self.pow16 = np.asarray(
            [
                [pow(2, 16 * (self.words - 1 - j), p) for p in primes]
                for j in range(self.words)
            ],
            dtype=np.float64,
        )
        m_total = 1
        for p in primes:
            m_total *= p
        self.modulus = m_total
        self.half_modulus = m_total >> 1
        self.limbs = (m_total.bit_length() + 40) // 16 + 1
        crt = np.empty((k, self.limbs), dtype=np.float64)
        for i, p in enumerate(primes):
            m_k = m_total // p
            c_k = m_k * pow(m_k % p, -1, p)
            crt[i] = [(c_k >> (16 * j)) & 0xFFFF for j in range(self.limbs)]
        self.crt_limbs = crt

    def form(self, operand: Operand) -> np.ndarray:
        """The evaluation form of ``operand`` on this basis (read-only:
        a :class:`Resident` hands the same array to every product)."""
        if isinstance(operand, Resident):
            # Residues sit below 2^31: parked at half width, widened
            # again by every product.
            return operand.form(
                self.form_key,
                lambda c: self.forward(self.to_residues(c)).astype(np.int32),
            )
        return self.forward(self.to_residues(operand))

    # -- batched transforms (one row per RNS prime) -----------------------

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Cooley-Tukey negacyclic NTT on every row of ``a``.

        Accepts ``(k, n)`` or a batch ``(..., k, n)``; leading axes ride
        through the butterfly stages in one set of vectorized ops, which
        is what makes the fused relinearization fold cheap (one batched
        transform for all digit polynomials instead of one call each).
        Harvey butterflies: inputs < p, invariant < 4p, output < p.
        """
        *lead, k, n = a.shape
        p = self.p_col
        two_p = 2 * p
        t, m = n, 1
        while m < n:
            t //= 2
            a = a.reshape(*lead, k, m, 2, t)
            s = self.psi_rev[:, m : 2 * m].reshape(k, m, 1)
            s_sh = self.psi_rev_shoup[:, m : 2 * m].reshape(k, m, 1)
            u = a[..., 0, :]
            u = u - two_p * (u >= two_p)  # now < 2p
            x = a[..., 1, :]
            v = x * s - ((x * s_sh) >> 32) * p  # Shoup: < 2p
            a[..., 0, :] = u + v  # < 4p
            a[..., 1, :] = u - v + two_p  # < 4p
            a = a.reshape(*lead, k, n)
            m *= 2
        p2 = 2 * self.p_flat
        a = a - p2 * (a >= p2)
        return a - self.p_flat * (a >= self.p_flat)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Gentleman-Sande inverse of :meth:`forward`, ``(..., k, n)``.
        Harvey butterflies: inputs < p, invariant < 2p, output < p."""
        *lead, k, n = a.shape
        p = self.p_col
        two_p = 2 * p
        t, m = 1, n
        while m > 1:
            h = m // 2
            a = a.reshape(*lead, k, h, 2, t)
            s = self.psi_inv_rev[:, h : 2 * h].reshape(k, h, 1)
            s_sh = self.psi_inv_rev_shoup[:, h : 2 * h].reshape(k, h, 1)
            u = a[..., 0, :]
            v = a[..., 1, :]
            lo = u + v
            lo = lo - two_p * (lo >= two_p)  # < 2p
            w = u - v + two_p  # < 4p, still < 2^30
            hi = w * s - ((w * s_sh) >> 32) * p  # Shoup: < 2p
            a[..., 0, :] = lo
            a[..., 1, :] = hi
            a = a.reshape(*lead, k, n)
            t *= 2
            m = h
        ninv = self.n_inv
        out = a * ninv - ((a * self.n_inv_shoup) >> 32) * self.p_flat  # < 2p
        return out - self.p_flat * (out >= self.p_flat)

    # -- residue conversion / CRT reconstruction --------------------------

    def to_residues(self, coeffs: Sequence[int]) -> np.ndarray:
        """Python ints in [0, q) -> int64 residue matrix (k, n)."""
        n = self.n
        width = 2 * self.words
        buf = b"".join((c % self.q).to_bytes(width, "big") for c in coeffs)
        # Base-2^16 digits (n, words); digit · (2^16j mod p) < 2^44 and
        # sums over <= 64 words stay < 2^50: float64 matmul is exact.
        digits = np.frombuffer(buf, dtype=">u2").reshape(n, self.words)
        res = digits.astype(np.float64) @ self.pow16  # (n, k), exact
        return np.ascontiguousarray(
            (res.astype(np.int64) % self.primes).T
        )

    def from_residues(self, res: np.ndarray) -> list[int]:
        """Residue matrix (k, n) -> centered exact product reduced mod q."""
        r = res.T.astype(np.float64)  # residues < 2^28
        # Split residues into 14-bit halves so every float64 dot product
        # (digit < 2^14 times limb < 2^16, <= 2^9 primes) stays < 2^39,
        # exactly representable; recombine in int64 (< 2^53).
        r_lo = np.floor(r % 16384.0)
        r_hi = np.floor(r / 16384.0)
        limbs = (r_lo @ self.crt_limbs).astype(np.int64) + (
            (r_hi @ self.crt_limbs).astype(np.int64) << 14
        )
        while (limbs >> 16).any():
            carry = limbs >> 16
            limbs &= 0xFFFF
            limbs[:, 1:] += carry[:, :-1]
        row_bytes = 2 * self.limbs
        packed = limbs.astype("<u2").tobytes()
        out = []
        m_total, half, q = self.modulus, self.half_modulus, self.q
        for i in range(self.n):
            x = int.from_bytes(packed[i * row_bytes : (i + 1) * row_bytes], "little")
            x %= m_total
            if x > half:
                x -= m_total
            out.append(x % q)
        return out


class NumpyBackend:
    """ComputeBackend backed by the vectorized kernels above."""

    name = "numpy"

    def __init__(self) -> None:
        self._plans: OrderedDict[tuple, _Plan] = OrderedDict()
        self._lock = threading.Lock()

    def _plan(self, n: int, q: int, product_bits: int | None = None) -> _Plan:
        key = (n, q, product_bits)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        # Built outside the lock; tables are read-only.
        plan = _Plan(n, q, product_bits=product_bits)
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > _PLAN_CACHE_SIZE:
                self._plans.popitem(last=False)
        return plan

    def _fold_plan(self, n: int, q: int, base_bits: int, count: int) -> _Plan:
        """Tables for a fold of ``count`` digit polynomials below
        ``2^base_bits``.

        An output coefficient is a signed sum of ``count·n`` terms, each
        a digit below ``2^base_bits`` times a key coefficient below
        ``q``, and the centered CRT lift is exact once the basis product
        exceeds twice that magnitude.  ``x < 2^x.bit_length()`` for each
        factor, so the bound below holds at the worst case (every
        coefficient ``q−1``, every digit ``2^base_bits − 1``).  With
        32-bit digits it needs about half the primes — and half the
        transform time — of the general q×q basis.
        """
        bits = (
            q.bit_length()
            + base_bits
            + n.bit_length()
            + count.bit_length()
            + 1
        )
        return self._plan(n, q, product_bits=bits)

    def negacyclic_multiply(
        self, a: Operand, b: Operand, n: int, q: int
    ) -> list[int]:
        if not _is_pow2(n):
            return ntt.negacyclic_multiply_schoolbook(list(a), list(b), q)
        plan = self._plan(n, q)
        prod = np.multiply(plan.form(a), plan.form(b), dtype=np.int64)
        prod %= plan.p_flat
        return plan.from_residues(plan.inverse(prod))

    def fold_multiply_accumulate(
        self,
        pairs: Sequence[tuple[Resident, Resident]],
        coeffs: Sequence[int],
        base_bits: int,
        n: int,
        q: int,
    ) -> tuple[list[int], list[int]]:
        """The digit polynomials are the machine words of each
        coefficient's byte encoding; they go through batched transforms
        on the basis :meth:`_fold_plan` sizes, are accumulated pointwise
        against the key forms (residues below 2^31: every product fits
        int64 and the per-step ``% p`` keeps the sums below p), and one
        inverse + CRT reconstruction per output closes the fold."""
        count = len(pairs)
        if not _is_pow2(n) or base_bits not in (8, 16, 32):  # machine words
            return fold_by_products(self, pairs, coeffs, base_bits, n, q)
        plan = self._fold_plan(n, q, base_bits, count)
        width = count * base_bits // 8
        buf = b"".join(c.to_bytes(width, "little") for c in coeffs)
        words = np.frombuffer(buf, dtype=f"<u{base_bits // 8}")
        digits = words.reshape(n, count).T.astype(np.int64)[:, None, :]
        shape = len(plan.primes), n
        acc0 = np.zeros(shape, dtype=np.int64)
        acc1 = np.zeros(shape, dtype=np.int64)
        step = max(1, _FOLD_BATCH_ELEMENTS // (shape[0] * n))
        for start in range(0, count, step):
            batch = digits[start : start + step] % plan.p_flat
            transformed = plan.forward(batch)  # (step, primes, n)
            for (b_i, a_i), fd in zip(pairs[start : start + step], transformed):
                acc0 = (acc0 + plan.form(b_i) * fd) % plan.p_flat
                acc1 = (acc1 + plan.form(a_i) * fd) % plan.p_flat
        return (
            plan.from_residues(plan.inverse(acc0)),
            plan.from_residues(plan.inverse(acc1)),
        )

    def chacha20_keystreams(
        self, streams: Sequence[KeystreamRequest]
    ) -> list[bytes]:
        """Every block of every stream as one column of one state
        array, through :func:`_chacha_blocks` in one pass."""
        counts = [blocks for _, _, _, blocks in streams]
        if not any(counts):
            return [b""] * len(streams)
        raw = _chacha_blocks(_chacha_state(streams, counts))
        out, start = [], 0
        for blocks in counts:
            out.append(raw[start : start + 64 * blocks])
            start += 64 * blocks
        return out
