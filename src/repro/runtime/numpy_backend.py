"""Exact vectorized NumPy kernel for the negacyclic polynomial ring.

Bit-identical to the pure-Python reference backend, at NumPy speed.
Two regimes, chosen per ``(n, q)`` and cached as a :class:`_Plan`:

* **direct** — ``q`` is an NTT-friendly prime below 2^31, so every
  butterfly product ``u * s`` stays under 2^62 and the whole
  Longa-Naehrig transform runs on ``int64`` arrays with ``%``
  reductions.  Used for coefficient moduli small enough to vectorize
  in one shot.

* **rns** — ``q`` is too large for ``int64`` (the paper's 550-bit
  modulus, the test profiles' 512/900-bit ones) or not NTT-friendly at
  all (the plaintext modulus ``t``).  The product is computed *exactly*
  over a residue number system: a basis of 28-bit NTT-friendly primes
  ``p_k ≡ 1 (mod 2n)`` whose product ``M`` exceeds ``2·n·q²`` (the
  worst-case magnitude of a centered negacyclic product), one batched
  negacyclic NTT per prime, then CRT reconstruction with centering and
  a final reduction mod ``q``.  No approximation anywhere: the result
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
from repro.runtime.backends import Operand, Resident, fold_by_products

#: Largest modulus the direct int64 transform can serve: butterfly
#: products must stay below 2^63.
MAX_DIRECT_MODULUS = 1 << 31

#: Exclusive upper bound for RNS basis primes: the lazy butterflies keep
#: coefficients in [0, 4p) and Shoup products x·s' below 2^62.
MAX_RNS_PRIME = 1 << 28

_PLAN_CACHE_SIZE = 16

#: Elements per batched digit transform: enough rows to amortize NumPy's
#: per-call overhead on a small ring, few enough that a large ring's
#: batch (and its butterfly temporaries) stays a megabyte or two.
_FOLD_BATCH_ELEMENTS = 1 << 17


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
        self.direct = (
            q < MAX_DIRECT_MODULUS and (q - 1) % (2 * n) == 0 and is_prime(q)
        )
        general_bits = 2 * q.bit_length() + n.bit_length() + 2
        need_bits = (
            general_bits
            if product_bits is None
            else min(product_bits, general_bits)
        )
        primes = [q] if self.direct else _rns_primes(n, q, need_bits)
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
        if not self.direct:
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
        """
        return self._forward_direct(a) if self.direct else self._forward_lazy(a)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Gentleman-Sande inverse of :meth:`forward`, ``(..., k, n)``."""
        return self._inverse_direct(a) if self.direct else self._inverse_lazy(a)

    def _forward_direct(self, a: np.ndarray) -> np.ndarray:
        *lead, k, n = a.shape
        p = self.p_col
        t, m = n, 1
        while m < n:
            t //= 2
            a = a.reshape(*lead, k, m, 2, t)
            s = self.psi_rev[:, m : 2 * m].reshape(k, m, 1)
            u = a[..., 0, :]
            v = (a[..., 1, :] * s) % p
            lo = (u + v) % p
            hi = (u - v) % p
            a[..., 0, :] = lo
            a[..., 1, :] = hi
            a = a.reshape(*lead, k, n)
            m *= 2
        return a

    def _inverse_direct(self, a: np.ndarray) -> np.ndarray:
        *lead, k, n = a.shape
        p = self.p_col
        t, m = 1, n
        while m > 1:
            h = m // 2
            a = a.reshape(*lead, k, h, 2, t)
            s = self.psi_inv_rev[:, h : 2 * h].reshape(k, h, 1)
            u = a[..., 0, :]
            v = a[..., 1, :]
            lo = (u + v) % p
            hi = ((u - v) * s) % p
            a[..., 0, :] = lo
            a[..., 1, :] = hi
            a = a.reshape(*lead, k, n)
            t *= 2
            m = h
        return (a * self.n_inv) % self.p_flat

    def _forward_lazy(self, a: np.ndarray) -> np.ndarray:
        """Harvey CT butterflies: inputs < p, invariant < 4p, output < p."""
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

    def _inverse_lazy(self, a: np.ndarray) -> np.ndarray:
        """Harvey GS butterflies: inputs < p, invariant < 2p, output < p."""
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
        if self.direct:
            q = self.q
            return np.asarray(
                [c % q for c in coeffs], dtype=np.int64
            ).reshape(1, n)
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
        if self.direct:
            return [int(x) for x in res[0]]
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

    def _directable(self, n: int, q: int) -> bool:
        return (
            q < MAX_DIRECT_MODULUS
            and _is_pow2(n)
            and (q - 1) % (2 * n) == 0
            and is_prime(q)
        )

    def forward_ntt(self, coeffs: Sequence[int], n: int, q: int) -> list[int]:
        if not self._directable(n, q):
            # Transforms mod a large q cannot be vectorized in int64;
            # fall back to the reference tables (bit-identical anyway).
            return ntt.get_context(n, q).forward(list(coeffs))
        plan = self._plan(n, q)
        return [int(x) for x in plan.forward(plan.to_residues(coeffs))[0]]

    def inverse_ntt(self, values: Sequence[int], n: int, q: int) -> list[int]:
        if not self._directable(n, q):
            return ntt.get_context(n, q).inverse(list(values))
        plan = self._plan(n, q)
        return [int(x) for x in plan.inverse(plan.to_residues(values))[0]]

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
