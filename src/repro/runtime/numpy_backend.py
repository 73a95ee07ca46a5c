"""Exact vectorized NumPy kernels: the negacyclic polynomial ring and
the ChaCha20 keystream.

Bit-identical to the pure-Python reference backend, at NumPy speed.
The ring moduli are too large for ``int64`` (the paper's 550-bit
modulus, the test profiles' 512/900-bit ones) or not NTT-friendly at
all (the plaintext modulus ``t``), so a product sum is computed
*exactly* in one of two ways, chosen by the ring degree and the
operands' values.

Where every pair has a ternary operand (every coefficient ``0``, ``1``
or ``q-1``, as the BGV secret ``s`` and the encryption randomness ``u``
are) and ``n`` is at most :data:`_DIRECT_MAX_N`, there is no transform
at all (:func:`_direct_sums`): the product with a ternary operand is a
signed sum of ``n`` rotations, i.e. its ``n×n`` sign matrix times the
other operand.  One float64 GEMM of the sign matrices against the other
operands' 32-bit limbs gives every product of the call, each entry below
``terms·n·2^32`` and so exact while that is at most 2^53 (a longer sum
takes the transforms), and a carry pass turns each coefficient's limbs
into one integer.  At the TEST ring an encryption batch's products take
a third to a half of the transforms' time.

Every other sum goes over a residue number system, its tables cached
as a :class:`_Plan`: a basis of NTT-friendly primes ``p_k ≡ 1 (mod
2n)`` below 2^25 whose product ``M`` exceeds four times the
worst-case magnitude of the centered sum (``m·n·q²`` for ``m``
products), one batched negacyclic NTT per prime, the products
accumulated pointwise, then one inverse NTT and one CRT straight into
``Z_q``.  The sums of one call share all of it: one
plan, stacked forward transforms of every operand not yet in its form,
stacked inverses of every sum and one CRT pass over all their
coefficients.  Stacks are bounded
(:data:`_BATCH_ELEMENTS`, :data:`_CRT_COLUMNS`), so a large ring is still
transformed one polynomial at a time.  A ternary operand above the
direct path's degrees is lifted centered, into {-1, 0, 1}, and its
product is bounded by ``n·q``: its basis is half as wide.

Either way a call's sums are taken in groups of about
:data:`_GROUP_ELEMENTS` elements of working set, so a genesis hands
every relinearization piece to one call at the memory of a few
products.  No approximation anywhere: the result equals the sum of the
schoolbook products for every modulus.

Everything heavy is a BLAS matrix product whose partial sums stay
below 2^53, so ``float64`` accumulates them exactly in any order: ±1
against 32-bit limbs on the direct path; on the RNS path balanced
residues against balanced tables, each within 2^24 of zero (see
:class:`_Plan`), and 25-bit residues against 16-bit limbs in the CRT.
Each RNS transform is Bailey's four-step split into steps of at most
32 points, one matrix product per step and a pointwise twiddle between
steps, each followed by one reduction by the stored ``1/p``.

The ChaCha20 kernel (:meth:`NumpyBackend.chacha20_keystreams`) lays the
blocks of every requested stream out as the columns of one ``(16, B)``
``uint32`` state, so the twenty rounds cost the same few hundred array
operations for one block as for the thousands an onion wave asks for.

This module imports NumPy at the top level; the backend registry treats
the resulting ``ImportError`` as "backend unavailable".
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from itertools import chain, repeat
from operator import mod
from typing import Iterator, Sequence

import numpy as np

from repro.crypto.modmath import is_prime, primitive_root_of_unity
from repro.errors import ParameterError
from repro.runtime.backends import (
    KeystreamRequest,
    Operand,
    Resident,
    Sum,
    fold_by_products,
    schoolbook_sum,
)

#: Exclusive upper bound for RNS basis primes: residues and table
#: entries held within (p+3)/2 of zero are below 2^24, so a sum of 32
#: products of two, a transform step's among them, stays below 2^53.
MAX_RNS_PRIME = 1 << 25

#: Products an accumulator adds between reductions, the residue it
#: carries counted as one: the 32 terms of a transform step.
_EXACT_TERMS = 32

_PLAN_CACHE_SIZE = 16

#: Elements per batched transform, forward or inverse, of product
#: operands, sums or relinearization digits: dozens of TEST-ring
#: polynomials, so a slot's encryptions share each NumPy call (28
#: stacked: 0.064 ms each against 0.11 ms alone), but one SMALL-ring
#: polynomial, whose temporaries outgrow the cache once several are
#: stacked (four general ones: 3.7 ms each against 2.8 ms alone).
_BATCH_ELEMENTS = 1 << 16

#: Columns per CRT step: four TEST-ring products, or a quarter of a
#: SMALL-ring one, so the ``(columns, limbs)`` temporaries stay in cache
#: (a TEST batch's 1,664 columns: 1.9 µs each in steps, 2.8 µs at once).
_CRT_COLUMNS = 1 << 8

#: Elements of working set per group of a product call's sums (see
#: :func:`_groups` and :func:`_direct_groups`): 256 KiB of float64 or
#: int64.  On the RNS path that is 25 rows of a ternary basis or 13 of
#: the general one at TEST, less than one SMALL row, so at SMALL every
#: sum is a group and a call of any length holds the working set of a
#: product.  At TEST a direct group holds a few encryptions (three of a
#: 16-leaf batch) or eight ``a_i·s`` genesis products; from 2^14 to 2^17
#: a 16-leaf batch's kernel time per encryption moved within the run's
#: noise.  The RNS path was tuned at TEST before the direct path took
#: its ternary sums: 2^15 beat 2^14 and 2^16 there by 9–31 %.
_GROUP_ELEMENTS = 1 << 15

#: Largest ring degree whose ternary product sums skip the transforms
#: (:func:`_direct_sums`).  Kernel time per encryption of a 16-leaf
#: batch, direct against the RNS basis, at a 513-bit q: 91–158 against
#: 297 µs at n=64, 262–344 against 660 µs at n=128, 770 against
#: 1,227–1,377 µs at n=256, but 2,866–2,901 against 2,562–2,631 µs at
#: n=512 (docs/PERFORMANCE.md has the 901-bit column).
_DIRECT_MAX_N = 256

#: Largest ``terms·n`` of a direct product sum: its float64 entries lie
#: below ``terms·n·2^32``, exact up to 2^53.
_DIRECT_EXACT = 1 << 21


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


def _ternary_signs(operand: Operand, q: int) -> list[int] | None:
    """The centered coefficients, each in {-1, 0, 1}, of an operand whose
    coefficients all lie in {0, 1, q-1}; ``None`` for any other operand,
    found at its first other coefficient (at once, for a uniform or key
    operand).  A :class:`Resident` files the answer beside its forms."""

    def scan(coeffs: Sequence[int]) -> list[int] | None:
        lift = {0: 0, 1: 1, q - 1: -1}
        signs = []
        for c in coeffs:
            sign = lift.get(c)
            if sign is None:
                return None
            signs.append(sign)
        return signs

    if isinstance(operand, Resident):
        return operand.form(Resident.signs_key(q), scan)
    return scan(operand)


@functools.lru_cache(maxsize=64)
def _rns_primes(n: int, q: int, need_bits: int) -> tuple[int, ...]:
    """Primes ``p ≡ 1 (mod 2n)`` below :data:`MAX_RNS_PRIME`, largest
    first, with product ≥ ``2^need_bits``."""
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
    return tuple(primes)


class _Plan:
    """Precomputed tables for one ``(n, q)`` pair on one RNS basis,
    ``primes``, for exact values below ``2^bound_bits / 2`` in magnitude
    (see :meth:`NumpyBackend._sum_plan` for the sizing).  Every residue
    it holds between stages is a float64 integer within ``(p+3)/2`` of
    zero, every table entry within ``(p-1)/2``: both below 2^24, so a
    product is below 2^48 and a parked form exact as float32."""

    def __init__(self, n: int, q: int, primes: Sequence[int], bound_bits: int):
        self.n = n
        self.q = q
        self.primes = np.asarray(primes, dtype=np.int64)
        #: Names the basis: what a Resident files this plan's forms under.
        self.form_key = ("numpy", tuple(primes))
        k = len(primes)
        #: Polynomials per batched transform: :data:`_BATCH_ELEMENTS`
        #: worth, and at least one.
        self.transform_rows = max(1, _BATCH_ELEMENTS // (k * n))
        self.p_flat = self.primes.reshape(k, 1)
        self.p_float = self.p_flat.astype(np.float64)
        self.p_inverse = 1.0 / self.p_float
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
        # Bailey's four-step split, once per step of at most 32 points,
        # tables gathered from each prime's powers of psi.  Step s (r
        # points after P) takes the top digit i of what is left of the
        # index against psi^((n/r)·i·(2j+o)) (o = 1 on the first step, for
        # the negacyclic twist), the rest m against psi^(P·m·(2j+o)).
        # Inverses are / r; every entry balanced.
        p = self.p_flat[:, :, None]
        balanced = lambda m: (m - p * (2 * m > p)).astype(np.float64)
        power = np.ones((k, 2 * n), dtype=np.int64)
        psi = np.array([[primitive_root_of_unity(2 * n, x)] for x in primes])
        span = 1
        while span < 2 * n:  # power[:, span:2span] = power[:, :span] * psi^span
            power[:, span : 2 * span] = power[:, :span] * psi % self.p_flat
            psi, span = psi * psi % self.p_flat, 2 * span
        bits = n.bit_length() - 1
        cuts = [bits * s // -(-bits // 5) for s in range(-(-bits // 5) + 1)]
        self.radices = [1 << (high - low) for low, high in zip(cuts, cuts[1:])]
        self.steps = []
        for s, r in enumerate(self.radices):
            before = math.prod(self.radices[:s])
            odd = 2 * np.arange(r) + (s == 0)
            exps = (n // r) * np.outer(odd, np.arange(r)) % (2 * n)  # [j, i]
            twist = before * np.outer(odd, np.arange(n // (before * r))) % (2 * n)
            r_inv = np.array([[[pow(r, -1, x)]] for x in primes])
            step = [
                balanced(m)[:, None]
                for m in (power[:, exps], power[:, -exps.T] * r_inv % p)
            ]
            if 0 < s == len(self.radices) - 1:  # takes the data's rows
                step = [np.ascontiguousarray(m.transpose(0, 1, 3, 2)) for m in step]
            for exponents in (twist, -twist):
                step.append(balanced(power[:, exponents])[:, None, :, None])
            self.steps.append(step)
        # The CRT straight into Z_q: with c_k = (M/p_k)·((M/p_k)^-1 mod
        # p_k), residues r_k in [0, p_k) lift to x = Σ r_k·c_k - v·M, v =
        # rint(Σ r_k·inv_k/p_k) < k·2^25, exact while |x| <= M/4.  So x
        # mod q is one product of the r_k against 16-bit limbs of c_k mod
        # q, plus v times those of -M mod q: every partial sum below
        # 2k·2^41, and nothing of M's size per column.
        self.modulus = math.prod(primes)
        if not self.modulus >> (bound_bits + 1):
            raise ParameterError(f"RNS basis {tuple(primes)} leaves no CRT margin")
        inverses = [pow(self.modulus // p % p, -1, p) for p in primes]
        self.crt_fraction = np.array(inverses) / self.primes
        rows = [self.modulus // p * inv % q for p, inv in zip(primes, inverses)]
        rows.append(-self.modulus % q)
        self.limbs = -(-(q.bit_length() + 26 + k.bit_length()) // 16)
        zq_limbs = np.array(
            [[(x >> (16 * j)) & 0xFFFF for j in range(self.limbs)] for x in rows],
            dtype=np.float64,
        )
        self.zq_limbs, self.v_limbs = zq_limbs[:-1], zq_limbs[-1]

    def forms(self, operands: Sequence[Operand]) -> np.ndarray:
        """The evaluation forms of ``operands`` on this basis, stacked
        ``(len(operands), k, n)`` float64.  The operands not yet in this
        basis' form go through batched :meth:`forward` calls,
        :attr:`transform_rows` at a time, and a :class:`Resident` files
        its form for every later product.  A ternary operand is lifted
        centered, on every basis: ``q-1`` becomes ``-1``."""
        out = np.empty((len(operands), len(self.primes), self.n))
        fresh = []
        for i, operand in enumerate(operands):
            form = (
                operand.forms.get(self.form_key)
                if isinstance(operand, Resident)
                else None
            )
            if form is None:
                fresh.append(i)
            else:
                out[i] = form
        step = self.transform_rows
        for start in range(0, len(fresh), step):
            chunk = fresh[start : start + step]
            batch = self.forward(self._lift([operands[i] for i in chunk]))
            out[chunk] = batch.transpose(1, 0, 2)
            for i in chunk:
                if isinstance(operands[i], Resident):
                    # Within 2^24 of zero: parked at half width, exactly.
                    operands[i].forms[self.form_key] = out[i].astype(np.float32)
        return out

    def _lift(self, operands: Sequence[Operand]) -> np.ndarray:
        """``(k, b, n)`` balanced residues of ``b`` operands: the ternary
        ones their signs, the rest through one :meth:`to_residues`."""
        lifted = np.empty((len(self.primes), len(operands), self.n))
        signs = [_ternary_signs(operand, self.q) for operand in operands]
        ternary = [i for i, row in enumerate(signs) if row is not None]
        general = [i for i, row in enumerate(signs) if row is None]
        if ternary:
            lifted[:, ternary] = np.asarray([signs[i] for i in ternary], dtype=np.float64)
        if general:
            lifted[:, general] = self.to_residues([operands[i] for i in general])
        return lifted

    # -- transforms: exact float64 matrix products ------------------------

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """``(k, ...)`` float64 integers below 2^53 in magnitude, mod p in
        place.  The quotient, ``x`` times the stored ``1/p``, is off by
        less than ``|x|·2^-52 < 2`` residues, so what is left lies within
        ``(p+3)/2`` of 0, and within ``(p+1)/2`` for ``|x| < 2^51``."""
        shape = (-1,) + (1,) * (x.ndim - 1)
        quotient = x * self.p_inverse.reshape(shape)
        np.rint(quotient, out=quotient)
        quotient *= self.p_float.reshape(shape)
        x -= quotient
        return x

    def _step(self, x: np.ndarray, s: int, batch: int, matrix: np.ndarray):
        """Step ``s``'s matrix along its digit, mod p, with the batch
        after the first digit: one matrix product, one reduction."""
        k, r, before = len(self.primes), self.radices[s], math.prod(self.radices[:s])
        rest = self.n // (before * r)
        a, c = (1, batch * rest) if s == 0 else (before * batch, rest)
        if 0 < s == len(self.radices) - 1:  # its digit is the data's last axis
            out = np.matmul(x.reshape(k, 1, a, r), matrix)
        else:
            out = np.matmul(matrix, x.reshape(k, a, r, c))
        return self.reduce(out).reshape(k, a, r, c)

    def _twiddle(self, x: np.ndarray, s: int, table: np.ndarray) -> np.ndarray:
        """``x · twiddle mod p`` after step ``s``: one product, below
        2^48, and one reduction."""
        k, r, rest = len(self.primes), table.shape[2], table.shape[4]
        view = x.reshape((k, 1, r, -1, rest) if s == 0 else (k, -1, r, 1, rest))
        return self.reduce(view * table)

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Negacyclic NTT of every ``(k, b, n)`` row of residues within
        ``(p+3)/2`` of zero: a matrix product per step, a twiddle between
        steps; float64 as balanced, in an evaluation order only
        :meth:`inverse` reads."""
        k, b, n = a.shape
        r0 = self.radices[0]
        x = a.reshape(k, b, r0, -1).transpose(0, 2, 1, 3).astype(np.float64, order="C")
        for s, (matrix, _, twiddle, _) in enumerate(self.steps):
            x = self._step(x, s, b, matrix)
            if s < len(self.steps) - 1:
                x = self._twiddle(x, s, twiddle)
        x = x.reshape(k, r0, b, -1).transpose(0, 2, 1, 3)
        return np.ascontiguousarray(x).reshape(k, b, n)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """:meth:`forward` undone on ``(k, m, n)`` residues within
        ``(p+3)/2`` of zero: coefficient order, float64 in ``[0, p)``."""
        k, m, n = a.shape
        r0 = self.radices[0]
        x = a.reshape(k, m, r0, -1).transpose(0, 2, 1, 3).astype(np.float64, order="C")
        for s in reversed(range(len(self.steps))):
            _, matrix, _, untwiddle = self.steps[s]
            if s < len(self.steps) - 1:
                x = self._twiddle(x, s, untwiddle)
            x = self._step(x, s, m, matrix)
        x += self.p_float.reshape(-1, 1, 1, 1) * (x < 0)
        x = x.reshape(k, r0, m, -1).transpose(0, 2, 1, 3)
        return np.ascontiguousarray(x).reshape(k, m, n)

    # -- residue conversion / CRT reconstruction --------------------------

    def to_residues(self, operands: Sequence[Sequence[int]]) -> np.ndarray:
        """Python ints in [0, q), ``b`` polynomials of them -> balanced
        float64 residues ``(k, b, n)``: one byte string, one matmul."""
        width = 2 * self.words
        reduced = map(mod, chain.from_iterable(operands), repeat(self.q))
        buf = b"".join(map(int.to_bytes, reduced, repeat(width), repeat("big")))
        # Base-2^16 digits (b·n, words); digit · (2^16j mod p) < 2^41 and
        # sums over <= 64 words stay < 2^47: float64 matmul is exact.
        digits = np.frombuffer(buf, dtype=">u2").reshape(-1, self.words)
        residues = self.reduce(self.pow16.T @ digits.T.astype(np.float64))
        return residues.reshape(len(self.primes), len(operands), self.n)

    def outputs(self, acc: np.ndarray) -> list[list[int]]:
        """Accumulated sums ``(k, m, n)`` in the evaluation domain -> one
        coefficient list per sum: stacked inverses, then the CRT over
        their ``m·n`` columns."""
        k, m, n = acc.shape
        step = self.transform_rows
        flat = []
        for start in range(0, m, step):
            chunk = self.inverse(acc[:, start : start + step])
            flat += self.from_residues(chunk.reshape(k, -1))
        return [flat[i * n : (i + 1) * n] for i in range(m)]

    def from_residues(self, res: np.ndarray) -> list[int]:
        """Residue matrix ``(k, m)``, float64 in ``[0, p)`` -> the ``m``
        columns' centered exact values, each reduced mod q, converted
        :data:`_CRT_COLUMNS` columns at a time."""
        out: list[int] = []
        row_bytes = 2 * self.limbs
        for start in range(0, res.shape[1], _CRT_COLUMNS):
            r = res[:, start : start + _CRT_COLUMNS].T  # (columns, k)
            v = np.rint(r @ self.crt_fraction)
            limbs = r @ self.zq_limbs
            limbs += v[:, None] * self.v_limbs
            limbs = limbs.astype(np.int64)
            while (limbs >> 16).any():
                carry = limbs >> 16
                limbs &= 0xFFFF
                limbs[:, 1:] += carry[:, :-1]
            # One bytes object per column, then C-level maps over them.
            rows = limbs.astype("<u2").view(f"V{row_bytes}").ravel().tolist()
            values = map(int.from_bytes, rows, repeat("little"))
            out += map(mod, values, repeat(self.q))
        return out


def _groups(sums: Sequence[Sum], rows: int) -> Iterator[list[Sum]]:
    """Consecutive runs of ``sums`` that hold at most ``rows`` ring rows
    of operand forms and accumulator — one per distinct operand, one per
    sum — or a single sum that alone holds more."""
    group: list[Sum] = []
    seen: set[int] = set()
    for terms in sums:
        new = {id(x) for pair in terms for x in pair} - seen
        if group and len(seen) + len(new) + len(group) + 1 > rows:
            yield group
            group, seen = [], set()
            new = {id(x) for pair in terms for x in pair}
        group.append(terms)
        seen |= new
    if group:
        yield group


def _oriented(pair, q: int) -> tuple:
    """``(ternary operand, other operand, the ternary one's signs)`` of
    a pair with at least one ternary operand, the right one if both."""
    a, b = pair
    signs = _ternary_signs(b, q)
    return (b, a, signs) if signs is not None else (a, b, _ternary_signs(a, q))


@functools.lru_cache(maxsize=4)
def _negacyclic_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(k - j) mod n`` and its sign, ``+1`` for ``j <= k`` and ``-1``
    above the diagonal (``x^n = -1``): indexing a ternary operand's
    values by the first and scaling by the second gives the ``n×n``
    matrix whose product with the other operand is the negacyclic
    product."""
    k, j = np.indices((n, n))
    index, signs = (k - j) % n, np.where(j <= k, 1.0, -1.0)
    index.flags.writeable = signs.flags.writeable = False
    return index, signs


def _limb_stack(generals: Sequence[Operand], q: int, width: int) -> np.ndarray:
    """``(n, len(generals), width)`` float64 32-bit limbs, least
    significant first, of operands with values below ``2^(32·width)``
    once reduced mod q.  The operands not yet split go through one byte
    join, and a :class:`Resident` files its limbs."""
    key = ("limbs", q)
    held = [x.forms.get(key) if isinstance(x, Resident) else None for x in generals]
    fresh = [i for i, limbs in enumerate(held) if limbs is None]
    if fresh:
        reduced = map(mod, chain.from_iterable(generals[i] for i in fresh), repeat(q))
        buf = b"".join(map(int.to_bytes, reduced, repeat(4 * width), repeat("little")))
        split = np.frombuffer(buf, dtype="<u4").astype(np.float64)
        for i, limbs in zip(fresh, split.reshape(len(fresh), -1, width)):
            held[i] = limbs
            if isinstance(generals[i], Resident):
                generals[i].forms[key] = limbs
    return np.stack(held, axis=1)


def _direct_groups(
    oriented: Sequence[Sequence[tuple]], n: int, width: int, limit: int
) -> Iterator[list]:
    """Consecutive runs of ``oriented`` sums whose working set — an
    ``n×n`` sign matrix per distinct ternary operand, ``n·width`` limbs
    per distinct general operand, per (ternary, general) block of the
    product and per sum — holds at most ``limit`` elements, or a single
    sum that alone holds more."""
    group: list = []
    ternary: set[int] = set()
    general: set[int] = set()
    for terms in oriented:
        t = ternary | {id(x) for x, _, _ in terms}
        g = general | {id(y) for _, y, _ in terms}
        held = len(t) * n * n + (len(g) + len(t) * len(g) + len(group) + 1) * n * width
        if group and held > limit:
            yield group
            group = []
            t = {id(x) for x, _, _ in terms}
            g = {id(y) for _, y, _ in terms}
        group.append(terms)
        ternary, general = t, g
    if group:
        yield group


def _direct_sums(group: Sequence[Sequence[tuple]], n: int, q: int) -> list[list[int]]:
    """Ternary product sums without transforms: one GEMM of every
    distinct ternary operand's sign matrix against every distinct
    general operand's 32-bit limbs, each sum's blocks added, then the
    limbs carried into one integer per coefficient.

    A block entry is a signed sum of ``n`` limbs, so a sum's entries lie
    below ``terms·n·2^32`` in magnitude: exact in float64 while that is
    at most 2^53, which the caller checks.  The coefficient is then
    ``Σ_l x_l·2^(32l)``, above ``-terms·n·q``; adding ``K·q``, ``K =
    terms·n + 1``, makes it positive before the carries."""
    width = -(-q.bit_length() // 32)
    slot_t: dict[int, int] = {}
    slot_g: dict[int, int] = {}
    signs, generals = [], []
    for x, y, row in (pair for terms in group for pair in terms):
        if id(x) not in slot_t:
            slot_t[id(x)] = len(signs)
            signs.append(row)
        if id(y) not in slot_g:
            slot_g[id(y)] = len(generals)
            generals.append(y)
    if not signs:  # only empty sums
        return [[0] * n for _ in group]
    index, sign = _negacyclic_tables(n)
    matrices = np.take(np.asarray(signs, dtype=np.float64), index, axis=1)
    matrices *= sign
    limbs = _limb_stack(generals, q, width).reshape(n, -1)
    blocks = (matrices.reshape(-1, n) @ limbs).reshape(len(signs), n, len(generals), width)
    longest = max(map(len, group))
    acc = np.zeros((len(group), n, width))
    for position in range(longest):
        rows = [i for i, terms in enumerate(group) if len(terms) > position]
        left = [slot_t[id(group[i][position][0])] for i in rows]
        right = [slot_g[id(group[i][position][1])] for i in rows]
        acc[rows] += blocks[left, :, right]
    offset = (n * longest + 1) * q
    wide = (offset.bit_length() + 32) // 32  # room for value + offset
    # Limb-major, so each carry step is over whole rows.
    x = np.zeros((wide, len(group) * n), dtype=np.int64)
    x[:width] = acc.reshape(-1, width).T
    x += np.frombuffer(offset.to_bytes(4 * wide, "little"), dtype="<u4")[:, None]
    # Carries move up, the top limb keeps its own: the value is kept
    # exactly, and once every lower limb is in [0, 2^32) the positive
    # value puts the top one there too.
    while True:
        carry = x[:-1] >> 32
        if not carry.any():
            break
        x[:-1] &= 0xFFFFFFFF
        x[1:] += carry
    columns = x.T.astype("<u4", order="C").view(f"V{4 * wide}").ravel().tolist()
    values = list(map(mod, map(int.from_bytes, columns, repeat("little")), repeat(q)))
    return [values[i * n : (i + 1) * n] for i in range(len(group))]


def _accumulate(plan: _Plan, group: Sequence[Sum]) -> np.ndarray:
    """The sums of ``group`` in the evaluation domain, ``(k, m, n)``:
    every distinct operand's form once, then per term position one
    gathered product of every sum that has a term there, reduced once
    per :data:`_EXACT_TERMS` terms and at the end."""
    slots: dict[int, int] = {}  # id(operand) -> row of ``forms``
    operands = []
    for x in (x for terms in group for pair in terms for x in pair):
        if id(x) not in slots:
            slots[id(x)] = len(operands)
            operands.append(x)
    forms = plan.forms(operands).transpose(1, 0, 2)
    acc = np.zeros((len(plan.primes), len(group), plan.n))
    for position in range(max(map(len, group))):
        if position and position % (_EXACT_TERMS - 1) == 0:
            plan.reduce(acc)
        rows = [i for i, terms in enumerate(group) if len(terms) > position]
        left = [slots[id(group[i][position][0])] for i in rows]
        right = [slots[id(group[i][position][1])] for i in rows]
        product = np.multiply(forms[:, left], forms[:, right])
        if len(rows) == len(group):
            acc += product
        else:
            acc[:, rows] += product
    return plan.reduce(acc)


class NumpyBackend:
    """ComputeBackend backed by the vectorized kernels above."""

    name = "numpy"

    def __init__(self) -> None:
        self._plans: OrderedDict[tuple, _Plan] = OrderedDict()
        self._lock = threading.Lock()

    def _plan(self, n: int, q: int, product_bits: int) -> _Plan:
        """Tables for exact values below ``2^product_bits / 2`` in
        magnitude, on the smallest basis whose product is at least
        ``2^(product_bits + 1)``: four times the bound, what the CRT's
        rounding needs.  Bounds that need the same primes share one plan
        (and a :class:`Resident` one form)."""
        primes = _rns_primes(n, q, product_bits + 1)
        key = (n, q, primes)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        # Built outside the lock; tables are read-only.
        plan = _Plan(n, q, primes, product_bits)
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > _PLAN_CACHE_SIZE:
                self._plans.popitem(last=False)
        return plan

    def _sum_plan(self, n: int, q: int, factor_bits: int, terms: int) -> _Plan:
        """Tables for a sum of ``terms`` negacyclic products, each of an
        operand below ``q`` with one whose centered coefficients are at
        most ``2^factor_bits`` in magnitude.

        An output coefficient is a signed sum of ``terms·n`` such
        coefficient products, and the centered CRT lift is exact once
        the basis product exceeds twice that magnitude; ``x <
        2^x.bit_length()`` for ``q``, ``n`` and ``terms``, so the bound
        below holds at the worst case.  A general product takes
        ``factor_bits = q_bits`` (the ``2·n·q²`` basis); a ternary one
        takes 0 and a relinearization fold's digits take ``base_bits``,
        each about half the primes — and half the transform time — of
        the general basis.
        """
        bits = (
            q.bit_length()
            + factor_bits
            + n.bit_length()
            + terms.bit_length()
            + 1
        )
        return self._plan(n, q, bits)

    def negacyclic_multiply(
        self, sums: Sequence[Sum], n: int, q: int
    ) -> list[list[int]]:
        """If every pair has a ternary operand, ``n`` is at most
        :data:`_DIRECT_MAX_N` and the longest sum is within
        :data:`_DIRECT_EXACT`, the sums in :func:`_direct_groups`, each
        group one :func:`_direct_sums`.  Otherwise one plan for the whole
        call — the ternary basis only if every pair has a ternary
        operand, sized for the longest sum — then the sums in groups of
        :data:`_GROUP_ELEMENTS`: each group's operands transformed in
        batches (each once, however many pairs share it), its pair
        products accumulated, then :meth:`_Plan.outputs`."""
        if not _is_pow2(n):
            return [schoolbook_sum(pairs, n, q) for pairs in sums]
        ternary = all(
            any(_ternary_signs(x, q) is not None for x in pair)
            for terms in sums
            for pair in terms
        )
        longest = max((len(terms) for terms in sums), default=0)
        if ternary and n <= _DIRECT_MAX_N and longest * n <= _DIRECT_EXACT:
            oriented = [[_oriented(pair, q) for pair in terms] for terms in sums]
            out = []
            width = -(-q.bit_length() // 32)
            for group in _direct_groups(oriented, n, width, _GROUP_ELEMENTS):
                out += _direct_sums(group, n, q)
            return out
        plan = self._sum_plan(n, q, 0 if ternary else q.bit_length(), longest)
        rows = max(1, _GROUP_ELEMENTS // (len(plan.primes) * n))
        out: list[list[int]] = []
        for group in _groups(sums, rows):
            out += plan.outputs(_accumulate(plan, group))
        return out

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
        on the basis :meth:`_sum_plan` sizes, are accumulated pointwise
        against the key forms, and one inverse + CRT reconstruction over
        both outputs closes the fold."""
        count = len(pairs)
        if not _is_pow2(n) or base_bits not in (8, 16, 32):  # machine words
            return fold_by_products(self, pairs, coeffs, base_bits, n, q)
        plan = self._sum_plan(n, q, base_bits, count)
        width = count * base_bits // 8
        buf = b"".join(c.to_bytes(width, "little") for c in coeffs)
        words = np.frombuffer(buf, dtype=f"<u{base_bits // 8}")
        digits = words.reshape(n, count).T.astype(np.float64)[None]
        acc = np.zeros((len(plan.primes), 2, n))
        step = plan.transform_rows
        for start in range(0, count, step):
            batch = digits[:, start : start + step].repeat(len(plan.primes), 0)
            transformed = plan.forward(plan.reduce(batch))  # (primes, step, n)
            for i, fd in enumerate(transformed.transpose(1, 0, 2), start):
                if i and i % (_EXACT_TERMS - 1) == 0:
                    plan.reduce(acc)
                f_b, f_a = plan.forms(pairs[i])
                acc[:, 0] += f_b * fd
                acc[:, 1] += f_a * fd
        d0, d1 = plan.outputs(plan.reduce(acc))
        return d0, d1

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
