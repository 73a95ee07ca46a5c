"""Reed-Solomon robust decoding over the Shamir code.

A degree-(t-1) Shamir sharing evaluated at n distinct indices *is* a
Reed-Solomon codeword with minimum distance n - t + 1, so up to
``(n - t) // 2`` wrong shares can be corrected — and the wrong indices
identified — in a single pass, with no identification round-trip and no
subset enumeration (§5: "c + 1 honest nodes can detect any errors
introduced by dishonest nodes").  With exactly ``t`` shares there is
no redundancy, every received word is a codeword, and decoding *is*
Lagrange interpolation.  This module implements:

* :class:`BatchOpener` — the amortized half: all per-index-set work
  (Lagrange weights at zero, evaluation weights at every non-base
  index) is computed once and reused across arbitrarily many openings
  against the same share indices.
* :func:`batch_robust_reconstruct` — many codewords over one index set
  (the shape of a wide-histogram decryption: one codeword per ring
  coefficient) decoded with **one** error-locator computation: a
  Fiat-Shamir random combination of the rows is Gao-decoded once, the
  surviving honest base opens every row with plain Lagrange arithmetic,
  and per-row deviations are re-checked exactly so the flagged set is
  deterministic.

Everything here is plain integer arithmetic mod a prime — no compute
backend involvement — so results are bit-identical across backends and
worker counts by construction.

Polynomials are coefficient lists, lowest degree first, with no
trailing zeros ("[]" is the zero polynomial).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.hashes import hash_to_int
from repro.errors import RobustDecodingError, SecretSharingError


def max_correctable_errors(num_shares: int, threshold: int) -> int:
    """Unique-decoding radius of the (n, t) Shamir/RS code:
    ``(n - t) // 2`` wrong shares can be corrected."""
    return max(0, (num_shares - threshold) // 2)


# ---------------------------------------------------------------------------
# Polynomial arithmetic over GF(q), coefficient lists lowest-first
# ---------------------------------------------------------------------------


def _trim(poly: list[int]) -> list[int]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_mul(a: list[int], b: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _trim(out)


def _poly_sub(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % q
    return _trim(out)


def _poly_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], q - 2, q)
    for shift in range(len(a) - len(b), -1, -1):
        coeff = (rem[shift + len(b) - 1] * inv_lead) % q
        if coeff:
            quo[shift] = coeff
            for i, bi in enumerate(b):
                rem[shift + i] = (rem[shift + i] - coeff * bi) % q
    return _trim(quo), _trim(rem)


def _poly_eval(poly: Sequence[int], x: int, q: int) -> int:
    acc = 0
    for coeff in reversed(poly):
        acc = (acc * x + coeff) % q
    return acc


def _interpolate(xs: Sequence[int], ys: Sequence[int], q: int) -> list[int]:
    """Full Lagrange interpolation through all (x_i, y_i), O(n^2)."""
    master = [1]
    for x in xs:
        master = _poly_mul(master, [(-x) % q, 1], q)
    result: list[int] = []
    for x, y in zip(xs, ys):
        if y == 0:
            continue
        basis, _ = _poly_divmod(master, [(-x) % q, 1], q)
        denom = _poly_eval(basis, x, q)
        scale = (y * pow(denom, q - 2, q)) % q
        result = _poly_sub(result, [(-scale * c) % q for c in basis], q)
    return _trim(result)


def _validate_indices(indices: Sequence[int], threshold: int) -> None:
    if threshold < 1:
        raise SecretSharingError("threshold must be >= 1")
    seen = set()
    for index in indices:
        if index < 1:
            raise SecretSharingError(
                f"share index {index} is degenerate (must be >= 1)"
            )
        if index in seen:
            raise SecretSharingError(f"duplicate share index {index}")
        seen.add(index)
    if len(indices) < threshold:
        raise RobustDecodingError(
            f"{len(indices)} shares cannot meet threshold {threshold}"
        )


# ---------------------------------------------------------------------------
# Gao's decoder
# ---------------------------------------------------------------------------


def _gao_decode(
    xs: Sequence[int], ys: Sequence[int], threshold: int, q: int
) -> tuple[list[int], set[int]]:
    """Decode one received word into (message polynomial, flagged x's).

    Gao's algorithm: run the extended Euclidean algorithm on
    g0 = prod(x - x_i) and the full interpolation g1, stopping at the
    first remainder of degree < (n + t) / 2; the message polynomial is
    r / v (exact division), and any nonzero remainder or excess degree
    means more than ``(n - t) // 2`` errors — undecodable.
    """
    n, k = len(xs), threshold
    g0 = [1]
    for x in xs:
        g0 = _poly_mul(g0, [(-x) % q, 1], q)
    g1 = _interpolate(xs, ys, q)

    # Partial extended Euclid tracking v with r = u*g0 + v*g1.
    r_prev, r_cur = g0, g1
    v_prev, v_cur = [], [1]
    # Stop at deg(r) < (n + k) / 2  <=>  2*deg(r) < n + k.
    while r_cur and 2 * (len(r_cur) - 1) >= n + k:
        quo, rem = _poly_divmod(r_prev, r_cur, q)
        r_prev, r_cur = r_cur, rem
        v_prev, v_cur = v_cur, _poly_sub(v_prev, _poly_mul(quo, v_cur, q), q)

    if not v_cur:
        raise RobustDecodingError("error locator degenerated to zero")
    message, remainder = _poly_divmod(r_cur, v_cur, q)
    if remainder or len(message) > k:
        raise RobustDecodingError(
            f"more than {max_correctable_errors(n, k)} of {n} shares are "
            "wrong; no degree-"
            f"{k - 1} polynomial explains the received word"
        )
    flagged = {
        x for x, y in zip(xs, ys) if _poly_eval(message, x, q) != y
    }
    if len(flagged) > max_correctable_errors(n, k):
        raise RobustDecodingError(
            f"decoded polynomial disagrees with {len(flagged)} shares, "
            f"beyond the unique-decoding radius "
            f"{max_correctable_errors(n, k)}"
        )
    return message, flagged


# ---------------------------------------------------------------------------
# Batch opening: amortize per-index-set work across many codewords
# ---------------------------------------------------------------------------


class BatchOpener:
    """Precomputed opening machinery for one share-index set.

    Splits the indices into a ``base`` of the first ``threshold``
    entries and ``extras``; precomputes the Lagrange weights that (a)
    evaluate the base interpolation at zero (the secret) and (b) at
    every extra index (the consistency prediction).  After the one-time
    O(n^2) setup, each row costs O(t * n) multiplications and no
    further interpolation or error-locator work.
    """

    def __init__(self, indices: Sequence[int], threshold: int, field: int):
        _validate_indices(indices, threshold)
        self.field = field
        self.threshold = threshold
        self.indices = tuple(indices)
        self.base = self.indices[:threshold]
        self.extras = self.indices[threshold:]
        q = field
        #: denominators prod_{j != i} (x_i - x_j) over the base.
        self._denom_inv = []
        for i, xi in enumerate(self.base):
            denom = 1
            for j, xj in enumerate(self.base):
                if i != j:
                    denom = (denom * (xi - xj)) % q
            self._denom_inv.append(pow(denom, q - 2, q))
        self._weights_cache: dict[int, tuple[int, ...]] = {}
        self.zero_weights = self.weights_at(0)
        self.extra_weights = {x: self.weights_at(x) for x in self.extras}

    def weights_at(self, x: int) -> tuple[int, ...]:
        """Lagrange weights over the base evaluated at ``x``:
        ``f(x) = sum_i w_i * y_base[i]`` for any f of degree < t."""
        cached = self._weights_cache.get(x)
        if cached is not None:
            return cached
        q = self.field
        k = len(self.base)
        prefix = [1] * (k + 1)
        for i, xi in enumerate(self.base):
            prefix[i + 1] = (prefix[i] * (x - xi)) % q
        suffix = [1] * (k + 1)
        for i in range(k - 1, -1, -1):
            suffix[i] = (suffix[i + 1] * (x - self.base[i])) % q
        weights = tuple(
            (prefix[i] * suffix[i + 1] * self._denom_inv[i]) % q
            for i in range(k)
        )
        self._weights_cache[x] = weights
        return weights

    def open(self, base_values: Sequence[int]) -> int:
        """The secret f(0) from the base values alone."""
        q = self.field
        return (
            sum(w * v for w, v in zip(self.zero_weights, base_values)) % q
        )

    def eval_at(self, base_values: Sequence[int], x: int) -> int:
        q = self.field
        return (
            sum(w * v for w, v in zip(self.weights_at(x), base_values)) % q
        )


@dataclass(frozen=True)
class BatchStats:
    """What one batched decode actually did — the single-pass evidence.

    ``locator_computations`` counts Gao runs: 1 for the combined
    codeword plus one per row that needed the fallback (a row whose
    corruption the Fiat-Shamir combination missed, which a 256-bit
    challenge makes astronomically unlikely).
    """

    width: int
    locator_computations: int
    errors_corrected: int


def _fiat_shamir_weights(
    indices: Sequence[int], rows: Sequence[Sequence[int]], field: int, width: int
) -> list[int]:
    """Deterministic combination weights 1, r, r^2, ... with r derived
    by hashing the entire opening transcript."""
    parts = [b"robust-batch", len(indices).to_bytes(4, "big")]
    for index in indices:
        parts.append(index.to_bytes(8, "big"))
    for row in rows:
        for value in row:
            parts.append(value.to_bytes((value.bit_length() + 7) // 8 or 1, "big"))
    r = hash_to_int(*parts) % field
    weights = [1] * width
    for j in range(1, width):
        weights[j] = (weights[j - 1] * r) % field
    return weights


def batch_robust_reconstruct(
    indices: Sequence[int],
    rows: Sequence[Sequence[int]],
    threshold: int,
    field: int,
) -> tuple[list[int], set[int], BatchStats]:
    """Open many codewords sharing one index set with one error locator.

    ``rows[j][i]`` is share ``indices[i]``'s value for codeword ``j``
    (e.g. ring coefficient ``j`` of member ``i``'s partial decryption).
    Returns ``(secrets, flagged_indices, stats)`` where ``secrets[j]``
    is codeword ``j``'s reconstruction and ``flagged_indices`` is
    exactly the set of share indices whose value deviates from the
    decoded polynomial in at least one row.

    The error-locator work (Gao) runs once, on a Fiat-Shamir random
    combination of all rows; the combination's flagged set pins the
    honest base, every row is then opened with the precomputed
    :class:`BatchOpener` weights, and each row's deviations are
    re-verified exactly so the flagged set is deterministic, not just
    overwhelmingly probable.

    With exactly ``threshold`` indices there is no redundancy: every
    word is a codeword, so each row is opened by interpolation, nothing
    is flagged and no error locator is computed.
    """
    xs = list(indices)
    _validate_indices(xs, threshold)
    width = len(rows)
    if width == 0:
        return [], set(), BatchStats(0, 0, 0)
    q = field
    n = len(xs)
    for j, row in enumerate(rows):
        if len(row) != n:
            raise SecretSharingError(
                f"row {j} has {len(row)} values for {n} share indices"
            )
    if n == threshold:
        opener = BatchOpener(xs, threshold, q)
        return [opener.open(row) for row in rows], set(), BatchStats(width, 0, 0)

    weights = _fiat_shamir_weights(xs, rows, q, width)
    combined = [
        sum(weights[j] * rows[j][i] for j in range(width)) % q
        for i in range(n)
    ]
    _, flagged = _gao_decode(xs, combined, threshold, q)
    locators = 1

    honest = [x for x in xs if x not in flagged]
    if len(honest) < threshold:
        raise RobustDecodingError(
            f"only {len(honest)} honest shares remain, need {threshold}"
        )
    opener = BatchOpener(honest, threshold, q)
    honest_pos = {x: xs.index(x) for x in honest}
    flagged_pos = {x: xs.index(x) for x in flagged}

    secrets: list[int] = []
    all_flagged: set[int] = set()
    errors = 0
    for row in rows:
        base_values = [row[honest_pos[x]] % q for x in opener.base]
        consistent = all(
            sum(
                w * v
                for w, v in zip(opener.extra_weights[x], base_values)
            ) % q == row[honest_pos[x]] % q
            for x in opener.extras
        )
        if not consistent:
            # The combined codeword missed this row's corruption: fall
            # back to a dedicated Gao decode (extra locator).
            message, row_flagged = _gao_decode(
                xs, [v % q for v in row], threshold, q
            )
            locators += 1
            secrets.append(_poly_eval(message, 0, q))
            all_flagged |= row_flagged
            errors += len(row_flagged)
            continue
        secrets.append(opener.open(base_values))
        for x, pos in flagged_pos.items():
            predicted = opener.eval_at(base_values, x)
            if predicted != row[pos] % q:
                all_flagged.add(x)
                errors += 1
    return secrets, all_flagged, BatchStats(width, locators, errors)
