"""Pluggable compute backends for the crypto kernels.

Every BGV operation bottoms out in ring arithmetic in
R_q = Z_q[x]/(x^n + 1), and every SEnc/AE operation of the mixnet in
ChaCha20 keystream blocks (:mod:`repro.crypto.chacha20`);
:class:`ComputeBackend` is the seam that lets those kernels be swapped
without touching protocol code.  Two backends ship:

* ``pure`` — the reference implementation, delegating to the existing
  pure-Python :class:`repro.crypto.ntt.NttContext` (and the schoolbook
  fallback for non-NTT-friendly moduli) and to the RFC 8439 block
  function.  Always available.
* ``numpy`` — an exact vectorized kernel
  (:mod:`repro.runtime.numpy_backend`).  Registered only when NumPy
  imports; NumPy remains an optional dependency.

Backends must be *bit-identical*: for the same inputs every backend
returns the same coefficients and the same keystream bytes (enforced by
``tests/crypto/test_backend_equivalence.py`` and
``tests/crypto/test_chacha20_backends.py``).  Selection is by name via
:class:`repro.runtime.config.RuntimeConfig` (``"auto"`` picks the
fastest available), the ``--backend`` CLI flag, or the
``MYCELIUM_BACKEND`` environment variable.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Protocol, Sequence, Union, runtime_checkable

from repro.crypto import ntt
from repro.errors import ParameterError
from repro.runtime.config import AUTO_BACKEND
from repro.telemetry import runtime as telemetry


class Resident:
    """A ring operand that takes part in more than one product.

    Holds the coefficients and, beside them, the evaluation forms that
    backends have built from them: a backend transforms the operand the
    first time it meets it and parks the result here under its own key,
    so a public key or a relinearization-key piece is transformed once
    per process and the two products of one encryption share one
    transform of ``u``.  (The product cache files the operand's content
    digest here too.)  Forms are backend-specific and several times the
    size of the coefficients; pickling ships the coefficients alone and
    a fabric worker rebuilds what it uses.
    """

    __slots__ = ("coeffs", "forms")

    def __init__(self, coeffs: Sequence[int]):
        self.coeffs = coeffs
        self.forms: dict = {}

    def form(self, key, build: Callable[[Sequence[int]], object]):
        """The form filed under ``key``, built from the coefficients on
        first request."""
        found = self.forms.get(key)
        if found is None:
            found = self.forms[key] = build(self.coeffs)
        return found

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __reduce__(self):
        return Resident, (self.coeffs,)


Operand = Union[Sequence[int], Resident]

#: One ChaCha20 keystream request: ``(key, nonce, first_counter,
#: blocks)`` — 32 and 12 bytes, then the block counter of the first
#: 64-byte block and how many blocks to produce.
KeystreamRequest = tuple[bytes, bytes, int, int]


def fold_by_products(
    backend: "ComputeBackend",
    pairs: Sequence[tuple[Resident, Resident]],
    coeffs: Sequence[int],
    base_bits: int,
    n: int,
    q: int,
) -> tuple[list[int], list[int]]:
    """The fold by its definition, as a sum of ``backend`` products: the
    reference kernel's fold, and what any backend runs for a ring it
    cannot fold in the evaluation domain."""
    mask = (1 << base_bits) - 1
    acc0, acc1 = [0] * n, [0] * n
    remaining = list(coeffs)
    for b_i, a_i in pairs:
        digits = Resident([c & mask for c in remaining])  # one transform, two products
        remaining = [c >> base_bits for c in remaining]
        term0 = backend.negacyclic_multiply(b_i, digits, n, q)
        term1 = backend.negacyclic_multiply(a_i, digits, n, q)
        acc0 = [(x + y) % q for x, y in zip(acc0, term0)]
        acc1 = [(x + y) % q for x, y in zip(acc1, term1)]
    return acc0, acc1


@runtime_checkable
class ComputeBackend(Protocol):
    """The negacyclic-NTT/polyring kernel under every HE operation, and
    the ChaCha20 keystream kernel under every SEnc/AE operation.

    Coefficient vectors are Python ``list[int]`` with entries in
    ``[0, q)``; a product operand may also be a :class:`Resident`, whose
    evaluation form the backend builds once and reuses.  Implementations
    must return exactly what the reference backend returns for the same
    inputs.
    """

    name: str

    def negacyclic_multiply(
        self, a: Operand, b: Operand, n: int, q: int
    ) -> list[int]:
        """Product in Z_q[x]/(x^n + 1) for *any* modulus q."""
        ...

    def fold_multiply_accumulate(
        self,
        pairs: Sequence[tuple[Resident, Resident]],
        coeffs: Sequence[int],
        base_bits: int,
        n: int,
        q: int,
    ) -> tuple[list[int], list[int]]:
        """``(sum_i b_i*d_i, sum_i a_i*d_i)`` over ``pairs[i] = (b_i,
        a_i)``, where ``d_i`` is the ``i``-th base-``2^base_bits`` digit
        polynomial of ``coeffs`` (each below ``2^(base_bits·len(pairs))``)
        — one relinearization fold."""
        ...

    def chacha20_keystreams(
        self, streams: Sequence[KeystreamRequest]
    ) -> list[bytes]:
        """One ``64·blocks``-byte RFC 8439 keystream per request; block
        ``j`` of a stream runs under counter ``(first_counter + j) mod
        2^32``.  Key and nonce lengths are the caller's to check."""
        ...


class PureBackend:
    """Reference backend: the pure-Python NTT plus schoolbook fallback,
    and the RFC 8439 block function."""

    name = "pure"

    def _form(self, ctx: ntt.NttContext, operand: Operand) -> list[int]:
        if isinstance(operand, Resident):
            return operand.form(self.name, lambda c: ctx.forward(list(c)))
        return ctx.forward(list(operand))

    def negacyclic_multiply(
        self, a: Operand, b: Operand, n: int, q: int
    ) -> list[int]:
        if (q - 1) % (2 * n):
            return ntt.negacyclic_multiply_schoolbook(list(a), list(b), q)
        if len(a) != n or len(b) != n:
            raise ParameterError("operands must have length n")
        ctx = ntt.get_context(n, q)
        fa, fb = self._form(ctx, a), self._form(ctx, b)
        return ctx.inverse([(x * y) % q for x, y in zip(fa, fb)])

    def fold_multiply_accumulate(self, pairs, coeffs, base_bits, n, q):
        return fold_by_products(self, pairs, coeffs, base_bits, n, q)

    def chacha20_keystreams(self, streams):
        # Not at module level: repro.crypto.chacha20 imports this module.
        from repro.crypto.chacha20 import chacha20_block

        return [
            b"".join(
                chacha20_block(key, first + j, nonce) for j in range(blocks)
            )
            for key, nonce, first, blocks in streams
        ]


_factories: dict[str, Callable[[], ComputeBackend]] = {}
_instances: dict[str, ComputeBackend] = {}


def register_backend(name: str, factory: Callable[[], ComputeBackend]) -> None:
    """Add a backend factory; the instance is created lazily, once."""
    _factories[name] = factory


def _numpy_factory() -> ComputeBackend:
    from repro.runtime.numpy_backend import NumpyBackend  # optional dep

    return NumpyBackend()


register_backend("pure", PureBackend)
register_backend("numpy", _numpy_factory)


def _instantiate(name: str) -> ComputeBackend:
    if name not in _instances:
        if name not in _factories:
            raise ParameterError(
                f"unknown compute backend {name!r}; known: {sorted(_factories)}"
            )
        _instances[name] = _factories[name]()
    return _instances[name]


def known_backends() -> list[str]:
    """Every acceptable backend *name*: registered factories plus
    ``"auto"``.  Unlike :func:`available_backends` this does not try to
    instantiate anything — it is the validation set for configuration
    (``MYCELIUM_BACKEND``, ``--backend``)."""
    return sorted(_factories) + [AUTO_BACKEND]


def available_backends() -> list[str]:
    """Names of backends that actually instantiate on this machine."""
    names = []
    for name in _factories:
        try:
            _instantiate(name)
        except ImportError:
            continue
        names.append(name)
    return names


def resolve_backend(name: str = AUTO_BACKEND) -> ComputeBackend:
    """Instantiate a backend by name; ``"auto"`` prefers the NumPy kernel."""
    if name == AUTO_BACKEND:
        try:
            return _instantiate("numpy")
        except ImportError:
            return _instantiate("pure")
    try:
        return _instantiate(name)
    except ImportError as exc:
        raise ParameterError(
            f"compute backend {name!r} is not available here: {exc}"
        ) from exc


_active: ComputeBackend = _instantiate("pure")


def active_backend() -> ComputeBackend:
    """The backend currently serving ring multiplications."""
    return _active


def activate(name: str) -> ComputeBackend:
    """Make ``name`` (or ``"auto"``) the process-wide active backend."""
    global _active
    _active = resolve_backend(name)
    return _active


@contextlib.contextmanager
def use_backend(name: str):
    """Scope the active backend to a ``with`` block."""
    global _active
    previous = _active
    _active = resolve_backend(name)
    try:
        yield _active
    finally:
        _active = previous


#: Entries kept in the content-keyed product cache.  An entry is its
#: result coefficients and two operand digests — it keeps no operand
#: alive — so 128 entries bound the worst case to ~20 MB at the SMALL
#: ring.
_MULTIPLY_CACHE_SIZE = 128

_multiply_cache: OrderedDict[tuple, tuple[int, ...]] = OrderedDict()
_multiply_lock = threading.Lock()


def clear_multiply_cache() -> None:
    """Drop every memoized ring product (benchmark/test isolation)."""
    with _multiply_lock:
        _multiply_cache.clear()


def _content_digest(operand: Operand, q: int) -> bytes:
    """SHA-256 over the operand's coefficients (each in ``[0, q)``); a
    :class:`Resident` computes its own once."""
    if isinstance(operand, Resident):
        return operand.form("digest", lambda coeffs: _content_digest(coeffs, q))
    width = (q.bit_length() + 7) // 8
    return hashlib.sha256(
        b"".join(c.to_bytes(width, "little") for c in operand)
    ).digest()


def ring_multiply(a: Operand, b: Operand, n: int, q: int) -> list[int]:
    """Dispatch one negacyclic product to the active backend.

    This is the single call site for single products —
    :mod:`repro.crypto.polyring` and the shared-operand products of
    :mod:`repro.crypto.bgv` — so the ``runtime.backend.multiplies``
    counter sees every ring multiplication the parent process performs.

    Products are memoized by operand content (digests, ordered because
    the product commutes; keyed per backend so the equivalence tests
    still exercise each kernel).  The online phase repeats many exact
    products — the ZK aggregate proof replays the origin compute — and
    a hit returns the cached coefficients without touching the backend
    or transforming a :class:`Resident` operand.
    """
    telemetry.count("runtime.backend.multiplies")
    key = (_active.name, n, q, *sorted((_content_digest(a, q), _content_digest(b, q))))
    with _multiply_lock:
        hit = _multiply_cache.get(key)
        if hit is not None:
            _multiply_cache.move_to_end(key)
    if hit is not None:
        telemetry.count("runtime.backend.multiply_cache_hits")
        return list(hit)
    result = _active.negacyclic_multiply(a, b, n, q)
    with _multiply_lock:
        _multiply_cache[key] = tuple(result)
        _multiply_cache.move_to_end(key)
        while len(_multiply_cache) > _MULTIPLY_CACHE_SIZE:
            _multiply_cache.popitem(last=False)
    return result


def fold_multiply_accumulate(
    pairs: Sequence[tuple[Resident, Resident]],
    coeffs: Sequence[int],
    base_bits: int,
    n: int,
    q: int,
) -> tuple[list[int], list[int]]:
    """Dispatch one relinearization fold to the active backend (see
    :meth:`ComputeBackend.fold_multiply_accumulate`).

    Counts ``runtime.backend.fold_products`` — the ring products the
    fold stands for, two per key piece.
    """
    telemetry.count("runtime.backend.fold_products", 2 * len(pairs))
    return _active.fold_multiply_accumulate(pairs, coeffs, base_bits, n, q)


def chacha20_keystreams(streams: Sequence[KeystreamRequest]) -> list[bytes]:
    """Dispatch one batch of keystream requests to the active backend
    (see :meth:`ComputeBackend.chacha20_keystreams`).

    Counts ``runtime.backend.chacha20_blocks`` — the 64-byte blocks the
    batch stands for.
    """
    telemetry.count(
        "runtime.backend.chacha20_blocks", sum(stream[3] for stream in streams)
    )
    return _active.chacha20_keystreams(streams)
