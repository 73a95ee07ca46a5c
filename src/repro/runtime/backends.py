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
  (:mod:`repro.runtime.numpy_backend`), the one ``"auto"`` picks.  NumPy
  is a declared dependency of the package; the factory still treats a
  failed import as "backend unavailable", so a bare checkout without it
  runs on ``pure``.

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
    transform of ``u``.  Forms are backend-specific and several times the
    size of the coefficients; pickling ships the coefficients alone and
    a fabric worker rebuilds what it uses.

    A backend may also file what it learned about the values: the NumPy
    kernel records whether the operand is ternary (every coefficient
    ``0``, ``1`` or ``q-1``, as the BGV secret ``s`` and the encryption
    randomness ``u`` are by construction).  On a small ring a product
    with a ternary operand then needs no transform, and the other
    operand's 32-bit limbs are filed here too (a public key is split
    once); on a larger ring it halves the basis of every product the
    operand takes part in.  An operand drawn ternary comes with its
    signs filed (:meth:`file_signs`), so no backend scans it.
    """

    __slots__ = ("coeffs", "forms")

    def __init__(self, coeffs: Sequence[int]):
        self.coeffs = coeffs
        self.forms: dict = {}

    def form(self, key, build: Callable[[Sequence[int]], object]):
        """The form filed under ``key``, built from the coefficients on
        first request (a ``None`` answer is filed too)."""
        if key not in self.forms:
            self.forms[key] = build(self.coeffs)
        return self.forms[key]

    @staticmethod
    def signs_key(q: int) -> tuple:
        """Where the centered values of a ternary operand mod ``q`` are
        filed (``None`` there: not ternary)."""
        return ("signs", q)

    def file_signs(self, q: int, signs: Sequence[int]) -> None:
        """File the centered values, each in {-1, 0, 1}, of an operand
        drawn ternary mod ``q``: what a backend's scan would find."""
        self.forms[self.signs_key(q)] = signs

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __reduce__(self):
        return Resident, (self.coeffs,)


Operand = Union[Sequence[int], Resident]

#: One term ``a * b`` of a product sum.
Pair = tuple[Operand, Operand]

#: One product sum ``sum_i a_i * b_i``, as its terms.
Sum = Sequence[Pair]

#: One ChaCha20 keystream request: ``(key, nonce, first_counter,
#: blocks)`` — 32 and 12 bytes, then the block counter of the first
#: 64-byte block and how many blocks to produce.
KeystreamRequest = tuple[bytes, bytes, int, int]


def schoolbook_sum(pairs: Sum, n: int, q: int) -> list[int]:
    """``sum_i a_i*b_i`` by the O(n^2) definition: what every backend
    runs for a ring it cannot transform."""
    acc = [0] * n
    for a, b in pairs:
        term = ntt.negacyclic_multiply_schoolbook(list(a), list(b), q)
        acc = [(x + y) % q for x, y in zip(acc, term)]
    return acc


def fold_by_products(
    backend: "ComputeBackend",
    pairs: Sequence[tuple[Resident, Resident]],
    coeffs: Sequence[int],
    base_bits: int,
    n: int,
    q: int,
) -> tuple[list[int], list[int]]:
    """The fold by its definition, as two ``backend`` product sums: the
    reference kernel's fold, and what any backend runs for a ring it
    cannot fold in the evaluation domain."""
    mask = (1 << base_bits) - 1
    digits = []  # each transformed once, for both sums
    remaining = list(coeffs)
    for _ in pairs:
        digits.append(Resident([c & mask for c in remaining]))
        remaining = [c >> base_bits for c in remaining]
    d0, d1 = backend.negacyclic_multiply(
        [
            [(b_i, d_i) for (b_i, _), d_i in zip(pairs, digits)],
            [(a_i, d_i) for (_, a_i), d_i in zip(pairs, digits)],
        ],
        n,
        q,
    )
    return d0, d1


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
        self, sums: Sequence[Sum], n: int, q: int
    ) -> list[list[int]]:
        """One coefficient list per sum: ``sum_i a_i*b_i`` over
        ``pairs[i] = (a_i, b_i)`` in Z_q[x]/(x^n + 1), for *any* modulus
        q.  The products accumulate in the evaluation domain and leave
        it once, whatever their number; the sums of one call are the
        work one device does together, and a backend may take them in
        one pass."""
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
        self, sums: Sequence[Sum], n: int, q: int
    ) -> list[list[int]]:
        return [self._sum(pairs, n, q) for pairs in sums]

    def _sum(self, pairs: Sum, n: int, q: int) -> list[int]:
        if (q - 1) % (2 * n):
            return schoolbook_sum(pairs, n, q)
        ctx = ntt.get_context(n, q)
        acc = [0] * n
        for a, b in pairs:
            if len(a) != n or len(b) != n:
                raise ParameterError("operands must have length n")
            fa, fb = self._form(ctx, a), self._form(ctx, b)
            acc = [(z + x * y) % q for z, x, y in zip(acc, fa, fb)]
        return ctx.inverse(acc)

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


def ring_multiply(sums: Sequence[Sum], n: int, q: int) -> list[list[int]]:
    """Dispatch negacyclic product sums ``sum_i a_i*b_i`` to the active
    backend; one coefficient list per sum.

    This is the single call site for ring products, and one call is one
    device step: :mod:`repro.crypto.polyring` and genesis pass one sum
    of one pair, :func:`repro.crypto.bgv.encrypt` two sums per plaintext
    of a batch (a destination's whole slot), and
    :func:`repro.crypto.bgv.multiply` one sum per output component.  The
    ``runtime.backend.multiplies`` counter sees every ring product — every
    pair — the parent process performs.  A ternary operand (the secret
    ``s``, the encryption randomness ``u``) may change how a backend
    computes the product — the NumPy kernel finds it and skips the
    transforms on a small ring, or uses a basis half as wide on a larger
    one — never the product.
    """
    telemetry.count("runtime.backend.multiplies", sum(len(pairs) for pairs in sums))
    return _active.negacyclic_multiply(sums, n, q)


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
