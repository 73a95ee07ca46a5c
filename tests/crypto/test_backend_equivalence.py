"""Cross-backend bit-equality: the NumPy kernel must match pure Python.

Every test here compares the optional vectorized backend against the
pure-Python reference on identical inputs and requires *exact* equality
— the backends are interchangeable kernels, not approximations.  The
whole module skips when NumPy is absent.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.crypto import bgv, ntt
from repro.params import SMALL, TEST
from repro.runtime import resolve_backend, use_backend

#: Small NTT-friendly rings: q prime, q ≡ 1 (mod 2n) — moduli the pure
#: backend transforms directly and the NumPy kernel takes through RNS
#: like any other (the last one is itself a candidate basis prime).
DIRECT_RINGS = [(16, 97), (64, 7681), (256, 65537), (1024, 268369921)]

#: (n, q) pairs that exercise the RNS path (big q) and the schoolbook
#: reference (non-NTT-friendly q, e.g. the plaintext moduli 2^10/2^16).
RNS_RINGS = [
    (TEST.ring.n, TEST.ring.q),
    (SMALL.ring.n, SMALL.ring.q),
    (TEST.plaintext_ring.n, TEST.plaintext_ring.q),
    (SMALL.plaintext_ring.n, SMALL.plaintext_ring.q),
]


def _random_coeffs(n, q, seed):
    rng = random.Random(seed)
    return [rng.randrange(q) for _ in range(n)]


@pytest.mark.parametrize("n,q", DIRECT_RINGS)
def test_direct_multiply_matches_pure(n, q):
    numpy_backend = resolve_backend("numpy")
    pure = resolve_backend("pure")
    a = _random_coeffs(n, q, seed=2 * n)
    b = _random_coeffs(n, q, seed=2 * n + 1)
    assert numpy_backend.negacyclic_multiply(a, b, n, q) == (
        pure.negacyclic_multiply(a, b, n, q)
    )


@pytest.mark.parametrize("n,q", RNS_RINGS)
def test_rns_multiply_matches_pure(n, q):
    numpy_backend = resolve_backend("numpy")
    pure = resolve_backend("pure")
    a = _random_coeffs(n, q, seed=3 * n)
    b = _random_coeffs(n, q, seed=3 * n + 1)
    assert numpy_backend.negacyclic_multiply(a, b, n, q) == (
        pure.negacyclic_multiply(a, b, n, q)
    )


def test_rns_multiply_matches_schoolbook_small_case():
    # Non-NTT-friendly composite modulus: both backends must agree with
    # the O(n^2) schoolbook ground truth.
    n, q = 8, 1000
    a = _random_coeffs(n, q, seed=5)
    b = _random_coeffs(n, q, seed=6)
    expected = ntt.negacyclic_multiply_schoolbook(a, b, q)
    numpy_backend = resolve_backend("numpy")
    assert numpy_backend.negacyclic_multiply(a, b, n, q) == expected
    assert resolve_backend("pure").negacyclic_multiply(a, b, n, q) == expected


@pytest.mark.parametrize("profile", [TEST, SMALL], ids=lambda p: p.name)
def test_full_bgv_pipeline_bit_identical(profile):
    """keygen/encrypt/add/multiply/decrypt agree ciphertext-for-ciphertext.

    Both runs consume identical RNG streams, so every intermediate
    ciphertext — not just the decrypted plaintext — must be equal.
    """

    def pipeline():
        rng = random.Random(0xE0)
        secret, public = bgv.keygen(profile, rng)
        a = bgv.encrypt_monomial(public, 1, rng)
        b = bgv.encrypt_monomial(public, 2, rng)
        total = bgv.add(a, b)
        product = bgv.multiply(a, b)
        return (
            a.components,
            b.components,
            total.components,
            product.components,
            bgv.decrypt(secret, total).coeffs,
            bgv.decrypt(secret, product).coeffs,
        )

    with use_backend("pure"):
        reference = pipeline()
    with use_backend("numpy"):
        vectorized = pipeline()
    assert vectorized == reference
    # The sums/products are also correct, not merely consistent:
    # Enc(x) + Enc(x^2) and Enc(x) * Enc(x^2) decode as expected.
    assert reference[4][1] == 1 and reference[4][2] == 1
    assert reference[5][3] == 1
