"""Cross-backend bit-equality: the NumPy kernel must match pure Python.

Every test here compares the optional vectorized backend against the
pure-Python reference on identical inputs and requires *exact* equality
— the backends are interchangeable kernels, not approximations.  The
whole module skips when NumPy is absent.
"""

import hashlib
import random

import pytest

np = pytest.importorskip("numpy")

from repro.crypto import bgv, ntt
from repro.params import SMALL, TEST
from repro.runtime import backends, resolve_backend, use_backend

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
    assert numpy_backend.negacyclic_multiply([[(a, b)]], n, q)[0] == (
        pure.negacyclic_multiply([[(a, b)]], n, q)[0]
    )


@pytest.mark.parametrize("n,q", RNS_RINGS)
def test_rns_multiply_matches_pure(n, q):
    numpy_backend = resolve_backend("numpy")
    pure = resolve_backend("pure")
    a = _random_coeffs(n, q, seed=3 * n)
    b = _random_coeffs(n, q, seed=3 * n + 1)
    assert numpy_backend.negacyclic_multiply([[(a, b)]], n, q)[0] == (
        pure.negacyclic_multiply([[(a, b)]], n, q)[0]
    )


def test_rns_multiply_matches_schoolbook_small_case():
    # Non-NTT-friendly composite modulus: both backends must agree with
    # the O(n^2) schoolbook ground truth.
    n, q = 8, 1000
    a = _random_coeffs(n, q, seed=5)
    b = _random_coeffs(n, q, seed=6)
    expected = ntt.negacyclic_multiply_schoolbook(a, b, q)
    numpy_backend = resolve_backend("numpy")
    assert numpy_backend.negacyclic_multiply([[(a, b)]], n, q)[0] == expected
    assert resolve_backend("pure").negacyclic_multiply([[(a, b)]], n, q)[0] == expected


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


# -- the pair-sum kernel -------------------------------------------------------

#: SHA-256 of the big-endian coefficients of one product of the seeded
#: operands below, taken with the single-product kernel that preceded
#: the pair sum: a one-pair sum must keep those bytes on either backend.
SINGLE_PRODUCT_PINS = {
    "test": "d8544291b0f8b893987a83cb74b1a170252abe83300c1d9f8127e9c564d56169",
    "small": "595e3712af76e5e24024d61fb7b73200ed49fb32ebb0b099116e0d7b88e6aefe",
}


def _pin(coeffs, q):
    width = (q.bit_length() + 7) // 8
    return hashlib.sha256(
        b"".join(c.to_bytes(width, "big") for c in coeffs)
    ).hexdigest()


def _ternary(n, q, seed):
    rng = random.Random(seed)
    return [rng.choice((0, 1, q - 1)) for _ in range(n)]


def _summed(terms, q):
    return [sum(column) % q for column in zip(*terms)]


@pytest.mark.parametrize("profile", [TEST, SMALL], ids=lambda p: p.name)
def test_one_pair_keeps_the_single_product_bytes(profile):
    n, q = profile.n, profile.q
    a, b = _random_coeffs(n, q, seed=26), _random_coeffs(n, q, seed=27)
    for name in ("pure", "numpy"):
        product = resolve_backend(name).negacyclic_multiply([[(a, b)]], n, q)[0]
        assert _pin(product, q) == SINGLE_PRODUCT_PINS[profile.name], name


@pytest.mark.parametrize("profile", [TEST, SMALL], ids=lambda p: p.name)
@pytest.mark.parametrize("terms", [2, 3])
def test_pair_sum_is_the_sum_of_products(profile, terms):
    """Full, ternary and mixed pairs, each a Resident or a plain list:
    numpy equals pure, and both equal the products added mod q."""
    n, q = profile.n, profile.q
    full = [_random_coeffs(n, q, seed=40 + i) for i in range(terms + 1)]
    ternary = [_ternary(n, q, seed=60 + i) for i in range(terms)]
    shapes = {
        "full": [(full[i], full[i + 1]) for i in range(terms)],
        "ternary": [(full[i], ternary[i]) for i in range(terms)],
        "mixed": [
            (full[i], ternary[i] if i % 2 else full[i + 1])
            for i in range(terms)
        ],
    }
    pure, vectorized = resolve_backend("pure"), resolve_backend("numpy")
    for shape, pairs in shapes.items():
        singles = [pure.negacyclic_multiply([[pair]], n, q)[0] for pair in pairs]
        expected = _summed(singles, q)
        assert pure.negacyclic_multiply([pairs], n, q)[0] == expected, shape
        resident = [
            (backends.Resident(x), backends.Resident(y)) for x, y in pairs
        ]
        for operands in (pairs, resident):
            assert vectorized.negacyclic_multiply([operands], n, q)[0] == expected, shape


@pytest.mark.parametrize("n,q", [(6, 1000), (12, 1001)])
def test_pair_sum_schoolbook_fallback(n, q):
    """A degree that is not a power of two takes the schoolbook sum on
    both backends."""
    pairs = [
        (_random_coeffs(n, q, seed=7 + 2 * i), _random_coeffs(n, q, seed=8 + 2 * i))
        for i in range(3)
    ]
    expected = _summed(
        [ntt.negacyclic_multiply_schoolbook(a, b, q) for a, b in pairs], q
    )
    assert resolve_backend("numpy").negacyclic_multiply([pairs], n, q)[0] == expected
    assert resolve_backend("pure").negacyclic_multiply([pairs], n, q)[0] == expected
    assert resolve_backend("pure").negacyclic_multiply([[]], n, q)[0] == [0] * n
    assert resolve_backend("numpy").negacyclic_multiply([[]], 8, q)[0] == [0] * 8
