"""Products with a ternary operand.

The BGV secret ``s`` and the encryption randomness ``u`` have centered
coefficients in {-1, 0, 1}, i.e. every coefficient is ``0``, ``1`` or
``q-1``.  The NumPy kernel finds such an operand from its values; above
the direct-product crossover it lifts it centered and sizes the RNS
basis for ``|a·s|∞ ≤ n·q`` instead of ``2·n·q²`` (at and below it, see
``test_direct_products.py``).  The pure backend stays the oracle: every product here must
equal it, and the schoolbook product, exactly.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.crypto import bgv, ntt
from repro.params import SMALL, TEST
from repro.runtime import available_backends, backends, resolve_backend, use_backend

#: (n, q) for the hypothesis property: the TEST ring, the SMALL modulus
#: at a short degree, and a prime far below the 25-bit basis primes.
PROPERTY_RINGS = [(TEST.n, TEST.q), (16, SMALL.q), (16, 97)]


def _ternary(signs, q):
    return backends.Resident([s % q for s in signs])


def _worst_case(n, q):
    """Every ``a`` coefficient ``q-1`` and every ``s`` coefficient -1:
    coefficient ``n-1`` of the product is ``-n(q-1)``, the bound."""
    return [q - 1] * n, [-1] * n


def _closed_form(n, q):
    # c_k = (q-1)(n-2-2k) ≡ 2k+2-n (mod q) for the worst case above.
    return [(2 * k + 2 - n) % q for k in range(n)]


@pytest.mark.parametrize("profile", [TEST, SMALL], ids=lambda p: p.name)
def test_worst_case_equals_the_closed_form_on_every_backend(profile):
    n, q = profile.n, profile.q
    a, signs = _worst_case(n, q)
    expected = _closed_form(n, q)
    for name in available_backends():
        backend = resolve_backend(name)
        assert backend.negacyclic_multiply([[(a, _ternary(signs, q))]], n, q)[0] == expected
        assert backend.negacyclic_multiply([[(_ternary(signs, q), a)]], n, q)[0] == expected
        plain = [s % q for s in signs]
        assert backend.negacyclic_multiply([[(a, plain)]], n, q)[0] == expected


@pytest.mark.parametrize(
    "profile",
    [TEST, pytest.param(SMALL, marks=pytest.mark.slow)],
    ids=lambda p: p.name,
)
def test_closed_form_is_the_schoolbook_product(profile):
    n, q = profile.n, profile.q
    a, signs = _worst_case(n, q)
    schoolbook = ntt.negacyclic_multiply_schoolbook(a, [s % q for s in signs], q)
    assert schoolbook == _closed_form(n, q)


@pytest.mark.skipif("numpy" not in available_backends(), reason="needs NumPy")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_numpy_equals_pure_for_random_ternary_operands(data):
    n, q = data.draw(st.sampled_from(PROPERTY_RINGS))
    a = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    signs = data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
    # Sometimes both operands are ternary.
    left = _ternary([x % 3 - 1 for x in a], q) if data.draw(st.booleans()) else a
    numpy_backend, pure = resolve_backend("numpy"), resolve_backend("pure")
    assert numpy_backend.negacyclic_multiply([[(left, _ternary(signs, q))]], n, q)[0] == (
        pure.negacyclic_multiply([[(list(left), [s % q for s in signs])]], n, q)[0]
    )


def test_ternary_basis_is_half_width():
    np_backend = pytest.importorskip("repro.runtime.numpy_backend").NumpyBackend()
    for profile in (TEST, SMALL):
        n, q = profile.n, profile.q
        general = np_backend._sum_plan(n, q, q.bit_length(), 1)
        ternary = np_backend._sum_plan(n, q, 0, 1)
        assert len(ternary.primes) <= (len(general.primes) + 1) // 2 + 1
        assert ternary.modulus > 2 * profile.n * profile.q


def test_the_basis_follows_the_operands_values():
    """Above the direct-product crossover, a ternary operand takes the
    half-width basis; one coefficient outside {0, 1, q-1} sends the
    product to the general basis, and both equal the reference product.
    At the TEST ring the ternary product files no basis form at all."""
    nb = pytest.importorskip("repro.runtime.numpy_backend")
    np_backend = nb.NumpyBackend()
    n, q = 2 * nb._DIRECT_MAX_N, TEST.q
    general = np_backend._sum_plan(n, q, q.bit_length(), 1).form_key
    half = np_backend._sum_plan(n, q, 0, 1).form_key
    rng = random.Random(8)
    a = backends.Resident([rng.randrange(q) for _ in range(n)])
    signs = [rng.choice((-1, 0, 1)) for _ in range(n)]
    nearly = list(signs)
    nearly[5] = 2  # not ternary
    ternary, mixed = _ternary(signs, q), _ternary(nearly, q)
    pure = resolve_backend("pure")
    for operand, key in ((ternary, half), (mixed, general)):
        product = np_backend.negacyclic_multiply([[(a, operand)]], n, q)[0]
        assert product == pure.negacyclic_multiply([[(list(a), list(operand))]], n, q)[0]
        assert key in operand.forms and key in a.forms
    assert general not in ternary.forms and half not in mixed.forms
    # The scan's answer is filed with the forms, a negative one too.
    assert ternary.forms[("signs", q)] == signs
    assert mixed.forms[("signs", q)] is None

    n = TEST.n
    a = backends.Resident([rng.randrange(q) for _ in range(n)])
    ternary = _ternary([rng.choice((-1, 0, 1)) for _ in range(n)], q)
    product = np_backend.negacyclic_multiply([[(a, ternary)]], n, q)[0]
    assert product == pure.negacyclic_multiply([[(list(a), list(ternary))]], n, q)[0]
    assert not [key for x in (a, ternary) for key in x.forms if key[0] == "numpy"]


@pytest.mark.parametrize("backend", available_backends())
def test_genesis_products_are_counted_but_not_cached(backend):
    """keygen's a·s and every relinearization piece's a_i·s (plus the
    powers of s) reach the backend and the multiply counter."""
    with use_backend(backend), telemetry.session() as session:
        secret, _ = bgv.keygen(TEST, random.Random(3))
        bgv.make_relin_keys(secret, 3, random.Random(4))
        counters = session.snapshot()["counters"]
    pieces = -(-TEST.q.bit_length() // TEST.relin_base_bits)
    assert counters["runtime.backend.multiplies"] == 1 + 2 * (1 + pieces)
