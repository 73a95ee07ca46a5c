"""Several product sums in one backend call.

``negacyclic_multiply(sums, n, q)`` returns one coefficient list per
sum, and the NumPy kernel takes the whole call in one pass: one plan,
batched transforms of every operand not yet in that plan's form, one
inverse and one CRT over every sum.  Whatever the mix of operands, the
answer must be the pure backend's sum-by-sum products, exactly.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.crypto import bgv
from repro.params import SMALL, TEST
from repro.runtime import available_backends, backends, resolve_backend, use_backend

#: (n, q): the TEST ring, the SMALL modulus at a short degree, an
#: NTT-friendly prime far below the basis primes, and a composite
#: modulus the pure backend takes by schoolbook.
RINGS = [(TEST.n, TEST.q), (16, SMALL.q), (16, 97), (8, 1000)]


def _operand(data, n, q, kind):
    if kind == "ternary":
        signs = data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
        return [s % q for s in signs]
    return data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))


@pytest.mark.skipif("numpy" not in available_backends(), reason="needs NumPy")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_sum_equals_the_pure_product(data):
    """1-6 sums of 1-3 pairs over general and ternary operands, plain
    lists and Residents: one Resident shared by every sum, and one that
    already holds its form from an earlier product."""
    n, q = data.draw(st.sampled_from(RINGS))
    shared = backends.Resident(_operand(data, n, q, "ternary"))
    warm = backends.Resident(_operand(data, n, q, "general"))
    vectorized, pure = resolve_backend("numpy"), resolve_backend("pure")
    vectorized.negacyclic_multiply([[(warm, _operand(data, n, q, "general"))]], n, q)
    pool = [shared, warm]
    sums = []
    for _ in range(data.draw(st.integers(1, 6))):
        terms = []
        for _ in range(data.draw(st.integers(1, 3))):
            kinds = st.sampled_from(("general", "ternary", "pooled"))
            pair = []
            for kind in (data.draw(kinds), data.draw(kinds)):
                if kind == "pooled":
                    pair.append(data.draw(st.sampled_from(pool)))
                else:
                    operand = _operand(data, n, q, kind)
                    if data.draw(st.booleans()):
                        operand = backends.Resident(operand)
                    pair.append(operand)
            terms.append(tuple(pair))
        sums.append(terms)
    sums[0].append((shared, _operand(data, n, q, "general")))
    expected = [
        pure.negacyclic_multiply([[(list(a), list(b)) for a, b in terms]], n, q)[0]
        for terms in sums
    ]
    assert pure.negacyclic_multiply(sums, n, q) == expected
    assert vectorized.negacyclic_multiply(sums, n, q) == expected
    # Again, with every Resident now holding the forms the first call filed.
    assert vectorized.negacyclic_multiply(sums, n, q) == expected


@pytest.mark.parametrize("name", available_backends())
def test_empty_calls_and_empty_sums(name):
    backend = resolve_backend(name)
    n, q = TEST.n, TEST.q
    a = [random.Random(3).randrange(q) for _ in range(n)]
    assert backend.negacyclic_multiply([], n, q) == []
    product = backend.negacyclic_multiply([[(a, [1] + [0] * (n - 1))]], n, q)[0]
    assert backend.negacyclic_multiply([[], [(a, [1] + [0] * (n - 1))], []], n, q) == [
        [0] * n,
        product,
        [0] * n,
    ]
    assert product == a


def test_ring_multiply_counts_pairs_not_sums():
    rng = random.Random(4)
    n, q = TEST.n, TEST.q
    operands = [[rng.randrange(q) for _ in range(n)] for _ in range(4)]
    sums = [[(operands[0], operands[1])], [(operands[2], operands[3])] * 3]
    with use_backend("pure"), telemetry.session() as session:
        out = backends.ring_multiply(sums, n, q)
        counters = session.snapshot()["counters"]
    assert len(out) == 2
    assert counters["runtime.backend.multiplies"] == 4


@pytest.mark.parametrize("name", available_backends())
def test_relin_keys_take_one_call_per_power_and_one_for_every_piece(
    name, monkeypatch
):
    """The key powers are a chain, one call each; every piece's
    ``a_i·s`` then goes in one call, however many pieces there are."""
    calls = []
    ring_multiply = backends.ring_multiply

    def spy(sums, n, q):
        calls.append(len(sums))
        return ring_multiply(sums, n, q)

    monkeypatch.setattr(backends, "ring_multiply", spy)
    rng = random.Random(5)
    secret, _ = bgv.keygen(TEST, rng)
    pieces = -(-TEST.q.bit_length() // TEST.relin_base_bits)
    with use_backend(name):
        for max_power in (2, 5):
            calls.clear()
            keys = bgv.make_relin_keys(secret, max_power, rng)
            assert sum(len(key.pieces) for key in keys.keys.values()) == (
                pieces * (max_power - 1)
            )
            assert calls == [1] * (max_power - 1) + [pieces * (max_power - 1)]
