"""The bulk ring samplers draw exactly what the scalar loops drew.

``RingElement.random_ternary`` and ``random_bounded`` take 32-bit words
from one ``getrandbits`` call per rejection round instead of one
``choice`` / ``randint`` call per coefficient.  Every key, ciphertext
and digest depends on them, so for every seed they must return the
scalar loop's values and leave the generator in the scalar loop's
state.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.crypto.polyring import RingElement, RingParams, draws_below, sample_bounded
from repro.params import SMALL, TEST

RINGS = [TEST.ring, SMALL.ring, RingParams(n=8, q=97)]

seeds = st.integers(0, 2**64)


@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    n=st.one_of(
        st.integers(1, 40),
        st.sampled_from([2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**40]),
    ),
    count=st.integers(0, 300),
)
def test_draws_below_are_randrange(seed, n, count):
    bulk, scalar = random.Random(seed), random.Random(seed)
    assert draws_below(n, count, bulk) == [scalar.randrange(n) for _ in range(count)]
    assert bulk.getstate() == scalar.getstate()


@settings(max_examples=40, deadline=None)
@given(seed=seeds, ring=st.sampled_from(RINGS), bound=st.integers(0, 20))
def test_ring_samplers_are_the_scalar_loops(seed, ring, bound):
    bulk, scalar = random.Random(seed), random.Random(seed)
    ternary = RingElement.random_ternary(ring, bulk)
    assert ternary.coeffs == tuple(
        scalar.choice((-1, 0, 1)) % ring.q for _ in range(ring.n)
    )
    bounded = RingElement.random_bounded(ring, bound, bulk)
    assert bounded.coeffs == tuple(
        scalar.randint(-bound, bound) % ring.q for _ in range(ring.n)
    )
    signed = sample_bounded(ring.n, bound, bulk)
    assert signed == [scalar.randint(-bound, bound) for _ in range(ring.n)]
    assert bulk.getstate() == scalar.getstate()
    # And the stream goes on from the same place.
    assert bulk.random() == scalar.random()
