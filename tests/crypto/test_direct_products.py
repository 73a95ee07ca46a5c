"""Ternary product sums without transforms.

At a ring degree up to :data:`_DIRECT_MAX_N`, a call whose every pair
has a ternary operand skips the RNS basis: each distinct ternary operand
becomes its ``n×n`` negacyclic sign matrix, each distinct general one
its 32-bit limbs, one float64 GEMM gives every block, and the limbs of
each sum are carried back into ``Z_q``.  The pure backend is the
oracle: every sum must equal its schoolbook product exactly, whatever
the carries, the grouping or the side the ternary operand is on.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.params import SMALL, TEST
from repro.runtime import backends, resolve_backend
from repro.sharding.livesim import LIVESIM_PROFILE

nb = pytest.importorskip("repro.runtime.numpy_backend")

#: The TEST and livesim rings, and the widest modulus at the crossover.
RINGS = [
    (TEST.n, TEST.q),
    (LIVESIM_PROFILE.n, LIVESIM_PROFILE.q),
    (nb._DIRECT_MAX_N, SMALL.q),
]
RING_IDS = ["test", "livesim", "crossover-small-q"]


def _pure(sums, n, q):
    pure = resolve_backend("pure")
    return [
        pure.negacyclic_multiply([[(list(a), list(b)) for a, b in terms]], n, q)[0]
        for terms in sums
    ]


def _direct(sums, n, q, monkeypatch):
    """The numpy backend's products of ``sums``, failing if any of them
    built an RNS plan."""

    def no_plan(*args):
        raise AssertionError("a direct product built an RNS plan")

    monkeypatch.setattr(nb.NumpyBackend, "_plan", no_plan)
    return nb.NumpyBackend().negacyclic_multiply(sums, n, q)


def _ternary(rng, n, q):
    return backends.Resident([rng.choice((0, 1, q - 1)) for _ in range(n)])


def _general(rng, n, q):
    return backends.Resident([rng.randrange(q) for _ in range(n)])


@pytest.mark.parametrize("n,q", RINGS, ids=RING_IDS)
def test_worst_case_carries(n, q, monkeypatch):
    """``q-1`` everywhere against all ``-1`` and all ``+1`` signs, alone
    and three times over; and operands whose limbs are all ones against
    ``±1``, so the offset's low limb carries through every limb."""
    top = [q - 1] * n
    ones = (1 << (32 * ((q.bit_length() - 1) // 32))) - 1  # all-ones limbs
    monomial = [1] + [0] * (n - 1)
    sums = [
        [(top, [q - 1] * n)],
        [(top, [1] * n)],
        [(top, [q - 1] * n)] * 3,
        [([1] * n, top)] * 3,
        [([ones] * n, monomial)],
        [([ones] * n, [q - 1] + [0] * (n - 1))],
        [([ones] * n, monomial), ([q - 1] * n, [ones] * n)],
    ]
    assert _direct(sums, n, q, monkeypatch) == _pure(sums, n, q)


@pytest.mark.parametrize("n,q", RINGS, ids=RING_IDS)
def test_sum_shapes(n, q, monkeypatch):
    """An empty sum, several-pair sums, the ternary operand on the left,
    on the right or on both sides, and Residents shared between sums."""
    rng = random.Random(n)
    s, u = _ternary(rng, n, q), _ternary(rng, n, q)
    a, b = _general(rng, n, q), _general(rng, n, q)
    sums = [
        [],
        [(a, s)],
        [(s, a)],
        [(s, u)],
        [(a, s), (u, b), (s, s)],
        [],
        [(b, u), (a, u), (u, a), ([rng.randrange(q) for _ in range(n)], s)],
    ]
    expected = _pure(sums, n, q)
    assert _direct(sums, n, q, monkeypatch) == expected
    # Again, with every Resident now holding its limbs and signs.
    assert _direct(sums, n, q, monkeypatch) == expected
    assert _direct([[]], n, q, monkeypatch) == [[0] * n]


@pytest.mark.parametrize("n,q", RINGS[:2], ids=RING_IDS[:2])
def test_sums_across_group_boundaries(n, q, monkeypatch):
    """A slot's worth of encryptions and a genesis's worth of ``a_i·s``
    products, each spread over several groups, with Residents shared
    across the boundaries."""
    rng = random.Random(q % 1000)
    pk0, pk1 = _general(rng, n, q), _general(rng, n, q)
    s = _ternary(rng, n, q)
    encryptions = []
    for _ in range(12):
        u = _ternary(rng, n, q)
        encryptions += [[(pk0, u)], [(pk1, u)]]
    genesis = [[([rng.randrange(q) for _ in range(n)], s)] for _ in range(20)]
    mixed = [terms + [(pk0, s)] for terms in encryptions]
    width = -(-q.bit_length() // 32)
    for sums in (encryptions, genesis, mixed):
        oriented = [[nb._oriented(pair, q) for pair in terms] for terms in sums]
        assert len(list(nb._direct_groups(oriented, n, width, nb._GROUP_ELEMENTS))) > 1
        assert _direct(sums, n, q, monkeypatch) == _pure(sums, n, q)


def test_above_the_crossover_a_plan_is_built(monkeypatch):
    """At the first degree above the crossover a ternary product goes
    through an RNS plan; at the crossover it does not."""
    built = []
    plan = nb.NumpyBackend._plan

    def spy(self, n, q, bits):
        built.append(n)
        return plan(self, n, q, bits)

    monkeypatch.setattr(nb.NumpyBackend, "_plan", spy)
    backend = nb.NumpyBackend()
    rng = random.Random(3)
    q = TEST.q
    for n in (nb._DIRECT_MAX_N, 2 * nb._DIRECT_MAX_N):
        sums = [[(_general(rng, n, q), _ternary(rng, n, q))]]
        assert backend.negacyclic_multiply(sums, n, q) == _pure(sums, n, q)
    assert built == [2 * nb._DIRECT_MAX_N]


def test_a_sum_past_the_exactness_bound_takes_a_plan(monkeypatch):
    """A sum whose ``terms·n`` passes :data:`_DIRECT_EXACT` could leave
    float64's exact range: it goes through an RNS plan instead."""
    built = []
    plan = nb.NumpyBackend._plan
    monkeypatch.setattr(
        nb.NumpyBackend, "_plan", lambda self, *a: built.append(a) or plan(self, *a)
    )
    monkeypatch.setattr(nb, "_DIRECT_EXACT", 2 * TEST.n)
    rng = random.Random(4)
    n, q = TEST.n, TEST.q
    s = _ternary(rng, n, q)
    short = [[(_general(rng, n, q), s)] * 2]
    long = [[(_general(rng, n, q), s)] * 3]
    backend = nb.NumpyBackend()
    assert backend.negacyclic_multiply(short, n, q) == _pure(short, n, q)
    assert not built
    assert backend.negacyclic_multiply(long, n, q) == _pure(long, n, q)
    assert built


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_direct_equals_pure_for_random_sums(data):
    n, q = data.draw(
        st.sampled_from([(TEST.n, TEST.q), (16, SMALL.q), (16, 97), (2, (1 << 64) + 13)])
    )
    coeff = st.integers(0, q - 1)
    sign = st.sampled_from((0, 1, q - 1))
    general = st.lists(coeff, min_size=n, max_size=n)
    ternary = st.lists(sign, min_size=n, max_size=n)
    pool = data.draw(st.lists(ternary, min_size=1, max_size=4))
    pool = [backends.Resident(x) for x in pool]

    def pair(draw):
        t = draw(st.sampled_from(pool))
        x = draw(st.one_of(general, st.sampled_from(pool)))
        return (t, x) if draw(st.booleans()) else (x, t)

    sums = [
        [pair(data.draw) for _ in range(data.draw(st.integers(0, 3)))]
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    assert resolve_backend("numpy").negacyclic_multiply(sums, n, q) == _pure(sums, n, q)


@settings(max_examples=100, deadline=None)
@given(
    shape=st.lists(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3),
        max_size=10,
    ),
    limit=st.integers(1, 120),
)
def test_direct_groups_are_consecutive_bounded_and_greedy(shape, limit):
    """Every group but a lone oversized sum holds at most ``limit``
    elements — sign matrices, limbs, blocks and sums — and every group
    but the last would pass it with the next sum."""
    n, width = 2, 3
    ternary = [object() for _ in range(4)]
    general = [object() for _ in range(4)]
    oriented = [[(ternary[t], general[g], None) for t, g in terms] for terms in shape]
    groups = list(nb._direct_groups(oriented, n, width, limit))
    assert [terms for group in groups for terms in group] == oriented

    def held(group):
        t = {id(x) for terms in group for x, _, _ in terms}
        g = {id(y) for terms in group for _, y, _ in terms}
        return len(t) * n * n + (len(g) + len(t) * len(g) + len(group)) * n * width

    for group, after in zip(groups, groups[1:] + [None]):
        assert group
        assert len(group) == 1 or held(group) <= limit
        if after is not None:
            assert held(group + after[:1]) > limit
